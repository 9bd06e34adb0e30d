"""The index core of ``Graph``, ``Partition`` and ``HomMap`` against the
label-level oracles in ``reference``: edges, neighbourhoods, the label views,
equality and hashing of loaded, component and orbit partitions, the
quotient, the edge, local and equitable classes of maps, the label views a
map derives from its positions, and its fibre-component table."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import Graph, HomMap, Partition, io, is_equitable, quotient
from quograph.errors import HypothesisError
from quograph.homs import _fibre_blocks, _is_equitable, _local_pass
from quograph.verify import _index_maps, _orbit_subgroups, enumerate_graphs, set_partitions

from conftest import homomorphism_inputs, vertex_maps
from reference import (
    LabelPartition,
    label_components,
    label_edge_classes,
    label_fibre_blocks,
    label_fibres,
    label_graph,
    label_is_equitable,
    label_local_pass,
    label_orbit_partition,
    label_partition,
    label_quotient,
)


def raw_graphs(max_vertices: int):
    """The vertex and edge lists ``enumerate_graphs`` builds its graphs from."""
    for n in range(1, max_vertices + 1):
        labels = [str(i) for i in range(1, n + 1)]
        pairs = list(itertools.combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            yield labels, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


@st.composite
def raw_graphs_with_cells(draw, max_vertices: int = 40):
    """Vertex and edge lists with edges in either orientation, and a cell
    number for each vertex.  The labels mix characters that sort below and
    above "]", so quotient names do not always sort in block order."""
    labels = draw(
        st.lists(st.text("ab1+]", min_size=1, max_size=3), min_size=1, max_size=max_vertices, unique=True)
    )
    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=80)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    cells = draw(st.lists(st.integers(0, 5), min_size=len(labels), max_size=len(labels)))
    repeats = draw(st.lists(st.integers(1, 2), min_size=len(labels), max_size=len(labels)))
    blocks: dict[int, list[str]] = {}
    for v, c, r in zip(labels, cells, repeats):
        blocks.setdefault(c, []).extend([v] * r)  # a member listed twice counts once
    return labels, edges, list(blocks.values())


def check_graph(vertices, edges):
    """Build the graph and its label oracle; compare every label view."""
    g = Graph(vertices, edges)
    nbhd, edge_set = label_graph(vertices, edges)
    assert g.proper_edges == edge_set
    assert g.sorted_edges() == sorted(tuple(sorted(e)) for e in edge_set)
    assert {v: g.neighborhood(v) for v in vertices} == nbhd
    assert all(g.has_edge(u, v) == (v in nbhd[u]) for u in vertices for v in vertices)
    components = label_components(nbhd)
    oracle = label_partition(components, vertices)
    check_partition(g.components(), oracle)
    check_equality([g.components(), Partition(components, vertices)], [oracle] * 2)
    assert g == Graph(vertices[::-1], [(v, u) for u, v in edges[::-1]])
    return g, nbhd, edge_set


def check_map(m: HomMap, mapping, source_nbhd, source_edges, target_nbhd, target_edges):
    """The map's label views, fibre-component table, and edge, local and
    equitable classes against the label oracles run on ``mapping``, the
    label map it was built to be."""
    fibres = label_fibres(mapping)
    assert list(m.mapping.items()) == sorted(mapping.items())
    assert list(m.fibres.items()) == list(fibres.items())
    assert [m.fibre(y) for y in m.target.vertices] == [fibres.get(y, ()) for y in m.target.vertices]
    assert m.image == set(mapping.values())
    blocks = label_components(source_nbhd)
    assert _fibre_blocks(m) == label_fibre_blocks(mapping, blocks, m.target.vertices)
    assert m._edge_classes == label_edge_classes(mapping, source_edges, m.target.vertices, target_edges)
    everywhere = range(len(m.source.vertices))
    assert _local_pass(m, everywhere) == label_local_pass(mapping, source_nbhd, target_nbhd, m.source.vertices)
    assert _is_equitable(m.source, m._index_map) == label_is_equitable(source_nbhd, fibres.values(), mapping)


def check_partition(p: Partition, oracle: LabelPartition):
    """A partition's label views and the positions of its smallest members
    against its label form."""
    assert p._leaders == tuple(p.vertices.index(block[0]) for block in oracle.blocks)
    assert p.blocks == oracle.blocks
    assert p.block_of == oracle.block_of
    assert p.count == len(oracle.blocks)
    assert p.universe == oracle.universe
    assert [p.block_containing(v) for v in p.vertices] == [oracle.blocks[oracle.block_of[v]] for v in p.vertices]


def check_equality(partitions: list[Partition], oracles: list[LabelPartition]):
    """Two partitions are equal exactly when their label forms are, and
    equal partitions hash alike."""
    for p, a in zip(partitions, oracles):
        for q, b in zip(partitions, oracles):
            same = (a.blocks, a.universe) == (b.blocks, b.universe)
            assert (p == q) == same
            assert not same or hash(p) == hash(q)


def check_quotient(g: Graph, nbhd, edges, blocks) -> Partition:
    """Build the partition of g by constructor and by loader, compare both
    with the label form, and the quotient by it with the label quotient."""
    oracle = label_partition(blocks, g.vertices)
    p = Partition(blocks, g.vertex_set)
    loaded = io.partition_from_dict({"blocks": [list(b) for b in blocks]}, g)
    shuffled = Partition([list(b)[::-1] for b in reversed(blocks)], g.vertices)
    for built in (p, loaded, shuffled):
        check_partition(built, oracle)
    check_equality([p, loaded, shuffled], [oracle] * 3)
    names, qedges = label_quotient(edges, oracle)
    m = quotient(g, p).projection
    assert m.target.vertices == tuple(sorted(names)) and m.target.proper_edges == qedges
    mapping = {v: names[oracle.block_of[v]] for v in g.vertices}
    check_map(m, mapping, nbhd, edges, label_graph(names, qedges)[0], qedges)
    assert is_equitable(g, p) == label_is_equitable(nbhd, oracle.blocks, oracle.block_of)
    return p


def test_every_graph_and_partition_up_to_four_vertices():
    pairs = 0
    for vertices, edges in raw_graphs(4):
        g, nbhd, edge_set = check_graph(vertices, edges)
        for blocks in set_partitions(vertices):
            check_quotient(g, nbhd, edge_set, blocks)
            pairs += 1
    assert pairs == 1 + 2 * 2 + 8 * 5 + 64 * 15


def test_equality_and_hash_across_vertex_sets():
    partitions, oracles = [], []
    for n in range(1, 5):
        vertices = [str(i) for i in range(1, n + 1)]
        for blocks in set_partitions(vertices):
            partitions.append(Partition(blocks, vertices))
            oracles.append(label_partition(blocks, vertices))
    partitions.append(Partition.singletons(["2", "1"]))
    oracles.append(label_partition([["1"], ["2"]], ["1", "2"]))
    check_equality(partitions, oracles)


def test_orbit_partitions_of_the_orbit_sweep():
    for g in enumerate_graphs(4):
        nbhd, edge_set = label_graph(g.vertices, g.sorted_edges())
        for p, grp in _orbit_subgroups(g):
            oracle = label_orbit_partition(grp)
            check_partition(p, oracle)
            assert check_quotient(g, nbhd, edge_set, oracle.blocks) == p


def test_a_member_listed_twice_in_one_block_counts_once():
    vertices, edges = ["a", "b", "c", "d"], [("a", "c")]
    g, nbhd, edge_set = check_graph(vertices, edges)
    p = check_quotient(g, nbhd, edge_set, [["c", "a", "c"], ["d", "b", "d", "d"]])
    assert p.blocks == (("a", "c"), ("b", "d"))


def test_every_map_between_graphs_up_to_three_vertices():
    graphs = [check_graph(vertices, edges) for vertices, edges in raw_graphs(3)]
    maps = 0
    for s, s_nbhd, s_edges in graphs:
        for t, t_nbhd, t_edges in graphs:
            for index_map in _index_maps(s, t):
                mapping = {v: t.vertices[y] for v, y in zip(s.vertices, index_map)}
                check_map(HomMap._from_index_map(s, t, index_map), mapping, s_nbhd, s_edges, t_nbhd, t_edges)
                maps += 1
    assert maps == 1339


@given(raw_graphs_with_cells())
@settings(max_examples=60, deadline=None)
def test_random_graphs_and_partitions(raw):
    vertices, edges, blocks = raw
    g, nbhd, edge_set = check_graph(vertices, edges)
    check_quotient(g, nbhd, edge_set, blocks)


@given(raw_graphs_with_cells(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_blocks_in_block_order_or_shuffled_give_one_partition(raw, rnd):
    """The constructor and the loader store blocks listed by smallest member
    as they come and renumber any other order, to the same partition."""
    vertices, edges, blocks = raw
    g = Graph(vertices, edges)
    oracle = label_partition(blocks, vertices)
    ordered = [list(b) for b in oracle.blocks]
    repeated = [b + b[-1:] for b in ordered]  # still in block order
    shuffled = [rnd.sample(b, len(b)) for b in repeated]
    rnd.shuffle(shuffled)
    built = []
    for given_as in (ordered, repeated, shuffled):
        built += [Partition(given_as, vertices), io.partition_from_dict({"blocks": given_as}, g)]
    for p in built:
        check_partition(p, oracle)
        assert type(p._of) is tuple and type(p._leaders) is tuple
        assert (p._of, p._leaders, p.blocks) == (built[0]._of, built[0]._leaders, built[0].blocks)


@given(homomorphism_inputs(max_source=40, max_target=8))
@settings(max_examples=60, deadline=None)
def test_random_homomorphisms(case):
    source, target, mapping = case
    s_nbhd, s_edges = label_graph(source.vertices, source.sorted_edges())
    t_nbhd, t_edges = label_graph(target.vertices, target.sorted_edges())
    check_map(HomMap(source, target, mapping), mapping, s_nbhd, s_edges, t_nbhd, t_edges)


@given(vertex_maps())
@settings(max_examples=100)
def test_refused_exactly_when_an_edge_is_not_preserved(case):
    src, tgt, mapping = case
    preserving, _ = label_edge_classes(mapping, src.proper_edges, tgt.vertices, tgt.proper_edges)
    if preserving:
        HomMap(src, tgt, mapping)
    else:
        with pytest.raises(HypothesisError):
            HomMap(src, tgt, mapping)
