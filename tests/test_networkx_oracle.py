"""Components and quotients against networkx's, on Hypothesis graphs and
partitions: the component count and blocks, and the quotient graph with
each block named "[<smallest member>]".  The isomorphism search, on which
the ``component_image_iso_criterion`` claim rests, against
``nx.is_isomorphic`` on every pair of small labeled graphs of one size.  The
automorphism group, from which the orbit sweep draws its subgroups, against
networkx's count of self-isomorphisms on every labeled graph of the
exhaustive layer.

networkx is a test-only dependency (the ``test`` extra); the library itself
stays on the standard library.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings

from quograph import Graph, Partition, find_isomorphism, perms, quotient
from quograph.verify import enumerate_graphs

from conftest import graphs, graphs_with_partitions


def to_networkx(g: Graph) -> nx.Graph:
    """The proper edges of g as a networkx graph; the loops stay implicit."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.sorted_edges())
    return h


def sorted_pairs(edges) -> list[tuple[str, str]]:
    return sorted(tuple(sorted(e)) for e in edges)


@given(graphs(max_vertices=12))
@settings(max_examples=100)
def test_components_agree_with_networkx(g):
    h = to_networkx(g)
    comp = g.components()
    assert comp.count == nx.number_connected_components(h)
    assert comp.blocks == tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(h)))
    assert comp == Partition(nx.connected_components(h), g.vertices)


@given(graphs_with_partitions(max_vertices=12))
@settings(max_examples=100)
def test_quotient_agrees_with_networkx(gp):
    g, p = gp
    q = nx.quotient_graph(to_networkx(g), [set(block) for block in p.blocks], relabel=False)
    q = nx.relabel_nodes(q, {block: "[" + min(block) + "]" for block in q.nodes})
    result = quotient(g, p).quotient
    assert result.vertices == tuple(sorted(q.nodes))
    assert result.sorted_edges() == sorted_pairs(q.edges)


def test_isomorphism_search_agrees_with_networkx():
    # every ordered pair of labeled graphs on up to 4 vertices with equal
    # vertex and edge counts; each witness must carry edges onto edges
    by_size: dict[tuple[int, int], list] = {}
    for g in enumerate_graphs(4):
        by_size.setdefault((len(g.vertices), len(g.sorted_edges())), []).append((g, to_networkx(g)))
    pairs = isomorphic = 0
    for same in by_size.values():
        for g1, h1 in same:
            for g2, h2 in same:
                witness = find_isomorphism(g1, g2)
                assert (witness is not None) == nx.is_isomorphic(h1, h2), (g1.sorted_edges(), g2.sorted_edges())
                if witness is not None:
                    assert sorted(witness.values()) == list(g2.vertices)
                    images = [(witness[u], witness[v]) for u, v in g1.sorted_edges()]
                    assert sorted_pairs(images) == g2.sorted_edges()
                    isomorphic += 1
                pairs += 1
    assert (pairs, isomorphic) == (947, 579)


def test_automorphism_groups_agree_with_networkx():
    graphs = list(enumerate_graphs(5))
    for g in graphs:
        h = to_networkx(g)
        isomorphisms = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert isomorphisms == len(perms.generated_elements(perms.automorphism_group(g))), g.sorted_edges()
    assert len(graphs) == 1099


def cycle(labels: str) -> Graph:
    return Graph(list(labels), [(a, b) for a, b in zip(labels, labels[1:] + labels[0])])


def test_isomorphism_search_refuses_graphs_its_prechecks_pass():
    # equal vertex counts, edge counts and degree sequences, yet not isomorphic
    pairs = [
        (cycle("abcdef"), Graph(list("abcdef"), [*cycle("abc").sorted_edges(), *cycle("def").sorted_edges()])),
        (Graph(list("abcde"), list(zip("abcd", "bcde"))), Graph(list("abcde"), [*cycle("abc").sorted_edges(), ("d", "e")])),
    ]
    for g1, g2 in pairs:
        assert sorted(map(len, map(g1.neighborhood, g1.vertices))) == sorted(map(len, map(g2.neighborhood, g2.vertices)))
        assert len(g1.sorted_edges()) == len(g2.sorted_edges())
        assert not nx.is_isomorphic(to_networkx(g1), to_networkx(g2))
        assert find_isomorphism(g1, g2) is None
