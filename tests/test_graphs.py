from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import Graph, Partition, find_isomorphism
from quograph.verify import oracle_component_count

from conftest import graphs
from golden import GRAPH_REFUSALS


def path(labels):
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def cycle(labels):
    return Graph(labels, [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))])


class TestConstruction:
    def test_vertices_sorted_and_edges_normalized(self):
        g = Graph(["b", "a", "c"], [("c", "a")])
        assert g.vertices == ("a", "b", "c")
        assert g.proper_edges == frozenset({frozenset({"a", "c"})})

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            Graph([], [])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"], [])

    def test_non_string_label_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a", 3], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [("a", "z")])

    def test_explicit_loop_rejected(self):
        # loops are implicit; writing one down is a format error
        with pytest.raises(ValueError):
            Graph(["a", "b"], [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("vertices,edges,message", GRAPH_REFUSALS)
    def test_refusal_message(self, vertices, edges, message):
        with pytest.raises(ValueError) as exc:
            Graph(vertices, [tuple(e) for e in edges])
        assert str(exc.value) == message

    def test_equality_ignores_edge_order(self):
        g1 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g2 = Graph(["c", "b", "a"], [("c", "b"), ("b", "a")])
        assert g1 == g2 and hash(g1) == hash(g2)


class TestNeighborhoods:
    def test_closed_neighborhood_contains_vertex(self):
        g = path(["a", "b", "c"])
        assert g.neighborhood("a") == frozenset({"a", "b"})
        assert g.neighborhood("b") == frozenset({"a", "b", "c"})

    def test_implicit_loop_in_has_edge(self):
        g = Graph(["a", "b"], [])
        assert g.has_edge("a", "a")
        assert not g.has_edge("a", "b")

    def test_has_edge_symmetric(self):
        g = Graph(["a", "b"], [("a", "b")])
        assert g.has_edge("a", "b") and g.has_edge("b", "a")

    def test_has_edge_unknown_vertex(self):
        with pytest.raises(ValueError):
            Graph(["a"], []).has_edge("a", "z")

    @given(graphs())
    def test_every_vertex_in_own_neighborhood(self, g):
        for v in g.vertices:
            assert v in g.neighborhood(v)


class TestComponents:
    def test_edgeless_graph_splits_into_singletons(self):
        comp = Graph(["a", "b", "c"], []).components()
        assert comp.count == 3
        assert comp.blocks == (("a",), ("b",), ("c",))

    def test_path_is_connected(self):
        assert path(["a", "b", "c", "d"]).components().count == 1

    def test_blocks_ordered_by_smallest_member(self):
        g = Graph(["1a", "1b", "2", "3"], [("1a", "3"), ("1b", "2")])
        comp = g.components()
        assert comp.blocks == (("1a", "3"), ("1b", "2"))
        assert comp.block_containing("2") == ("1b", "2")
        assert [block[0] for block in comp.blocks] == ["1a", "1b"]

    def test_block_of_indexes_match(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b")])
        comp = g.components()
        assert comp.block_of["a"] == comp.block_of["b"]
        assert comp.block_of["c"] != comp.block_of["d"]

    @given(graphs())
    def test_agrees_with_union_find_oracle(self, g):
        assert g.components().count == oracle_component_count(g)

    @given(graphs())
    def test_blocks_partition_vertices_with_no_cross_edges(self, g):
        comp = g.components()
        seen = [v for b in comp.blocks for v in b]
        assert sorted(seen) == list(g.vertices)
        for e in g.proper_edges:
            u, v = tuple(e)
            assert comp.block_of[u] == comp.block_of[v]

    @given(graphs())
    def test_components_are_the_checked_partition_of_their_blocks(self, g):
        # components() skips Partition's checks; the checked constructor,
        # given the same blocks, must build an equal partition with the
        # same block ordinals.
        comp = g.components()
        checked = Partition(comp.blocks, g.vertex_set)
        assert type(comp) is Partition
        assert comp == checked and comp.block_of == checked.block_of


class TestInduced:
    def test_keeps_internal_edges_only(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        sub = g.induced({"a", "b"})
        assert sub.vertices == ("a", "b")
        assert sub.proper_edges == frozenset({frozenset({"a", "b"})})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a"], []).induced({"a", "z"})

    @given(graphs())
    def test_component_blocks_induce_connected_subgraphs(self, g):
        for block in g.components().blocks:
            assert g.induced(block).components().count == 1

    def test_equal_subsets_share_one_subgraph(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
        assert g.induced(["a", "b"]) is g.induced({"b", "a"})
        assert g.induced(("b", "a")) is g.induced(frozenset({"a", "b"}))
        block = g.components().blocks[0]
        assert g.induced(block) is g.induced(list(block)) is g.induced(set(block))
        assert g.induced(block) is not g.induced(["a", "b"])

    @given(graphs(), st.data())
    def test_cached_subgraph_matches_a_fresh_build(self, g, data):
        # later rounds may draw subsets an earlier round already cached
        for _ in range(4):
            sub = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
            fresh = Graph(sorted(sub), [e for e in g.proper_edges if e <= sub])
            for given_as in (sorted(sub), sub, tuple(sorted(sub, reverse=True))):
                got = g.induced(given_as)
                assert got.vertices == fresh.vertices
                assert got.proper_edges == fresh.proper_edges

    @pytest.mark.parametrize(
        "subset, message",
        [(set(), "cannot induce a subgraph on an empty vertex set"), (["a", "z"], "unknown vertex 'z'")],
    )
    def test_refusals_are_never_cached(self, subset, message):
        g = Graph(["a", "b", "c"], [("a", "b")])
        exact = f"^{re.escape(message)}$"
        for _ in range(2):
            with pytest.raises(ValueError, match=exact):
                g.induced(subset)
        sub = g.induced(["b", "a"])
        assert sub.vertices == ("a", "b") and sub.proper_edges == g.proper_edges
        with pytest.raises(ValueError, match=exact):  # and again with a warm cache
            g.induced(subset)


class TestIsomorphism:
    def test_relabelled_cycle_found(self):
        g1 = cycle(["a", "b", "c", "d"])
        g2 = cycle(["w", "x", "y", "z"])
        m = find_isomorphism(g1, g2)
        assert m is not None
        assert sorted(m) == ["a", "b", "c", "d"]
        back = {w: v for v, w in m.items()}
        for e in g2.proper_edges:
            u, v = tuple(e)
            assert g1.has_edge(back[u], back[v])

    def test_cycle_vs_path_rejected(self):
        assert find_isomorphism(cycle(["a", "b", "c", "d"]), path(["w", "x", "y", "z"])) is None

    def test_size_mismatch_rejected(self):
        assert find_isomorphism(Graph(["a"], []), Graph(["a", "b"], [])) is None

    def test_triangle_vs_path_rejected(self):
        tri = cycle(["a", "b", "c"])
        assert find_isomorphism(tri, path(["x", "y", "z"])) is None

    @given(graphs(max_vertices=5), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_shuffled_relabelling_is_recovered(self, g, rnd):
        new_labels = [f"w{i}" for i in range(len(g.vertices))]
        rnd.shuffle(new_labels)
        relabel = dict(zip(g.vertices, new_labels))
        h = Graph(
            list(relabel.values()),
            [(relabel[u], relabel[v]) for e in g.proper_edges for u, v in [tuple(e)]],
        )
        m = find_isomorphism(g, h)
        assert m is not None
        for e in g.proper_edges:
            u, v = tuple(e)
            assert h.has_edge(m[u], m[v])
        assert len(set(m.values())) == len(g.vertices)
