from __future__ import annotations

import pytest
from hypothesis import given

from quograph import Graph, HomMap, Partition, classify, is_complete, is_equitable, is_tame
from quograph import quotient
from quograph.verify import enumerate_graphs, enumerate_homs, set_partitions

from conftest import graphs, graphs_with_partitions
from golden import BLOCK_REFUSALS, PARTITION_LOADER_REFUSALS, PARTITION_REFUSALS
from reference import list_row_is_equitable, partition_of_map


@pytest.fixture
def two_arcs():
    # the running 4-vertex example: two disjoint edges, cells {1a,1b},{2},{3}
    g = Graph(["1a", "1b", "2", "3"], [("1a", "3"), ("1b", "2")])
    p = Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)
    return g, p


class TestPartition:
    def test_cells_normalized_by_smallest_member(self):
        p = Partition([["c"], ["b", "a"]], {"a", "b", "c"})
        assert p.blocks == (("a", "b"), ("c",))
        assert p.block_containing("b") == ("a", "b")

    def test_singletons(self):
        p = Partition.singletons({"x", "y"})
        assert p.blocks == (("x",), ("y",))

    def test_overlapping_cells_rejected(self):
        with pytest.raises(ValueError):
            Partition([["a", "b"], ["b"]], {"a", "b"})

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            Partition([["a"]], {"a", "b"})

    def test_foreign_vertex_rejected(self):
        with pytest.raises(ValueError):
            Partition([["a", "z"]], {"a"})

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            Partition([["a"], []], {"a"})

    # the loader's rows last: Partition words a malformed block as the loader did
    @pytest.mark.parametrize("universe,cells,message", PARTITION_REFUSALS + BLOCK_REFUSALS + PARTITION_LOADER_REFUSALS)
    def test_refusal_message(self, universe, cells, message):
        with pytest.raises(ValueError) as exc:
            Partition(cells, universe)
        assert str(exc.value) == message

    def test_any_iterable_is_a_block(self):
        p = Partition([("b", "a"), {"c"}, iter(["d"])], ["a", "b", "c", "d"])
        assert p.blocks == (("a", "b"), ("c",), ("d",))

    def test_repeated_member_inside_a_cell_is_merged(self):
        p = Partition([["b", "a", "a"], ["c", "c"]], {"a", "b", "c"})
        assert p.blocks == (("a", "b"), ("c",))

    def test_equality_ignores_cell_order(self):
        u = {"a", "b", "c"}
        assert Partition([["a"], ["b", "c"]], u) == Partition([["c", "b"], ["a"]], u)


class TestQuotient:
    def test_two_arcs_collapse_to_path(self, two_arcs):
        g, p = two_arcs
        result = quotient(g, p)
        assert result.quotient.vertices == ("[1a]", "[2]", "[3]")
        assert result.quotient.proper_edges == frozenset(
            {frozenset({"[1a]", "[2]"}), frozenset({"[1a]", "[3]"})}
        )
        assert result.projection.mapping == {"1a": "[1a]", "1b": "[1a]", "2": "[2]", "3": "[3]"}

    def test_singleton_partition_copies_graph_shape(self):
        g = Graph(["a", "b"], [("a", "b")])
        result = quotient(g, Partition.singletons(g.vertex_set))
        assert len(result.quotient.vertices) == 2
        assert len(result.quotient.proper_edges) == 1

    def test_total_partition_collapses_to_point(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        result = quotient(g, Partition([["a", "b", "c"]], g.vertex_set))
        assert result.quotient.vertices == ("[a]",)
        assert result.quotient.proper_edges == frozenset()

    def test_universe_mismatch_rejected(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError):
            quotient(g, Partition([["a"]], {"a"}))

    @given(graphs_with_partitions())
    def test_projection_is_complete(self, gp):
        g, p = gp
        assert is_complete(quotient(g, p).projection)

    @given(graphs_with_partitions())
    def test_cell_adjacency_matches_member_adjacency(self, gp):
        g, p = gp
        result = quotient(g, p)
        proj = result.projection.mapping
        for c1 in p.blocks:
            for c2 in p.blocks:
                if c1 >= c2:
                    continue
                expected = any(g.has_edge(u, v) for u in c1 for v in c2)
                assert result.quotient.has_edge(proj[c1[0]], proj[c2[0]]) == expected


class TestTame:
    def test_cell_across_components_is_wild(self, two_arcs):
        g, p = two_arcs
        assert not is_tame(quotient(g, p).projection)

    def test_cells_inside_components_are_tame(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert is_tame(quotient(g, Partition([["a", "b"], ["c"], ["d"]], g.vertex_set)).projection)

    def test_component_partition_is_tame(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert is_tame(quotient(g, Partition([["a", "b"], ["c"]], g.vertex_set)).projection)

    @given(graphs_with_partitions())
    def test_tame_iff_component_count_preserved(self, gp):
        g, p = gp
        result = quotient(g, p)
        same = result.quotient.components().count == g.components().count
        assert is_tame(result.projection) == same


class TestEquitable:
    def test_antipodal_cells_of_hexagon_are_equitable(self):
        labels = [str(i) for i in range(6)]
        g = Graph(labels, [(str(i), str((i + 1) % 6)) for i in range(6)])
        p = Partition([[str(i), str(i + 3)] for i in range(3)], g.vertex_set)
        assert is_equitable(g, p)

    def test_two_arcs_cells_are_not_equitable(self, two_arcs):
        # 1a meets cell {2} zero times but 1b meets it once
        g, p = two_arcs
        assert not is_equitable(g, p)

    def test_singletons_always_equitable(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert is_equitable(g, Partition.singletons(g.vertex_set))

    @given(graphs())
    def test_total_partition_equitable_iff_constant_degree(self, g):
        p = Partition([list(g.vertices)], g.vertex_set)
        degrees = {len(g.neighborhood(v)) for v in g.vertices}
        assert is_equitable(g, p) == (len(degrees) == 1)

    @given(graphs_with_partitions())
    def test_matches_list_row_oracle(self, gp):
        g, p = gp
        assert is_equitable(g, p) == list_row_is_equitable(g, p)

    def test_matches_list_row_oracle_on_every_small_partition(self):
        checked = 0
        for g in enumerate_graphs(4):
            for cells in set_partitions(g.vertices):
                p = Partition(cells, g.vertex_set)
                assert is_equitable(g, p) == list_row_is_equitable(g, p), (g.sorted_edges(), p.blocks)
                checked += 1
        assert checked == 1 + 2 * 2 + 8 * 5 + 64 * 15

    def test_classify_matches_list_row_oracle_on_the_hom_sweep(self):
        targets = list(enumerate_graphs(3))
        checked = equitable = 0
        for src in enumerate_graphs(4):
            for tgt in targets:
                for mapping in enumerate_homs(src, tgt):
                    m = HomMap(src, tgt, mapping)
                    expected = list_row_is_equitable(src, partition_of_map(m))
                    assert classify(m).equitable == expected, mapping
                    checked += 1
                    equitable += expected
        assert (checked, equitable) == (21_387, 5_213)


class TestPartitionOfMap:
    def test_cells_are_nonempty_fibres(self):
        src = Graph(["a", "b", "c"], [])
        tgt = Graph(["x", "y", "z"], [])
        m = HomMap(src, tgt, {"a": "x", "b": "x", "c": "y"})
        p = partition_of_map(m)
        assert p.blocks == (("a", "b"), ("c",))
