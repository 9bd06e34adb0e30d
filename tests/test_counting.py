from __future__ import annotations

import pytest
from hypothesis import given, settings

from quograph import (
    Graph,
    HomMap,
    HypothesisError,
    Partition,
    PermGroup,
    Permutation,
    admissible_components,
    component_iso_check,
    connectedness_criterion,
    count_admissible,
    count_ce,
    count_orbit,
    image_of_component,
    is_pseudo_covering,
    multiplicity,
    orbit_partition,
    preimage_of_component_vertices,
    quotient,
)
from quograph.verify import enumerate_graphs, enumerate_homs, oracle_component_count

from conftest import orbit_instances
from reference import every_choice_terms, rebuilding_ratio_count
from golden import (
    balanced_two_component_map,
    lopsided_two_component_map,
    prism_and_cube_map,
    two_arcs_graph,
    two_arcs_projection,
)


def two_triangles():
    g = Graph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
    )
    swap = Permutation({f"a{i}": f"b{i}" for i in range(3)} | {f"b{i}": f"a{i}" for i in range(3)})
    grp = PermGroup(g.vertex_set, [swap])
    m = quotient(g, orbit_partition(grp)).projection
    return g, grp, m


def hexagon_antipodal():
    g = Graph([str(i) for i in range(6)], [(str(i), str((i + 1) % 6)) for i in range(6)])
    anti = Permutation({str(i): str((i + 3) % 6) for i in range(6)})
    grp = PermGroup(g.vertex_set, [anti])
    m = quotient(g, orbit_partition(grp)).projection
    return g, grp, m


class TestMultiplicity:
    def test_counts_fibre_members_inside_subset(self):
        m = balanced_two_component_map()
        assert multiplicity(m, ["1", "2", "5", "6"], "y") == 2
        assert multiplicity(m, m.source.vertices, "y") == 4
        assert multiplicity(m, ["5", "6"], "y") == 0

    def test_unknown_vertices_rejected(self):
        m = balanced_two_component_map()
        with pytest.raises(ValueError):
            multiplicity(m, ["nope"], "y")
        with pytest.raises(ValueError):
            multiplicity(m, ["1"], "nope")


class TestAdmissibleComponents:
    def test_both_components_feed_each_target_vertex(self):
        m = balanced_two_component_map()
        assert admissible_components(m, "y") == [
            ("1", "2", "5", "6"),
            ("3", "4", "7", "8"),
        ]

    def test_empty_for_unhit_vertex(self):
        src = Graph(["a"], [])
        tgt = Graph(["x", "y"], [])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x"})
        assert admissible_components(m, "y") == []


class TestImageAndPreimage:
    def test_component_covers_its_target_component(self):
        m = balanced_two_component_map()
        assert image_of_component(m, ("1", "2", "5", "6")) == ("y", "z")

    def test_preimage_unions_admissible_components(self):
        m = balanced_two_component_map()
        pre = preimage_of_component_vertices(m, ("1", "2", "5", "6"))
        assert pre == frozenset(m.source.vertices)

    def test_non_component_argument_rejected(self):
        m = balanced_two_component_map()
        with pytest.raises(ValueError):
            image_of_component(m, ("1", "2"))

    def test_requires_locally_surjective(self):
        m = two_arcs_projection()
        with pytest.raises(HypothesisError):
            image_of_component(m, ("1a", "3"))


class TestCountAdmissible:
    def test_lopsided_example_totals_two(self):
        bd = count_admissible(lopsided_two_component_map())
        assert bd.total == 2
        assert [t.value for t in bd.terms] == [2]
        assert bd.terms[0].representative == "y"

    def test_prism_cube_example_totals_two(self):
        assert count_admissible(prism_and_cube_map()).total == 2

    def test_disconnected_target_sums_per_component(self):
        src = Graph(["a", "b", "c", "d"], [])
        tgt = Graph(["x", "y"], [])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x", "b": "x", "c": "y", "d": "y"})
        bd = count_admissible(m)
        assert [t.value for t in bd.terms] == [2, 2]
        assert bd.total == 4

    def test_rejects_non_locally_surjective(self):
        with pytest.raises(HypothesisError):
            count_admissible(two_arcs_projection())

    def test_ratio_fields_absent_in_terms(self):
        bd = count_admissible(lopsided_two_component_map())
        d = bd.terms[0].as_dict()
        assert d["kX"] is None and d["kC"] is None and d["component_leader"] is None


class TestCountOrbit:
    def test_two_triangles_give_two(self):
        g, grp, m = two_triangles()
        bd = count_orbit(m, grp)
        assert bd.total == 2
        term = bd.terms[0].as_dict()
        assert term["kX"] == 2 and term["kC"] == 1 and term["value"] == 2

    def test_hexagon_folds_to_one(self):
        g, grp, m = hexagon_antipodal()
        bd = count_orbit(m, grp)
        assert bd.total == 1
        term = bd.terms[0].as_dict()
        assert term["kX"] == 2 and term["kC"] == 2 and term["value"] == 1

    @pytest.mark.parametrize("case", [two_triangles, hexagon_antipodal])
    def test_every_choice_gives_the_walk_term(self, case):
        g, grp, m = case()
        bd = count_orbit(m, grp)
        assert every_choice_terms(m) == [{t.value} for t in bd.terms]

    def test_rejects_group_that_does_not_match_fibres(self):
        g, grp, m = two_triangles()
        other = PermGroup(g.vertex_set, [])
        with pytest.raises(HypothesisError):
            count_orbit(m, other)

    def test_rejects_incomplete_map(self):
        src = Graph(["a"], [])
        tgt = Graph(["x", "y"], [("x", "y")])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x"})
        with pytest.raises(HypothesisError):
            count_orbit(m, PermGroup(src.vertex_set, []))

    @given(orbit_instances())
    @settings(max_examples=30, deadline=None)
    def test_total_matches_oracle_on_random_instances(self, inst):
        bd = count_orbit(inst.m, inst.grp)
        assert bd.total == oracle_component_count(inst.m.source)
        assert every_choice_terms(inst.m) == [{t.value} for t in bd.terms]


PIECES = {"edge": [(0, 1)], "triangle": [(0, 1), (0, 2), (1, 2)], "path": [(0, 1), (1, 2), (2, 3)]}


def many_components(count=300):
    """``count`` pieces (edge, triangle, 3-path in turn), each present twice;
    the group swaps the two copies and the map folds them together."""
    vertices, edges = [], []
    for i in range(count):
        piece = PIECES[("edge", "triangle", "path")[i % 3]]
        size = max(max(e) for e in piece) + 1
        for copy in "ab":
            vertices += [f"{copy}{i:03d}.{j}" for j in range(size)]
            edges += [(f"{copy}{i:03d}.{u}", f"{copy}{i:03d}.{v}") for u, v in piece]
    g = Graph(vertices, edges)
    swap = Permutation({v: {"a": "b", "b": "a"}[v[0]] + v[1:] for v in g.vertices})
    grp = PermGroup(g.vertex_set, [swap])
    return g, grp, quotient(g, orbit_partition(grp)).projection


class TestRatioWalk:
    def test_unrandomized_representatives_are_component_leaders(self):
        g, grp, m = many_components()
        leaders = [block[0] for block in m.target.components().blocks]
        assert len(leaders) == 300
        for bd in (count_ce(m), count_orbit(m, grp)):
            assert [t.representative for t in bd.terms] == leaders
            assert bd.terms == rebuilding_ratio_count(m).terms
            assert bd.total == 600


class TestCountCe:
    def test_two_triangles_without_group(self):
        g, _, m = two_triangles()
        assert count_ce(m).total == 2

    def test_balanced_example_counts_components(self):
        assert count_ce(balanced_two_component_map()).total == 2

    def test_rejects_unbalanced_multiplicities(self):
        with pytest.raises(HypothesisError):
            count_ce(lopsided_two_component_map())

    def test_rejects_non_locally_surjective(self):
        with pytest.raises(HypothesisError):
            count_ce(two_arcs_projection())


class TestComponentIsoCheck:
    def test_triangle_copies_are_recognized(self):
        g, grp, m = two_triangles()
        assert component_iso_check(m, ("a0", "a1", "a2"))

    def test_folded_hexagon_is_not_a_copy(self):
        g, grp, m = hexagon_antipodal()
        assert not component_iso_check(m, tuple(sorted(g.vertices)))

    def test_requires_pseudo_covering(self):
        with pytest.raises(HypothesisError):
            component_iso_check(two_arcs_projection(), ("1a", "3"))


class TestConnectednessCriterion:
    def test_hexagon_fold_proves_connectedness(self):
        g, grp, m = hexagon_antipodal()
        p = Partition([["0", "3"], ["1", "4"], ["2", "5"]], g.vertex_set)
        assert connectedness_criterion(quotient(g, p).projection) is True

    def test_two_triangles_stay_inconclusive(self):
        # quotient is connected and pseudo-covered, but every cell straddles
        # both components, so the criterion cannot certify anything
        g, _, _ = two_triangles()
        p = Partition([["a0", "b0"], ["a1", "b1"], ["a2", "b2"]], g.vertex_set)
        assert connectedness_criterion(quotient(g, p).projection) is False

    def test_rejects_wild_projection(self):
        g = two_arcs_graph()
        p = Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)
        with pytest.raises(HypothesisError):
            connectedness_criterion(quotient(g, p).projection)

    def test_rejects_disconnected_quotient(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        p = Partition([["a", "b"], ["c", "d"]], g.vertex_set)
        with pytest.raises(HypothesisError):
            connectedness_criterion(quotient(g, p).projection)

    def test_sound_on_pseudo_coverings_that_are_not_projections(self):
        # Targets keep their own labels, so no map here is a quotient
        # projection; a True verdict must still mean a connected source.
        targets = [t for t in enumerate_graphs(3) if t.components().count == 1]
        verdicts = {True: 0, False: 0}
        for g in enumerate_graphs(4):
            for t in targets:
                for mapping in enumerate_homs(g, t):
                    m = HomMap(g, t, mapping)
                    if not is_pseudo_covering(m):
                        continue
                    verdict = connectedness_criterion(m)
                    verdicts[verdict] += 1
                    if verdict:
                        assert oracle_component_count(g) == 1
        assert verdicts[True] and verdicts[False]
