from __future__ import annotations

import itertools
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import (
    Graph,
    HomMap,
    HypothesisError,
    Partition,
    classify,
    find_isomorphism,
    is_complete,
    is_locally_bijective,
    is_locally_injective,
    is_locally_strong,
    is_locally_surjective,
    is_pseudo_covering,
    is_surjective,
)
from quograph import (
    PermGroup,
    admissible_components,
    automorphism_group,
    io,
    is_component_equitable,
    is_consistent,
    is_orbit_map,
    is_tame,
    quotient,
    verify_automorphisms,
)
from quograph.verify import (
    SweepConfig,
    enumerate_graphs,
    enumerate_homs,
    set_partitions,
)

from conftest import homomorphisms, orbit_instances, projections, vertex_maps
from golden import GOLDEN_CASES, MAP_REFUSALS, two_arcs_projection
from reference import (
    cell_scan_is_tame,
    factorize,
    fibre_count_is_component_equitable,
    fibre_scan_admissible_components,
    fibre_scan_is_locally_strong,
    is_hom,
    loop_is_locally_injective,
    loop_is_locally_surjective,
    orbit_instances_for,
    partition_of_map,
    random_orbit_instance,
    two_loop_is_consistent,
)

# Each class read from the shared local pass, next to its separate oracle.
LOCAL_CLASSES = [
    (is_locally_surjective, loop_is_locally_surjective),
    (is_locally_injective, loop_is_locally_injective),
    (is_locally_strong, fibre_scan_is_locally_strong),
]


class TestHomMap:
    def test_partial_map_rejected(self):
        src, tgt = Graph(["a", "b"], []), Graph(["x"], [])
        with pytest.raises(ValueError):
            HomMap(src, tgt, {"a": "x"})

    def test_unknown_source_vertex_rejected(self):
        src, tgt = Graph(["a"], []), Graph(["x"], [])
        with pytest.raises(ValueError):
            HomMap(src, tgt, {"a": "x", "q": "x"})

    def test_unknown_image_rejected(self):
        src, tgt = Graph(["a"], []), Graph(["x"], [])
        with pytest.raises(ValueError):
            HomMap(src, tgt, {"a": "w"})

    @pytest.mark.parametrize("sources,targets,mapping,message", MAP_REFUSALS)
    def test_refusal_message(self, sources, targets, mapping, message):
        with pytest.raises(ValueError) as exc:
            HomMap(Graph(sources, []), Graph(targets, []), mapping)
        assert str(exc.value) == message

    def test_fibres_sorted_and_queryable(self):
        src = Graph(["a", "b", "c"], [])
        tgt = Graph(["x", "y"], [])
        m = HomMap(src, tgt, {"a": "x", "c": "x", "b": "y"})
        assert m.fibre("x") == ("a", "c")
        assert m.fibre("y") == ("b",)
        assert m.image == frozenset({"x", "y"})

    def test_fibre_of_unhit_vertex_is_empty(self):
        src = Graph(["a"], [])
        tgt = Graph(["x", "y"], [])
        m = HomMap(src, tgt, {"a": "x"})
        assert m.fibre("y") == ()
        with pytest.raises(ValueError):
            m.fibre("nope")


class TestValidateHom:
    """``HomMap`` checks edge preservation once, when it is built."""

    NOT_A_HOM = "map is not a homomorphism (an edge is not preserved)"

    def test_edge_to_edge_is_valid(self):
        src = Graph(["a", "b"], [("a", "b")])
        tgt = Graph(["x", "y"], [("x", "y")])
        assert is_complete(HomMap(src, tgt, {"a": "x", "b": "y"}))

    def test_edge_collapsed_to_loop_is_valid(self):
        src = Graph(["a", "b"], [("a", "b")])
        tgt = Graph(["x", "y"], [])
        assert not is_surjective(HomMap(src, tgt, {"a": "x", "b": "x"}))

    def test_edge_to_non_edge_is_invalid(self):
        src = Graph(["a", "b"], [("a", "b")])
        tgt = Graph(["x", "y"], [])
        with pytest.raises(HypothesisError) as exc:
            HomMap(src, tgt, {"a": "x", "b": "y"})
        assert str(exc.value) == self.NOT_A_HOM

    def test_loader_refuses_invalid_maps(self):
        # the map loader builds a HomMap, so no predicate ever sees a map
        # that does not preserve edges
        src = Graph(["a", "b"], [("a", "b")])
        tgt = Graph(["x", "y"], [])
        with pytest.raises(HypothesisError, match=r"^map is not a homomorphism"):
            io.hom_from_dict({"map": {"a": "x", "b": "y"}}, src, tgt)

    @given(vertex_maps())
    def test_matches_neighborhood_formulation(self, data):
        # edge preservation is equivalent to m(N(x)) being inside N(m(x))
        src, tgt, mapping = data
        nested = all(
            {mapping[u] for u in src.neighborhood(x)} <= tgt.neighborhood(mapping[x])
            for x in src.vertices
        )
        assert is_hom(src, tgt, mapping) == nested


class TestGoldenClassifications:
    @pytest.mark.parametrize("name,builder,expected", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_full_membership_profile(self, name, builder, expected):
        assert asdict(classify(builder())) == expected

    def test_identity_map_is_everything(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        report = classify(HomMap(g, g, {v: v for v in g.vertices}))
        assert report.isomorphism and report.locally_bijective and report.pseudo_covering
        assert report.equitable and report.component_equitable and report.tame


class TestClassInterplay:
    def test_exhaustive_small_sweep_respects_definitions(self):
        smalls = list(enumerate_graphs(3))
        for src in smalls:
            for tgt in smalls:
                for mapping in enumerate_homs(src, tgt):
                    m = HomMap(src, tgt, mapping)
                    assert is_locally_bijective(m) == (
                        is_locally_surjective(m) and is_locally_injective(m)
                    )
                    assert is_pseudo_covering(m) == (is_locally_strong(m) and is_surjective(m))
                    classify(m)  # raises InternalCheckError on any broken implication

    @given(projections())
    def test_projections_are_complete_and_surjective(self, m):
        assert is_complete(m) and is_surjective(m)


class TestLocallyStrongOracle:
    """The one local pass against a separate oracle for each class it yields:
    the fibre scan of the definition for locally strong, and the earlier
    per-class loops for locally surjective and locally injective."""

    @staticmethod
    def check(m, order):
        """Ask the predicates in ``order`` twice: the first call on the map
        fills its cache, every later call reads it."""
        expected = tuple(oracle(m) for _, oracle in LOCAL_CLASSES)
        for i in order + order:
            assert LOCAL_CLASSES[i][0](m) == expected[i]
        return expected

    @given(homomorphisms(), st.permutations(range(len(LOCAL_CLASSES))))
    @settings(max_examples=300)
    def test_agrees_with_fibre_scan(self, m, order):
        self.check(m, order)

    def test_agrees_on_every_small_homomorphism(self):
        rng = random.Random(3)
        smalls = list(enumerate_graphs(3))
        seen, strong_and_onto = set(), set()
        for src in smalls:
            for tgt in smalls:
                for mapping in enumerate_homs(src, tgt):
                    m = HomMap(src, tgt, mapping)
                    order = rng.sample(range(len(LOCAL_CLASSES)), len(LOCAL_CLASSES))
                    classes = self.check(m, order)
                    seen.add(classes)
                    strong_and_onto.add((classes[2], is_surjective(m)))
        # locally strong answers both ways on surjective and on other maps
        assert strong_and_onto == {(True, True), (True, False), (False, True), (False, False)}
        # every (surjective, injective, strong) triple allowed by
        # "locally surjective implies locally strong" occurs
        assert seen == {
            (sur, inj, strong)
            for sur in (True, False)
            for inj in (True, False)
            for strong in (True, False)
            if strong or not sur
        }


class TestFibreTableOracles:
    """Tameness, component equitability, the admissible components and group
    consistency, each against the earlier routine that scanned the fibres
    itself."""

    @staticmethod
    def check(m, grp, verdicts):
        assert is_tame(m) == cell_scan_is_tame(m.source, partition_of_map(m))
        assert is_component_equitable(m) == fibre_count_is_component_equitable(m)
        for y in m.target.vertices:
            assert admissible_components(m, y) == fibre_scan_admissible_components(m, y)
        consistent = is_consistent(m, grp)
        assert consistent == two_loop_is_consistent(m, grp)
        verdicts.add((is_tame(m), is_component_equitable(m), consistent))

    def test_every_map_of_the_small_sweep(self):
        cfg = SweepConfig(max_source_vertices=4, max_target_vertices=3)
        targets = list(enumerate_graphs(cfg.max_target_vertices))
        verdicts = set()
        for src in enumerate_graphs(cfg.max_source_vertices):
            grp = automorphism_group(src)
            for tgt in targets:
                for mapping in enumerate_homs(src, tgt):
                    self.check(HomMap(src, tgt, mapping), grp, verdicts)
        assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {v[2] for v in verdicts} == {True, False}

    def test_random_orbit_instances(self):
        verdicts = set()
        for seed in range(50):
            inst = random_orbit_instance(random.Random(seed))
            g = inst.m.source
            self.check(inst.m, inst.grp, verdicts)
            self.check(inst.m, PermGroup(g.vertex_set, []), verdicts)
            for cells in (Partition.singletons(g.vertex_set), Partition([g.vertices], g.vertex_set)):
                self.check(quotient(g, cells).projection, inst.grp, verdicts)
        assert {v[2] for v in verdicts} == {True, False}


    @pytest.mark.parametrize(
        "edges, mapping, tame, equitable",
        [
            # the fibre of x meets one component, then y's meets two unequally
            ([("c", "d")], {"a": "x", "b": "y", "c": "y", "d": "y"}, False, False),
            # y's fibre meets two components unequally, then x's meets one
            ([("c", "d")], {"a": "y", "b": "x", "c": "y", "d": "y"}, False, False),
            # x's fibre meets one component, y's meets two equally
            ([], {"a": "x", "b": "y", "c": "y"}, False, True),
            # every fibre meets one component
            ([("a", "b"), ("b", "c")], {"a": "x", "b": "y", "c": "x"}, True, True),
        ],
    )
    def test_fibres_meeting_one_component_or_several(self, edges, mapping, tame, equitable):
        m = HomMap(Graph(list(mapping), edges), Graph(["x", "y"], [("x", "y")]), mapping)
        assert (is_tame(m), is_component_equitable(m)) == (tame, equitable)
        assert cell_scan_is_tame(m.source, partition_of_map(m)) == tame
        assert fibre_count_is_component_equitable(m) == equitable

    @given(homomorphisms(max_source=12, max_target=4))
    @settings(max_examples=150, deadline=None)
    def test_random_maps_against_the_label_oracles(self, m):
        assert is_tame(m) == cell_scan_is_tame(m.source, partition_of_map(m))
        assert is_component_equitable(m) == fibre_count_is_component_equitable(m)


class TestOrbitRepresentativePass:
    """``classify`` with a group reads an orbit map's local classes off one
    member per fibre and takes equitability from the group.  Each report must
    equal, field by field, the full passes of ``classify`` with no group on a
    second fresh map, with ``orbit`` set by ``is_orbit_map``."""

    @staticmethod
    def check(m, grp) -> bool:
        report = asdict(classify(HomMap(m.source, m.target, m.mapping), grp))
        fresh = HomMap(m.source, m.target, m.mapping)
        assert report == asdict(replace(classify(fresh), orbit=is_orbit_map(fresh, grp)))
        return report["orbit"]

    @staticmethod
    def non_automorphism(g):
        """The first transposition of g that is not an automorphism, or None."""
        for u, v in itertools.combinations(g.vertices, 2):
            swap = {x: {u: v, v: u}.get(x, x) for x in g.vertices}
            if not verify_automorphisms(g, PermGroup(g.vertex_set, [swap])):
                return swap
        return None

    def check_instance(self, inst) -> tuple[bool, bool]:
        """The orbit group, then both fallbacks where they apply; returns which applied."""
        assert self.check(inst.m, inst.grp) is True
        g = inst.m.source
        trivial = len(inst.m.fibres) < len(g.vertices)  # a fibre the trivial group cannot fill
        if trivial:
            assert self.check(inst.m, PermGroup(g.vertex_set, [])) is False
        swap = self.non_automorphism(g)
        if swap is not None:
            assert self.check(inst.m, PermGroup(g.vertex_set, [*inst.grp.generators, swap])) is False
        return trivial, swap is not None

    def test_every_orbit_instance_on_five_vertices(self):
        applied = [self.check_instance(inst) for g in enumerate_graphs(5) for inst in orbit_instances_for(g)]
        assert len(applied) == 3857
        assert any(t for t, _ in applied) and any(s for _, s in applied)

    @given(orbit_instances())
    @settings(max_examples=150)
    def test_random_orbit_instances(self, inst):
        self.check_instance(inst)

    def test_fallback_on_every_quotient_of_four_vertices(self):
        # Most of these maps are not orbit maps of any group, so the full
        # passes must run whenever the orbit test fails.
        verdicts = set()
        for g in enumerate_graphs(4):
            groups = [PermGroup(g.vertex_set, [])]
            swap = self.non_automorphism(g)
            if swap is not None:
                groups.append(PermGroup(g.vertex_set, [swap]))
            for cells in set_partitions(g.vertices):
                m = quotient(g, Partition(cells, g.vertex_set)).projection
                for grp in groups:
                    orbit = self.check(m, grp)
                    verdicts.add((orbit, classify(m).equitable))
        assert verdicts == {(True, True), (False, True), (False, False)}


class TestFactorize:
    def test_composition_recovers_map(self):
        m = two_arcs_projection()
        proj, inj = factorize(m)
        for v in m.source.vertices:
            assert inj.mapping[proj.mapping[v]] == m.mapping[v]

    def test_injection_is_injective(self):
        m = two_arcs_projection()
        _, inj = factorize(m)
        assert len(set(inj.mapping.values())) == len(inj.mapping)

    def test_complete_map_factor_is_isomorphism(self):
        # when the map is complete, the injection part maps the fibre
        # quotient isomorphically onto the target
        m = two_arcs_projection()
        _, inj = factorize(m)
        assert find_isomorphism(inj.source, m.target) is not None
        assert classify(inj).isomorphism
