from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings

import quograph.homs
from quograph import Graph, HomMap, InternalCheckError, Partition, classify, io, quotient
from quograph import verify
from quograph.verify import (
    CLAIM_KINDS,
    ClaimResult,
    SweepConfig,
    enumerate_graphs,
    enumerate_homs,
    oracle_component_count,
    replay_counterexample,
    run_suite,
    set_partitions,
    sweep_hom_claims,
)

from conftest import graphs
from golden import medium_test_graphs
from reference import is_hom, orbit_instances_for, random_orbit_instance

TINY = SweepConfig(max_source_vertices=3, max_target_vertices=2, random_instances=25, seed=1)


class TestOracle:
    @given(graphs())
    @settings(max_examples=80)
    def test_union_find_agrees_with_search(self, g):
        assert oracle_component_count(g) == g.components().count

    def test_isolated_vertices(self):
        g = Graph(["a", "b", "c"], [])
        assert oracle_component_count(g) == 3


class TestEnumeration:
    def test_graph_counts_follow_edge_subsets(self):
        assert len(list(enumerate_graphs(2))) == 1 + 2
        assert len(list(enumerate_graphs(3))) == 1 + 2 + 8

    def test_graphs_are_distinct(self):
        out = list(enumerate_graphs(3))
        assert len(set(out)) == len(out)

    @pytest.mark.parametrize("n,bell", [(3, 5), (4, 15), (5, 52)])
    def test_partition_counts_are_bell_numbers(self, n, bell):
        items = [str(i) for i in range(n)]
        parts = list(set_partitions(items))
        assert len(parts) == bell

    def test_edge_into_point_has_one_map(self):
        edge = Graph(["a", "b"], [("a", "b")])
        point = Graph(["x"], [])
        assert list(enumerate_homs(edge, point)) == [{"a": "x", "b": "x"}]

    def test_enumerated_maps_are_valid(self):
        src = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        tgt = Graph(["x", "y"], [("x", "y")])
        maps = list(enumerate_homs(src, tgt))
        assert maps
        for mapping in maps:
            assert is_hom(src, tgt, mapping)

    def test_backtracking_matches_brute_force_filter(self):
        # dual route: the constrained enumerator against the definition
        import itertools

        for src in enumerate_graphs(3):
            for tgt in enumerate_graphs(2):
                expected = 0
                for values in itertools.product(tgt.vertices, repeat=len(src.vertices)):
                    mapping = dict(zip(src.vertices, values))
                    if is_hom(src, tgt, mapping):
                        expected += 1
                assert len(list(enumerate_homs(src, tgt))) == expected


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert (cfg.max_source_vertices, cfg.max_target_vertices) == (5, 3)
        assert (cfg.random_instances, cfg.seed) == (1000, 42)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_source_vertices": 0},
            {"max_target_vertices": 0},
            {"random_instances": -1},
            {"max_source_vertices": 7},
            {"max_target_vertices": 4},
            {"random_instances": 1_000_001},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestSuite:
    def test_tiny_suite_passes_with_all_claims(self):
        report = run_suite(TINY)
        assert report.passed
        assert len(report.claims) == len(CLAIM_KINDS) == 25
        exercised = [c for c in report.claims if c.instances > 0]
        assert len(exercised) == len(report.claims)

    def test_reports_are_byte_identical_for_equal_configs(self):
        a = io.dumps(run_suite(TINY).as_dict())
        b = io.dumps(run_suite(TINY).as_dict())
        assert a == b
        c = io.dumps(run_suite(SweepConfig(3, 2, 25, 2)).as_dict())
        assert c != a

    def test_unknown_claim_subset_rejected(self):
        with pytest.raises(ValueError, match="unknown claim"):
            sweep_hom_claims(TINY, claims={"no_such_claim"})


class TestOneBuildPerObject:
    """The sweeps build one ``HomMap`` per object and never rebuild one."""

    @staticmethod
    def count_builds(monkeypatch, sweep, cfg):
        # every build, from a label mapping or from target positions, ends in _finish
        original = HomMap._finish
        builds = []

        def counted(self, *args, **kwargs):
            builds.append(None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(HomMap, "_finish", counted)
        sweep(cfg)
        return len(builds)

    def test_hom_sweep_builds_one_map_per_enumerated_map(self, monkeypatch):
        small = list(enumerate_graphs(3))
        maps = sum(1 for s in small for t in small for _ in enumerate_homs(s, t))
        assert maps == 1339
        assert self.count_builds(monkeypatch, sweep_hom_claims, SweepConfig(3, 3, 0, 1)) == maps

    def test_partition_sweep_builds_one_projection_per_pair_and_graph(self, monkeypatch):
        # 45 (graph, partition) pairs, plus the singleton quotient of each of
        # the 11 graphs
        builds = self.count_builds(monkeypatch, verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1))
        assert builds == 45 + 11


class TestMutationSensitivity:
    """Corrupting a predicate must surface as recorded, replayable failures."""

    @pytest.mark.parametrize(
        "predicate,claim",
        [
            ("is_locally_strong", "locally_surjective_implies_locally_strong"),
            ("is_pseudo_covering", "class_inclusion_chain"),
            ("_is_equitable", "class_inclusion_chain"),
            ("is_surjective", "locally_strong_matches_locally_surjective_when_surjective"),
            ("is_tame", "tame_pseudocover_component_bijection"),
            ("is_component_equitable", "multiplicity_ratio_formula"),
            ("is_locally_surjective", "component_migration"),
        ],
    )
    def test_broken_predicate_is_caught_and_replayed(self, predicate, claim):
        cfg = SweepConfig(3, 2, 0, 1)
        original = getattr(quograph.homs, predicate)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.homs, predicate, lambda *args: not original(*args))
            results = sweep_hom_claims(cfg, claims={claim})
            broken = results[claim]
            assert broken.failure_count > 0
            assert broken.failures
            failure = broken.failures[0]
            assert replay_counterexample(failure) is True
        # patch undone: the same recorded payload no longer violates anything
        assert replay_counterexample(failure) is False

    def test_broken_local_pass_is_caught_and_replayed(self):
        cfg = SweepConfig(3, 2, 0, 1)
        original = quograph.homs._local_classes

        def flipped_strong(m):
            surjective, injective, strong = original(m)
            return surjective, injective, not strong

        edge = Graph(["a", "b"], [("a", "b")])
        identity = HomMap(edge, edge, {"a": "a", "b": "b"})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.homs, "_local_classes", flipped_strong)
            results = sweep_hom_claims(
                cfg, claims={"locally_surjective_implies_locally_strong"}
            )
            broken = results["locally_surjective_implies_locally_strong"]
            assert broken.failure_count > 0
            failure = broken.failures[0]
            assert replay_counterexample(failure) is True
            with pytest.raises(InternalCheckError, match="locally surjective implies locally strong"):
                classify(identity)
        assert replay_counterexample(failure) is False
        assert classify(identity).locally_strong

    def test_broken_representative_pass_is_caught_and_replayed(self):
        # On an orbit map classify runs the local pass on one member per
        # fibre only; a wrong answer there must still trip the self-check.
        cfg = SweepConfig(3, 2, 0, 1)
        original = quograph.homs._local_pass

        def flipped_strong(m, vertices):
            surjective, injective, strong = original(m, vertices)
            return surjective, injective, not strong

        inst = next(orbit_instances_for(Graph(["a", "b"], [("a", "b")])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.homs, "_local_pass", flipped_strong)
            with pytest.raises(InternalCheckError, match="classification self-check failed"):
                classify(inst.m, inst.grp)
            results = verify.sweep_orbit_claims(cfg, claims={"orbit_projection_consistent"})
            broken = results["orbit_projection_consistent"]
            assert broken.failure_count > 0
            failure = broken.failures[0]
            assert failure["detail"].startswith("exception: classification self-check failed")
            assert replay_counterexample(failure) is True
        assert replay_counterexample(failure) is False
        assert classify(inst.m, inst.grp).locally_strong

    def test_choice_dependent_multiplicity_is_caught_and_replayed(self):
        # Off by one only away from the first admissible component: the
        # default walk's total stays right, so only the every-choice check
        # can see it.
        cfg = SweepConfig(3, 2, 0, 1)
        original = quograph.counting.multiplicity

        def off_after_first(m, u, y):
            first = quograph.counting.admissible_components(m, y)[0]
            return original(m, u, y) + (tuple(u) != first)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.counting, "multiplicity", off_after_first)
            results = verify.sweep_orbit_claims(cfg, claims={"orbit_multiplicity_total"})
            broken = results["orbit_multiplicity_total"]
            assert broken.failure_count > 0
            assert not any("oracle" in f["detail"] for f in broken.failures)
            failure = broken.failures[0]
            assert replay_counterexample(failure) is True
        assert replay_counterexample(failure) is False

    def test_broken_copy_test_is_caught_through_cached_subgraphs(self):
        # Each source graph serves many maps in this sweep, so most of the
        # subgraphs the isomorphism search compares come from the cache of
        # `Graph.induced`: a warm cache must not hide a broken predicate.
        cfg = SweepConfig(3, 2, 0, 1)
        original = quograph.counting.component_iso_check
        original_induced = Graph.induced
        builds = []

        def recorded_induced(g, subset):
            builds.append((g, frozenset(subset)))
            return original_induced(g, subset)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.counting, "component_iso_check", lambda m, c: not original(m, c))
            mp.setattr(Graph, "induced", recorded_induced)
            results = sweep_hom_claims(cfg, claims={"component_image_iso_criterion"})
            broken = results["component_image_iso_criterion"]
            assert broken.failure_count > 0
            assert all(replay_counterexample(f) is True for f in broken.failures)
        assert len({(id(g), sub) for g, sub in builds}) < len(builds)
        assert not any(replay_counterexample(f) for f in broken.failures)

    def test_broken_completeness_pass_is_recorded_and_replayed(self):
        # quotient raises when its projection fails the completeness check:
        # each sweep records that as a failure of one claim, with its kind's
        # payload (the graph and partition, or the graph and group), skips
        # the instance's other claims, and replay rebuilds the quotient
        # inside _run.
        cfg = SweepConfig(3, 2, 5, 1)
        original = quograph.homs._edge_classes
        sweeps = [  # sweep, the claim recording the failure, its kind, a skipped claim, failures
            (verify.sweep_partition_claims, "projection_complete", "partition", "quotient_count_monotone", 45),
            (verify.sweep_orbit_claims, "orbit_projection_consistent", "orbit", "orbit_multiplicity_total", 27),
            (verify.sweep_random_claims, "orbit_projection_consistent", "orbit", "admissible_count_total", 5),
        ]

        def incomplete(m):
            m._edge_classes = (original(m)[0], False)
            return m._edge_classes

        recorded = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.homs, "_edge_classes", incomplete)
            for sweep, claim, kind, skipped, count in sweeps:
                results = sweep(cfg)
                broken = results[claim]
                assert broken.failure_count == broken.instances == count
                assert broken.failures[0]["detail"] == "exception: quotient projection failed the completeness check"
                assert all(replay_counterexample(f) is True for f in broken.failures)
                assert results[skipped].instances == 0
                recorded.append((kind, broken.failures))
        for kind, failures in recorded:
            assert not any(replay_counterexample(f) for f in failures)
            _, encode, decode = verify._KINDS[kind]
            assert all(encode(decode(f["data"])) == f["data"] for f in failures)

    def test_recorded_exception_is_replayed(self):
        # A claim whose counter raises records an "exception:" failure; the
        # replay goes through the same handling, so it reproduces instead of
        # raising.
        cfg = SweepConfig(2, 2, 0, 1)

        def raising(m):
            raise InternalCheckError("count self-check failed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.counting, "count_admissible", raising)
            results = sweep_hom_claims(cfg, claims={"admissible_count_total"})
            broken = results["admissible_count_total"]
            assert broken.failure_count > 0
            failure = broken.failures[0]
            assert failure["detail"] == "exception: count self-check failed"
            assert replay_counterexample(failure) is True
        assert replay_counterexample(failure) is False

    def test_clean_run_records_nothing(self):
        cfg = SweepConfig(3, 2, 0, 1)
        results = sweep_hom_claims(
            cfg, claims={"locally_surjective_implies_locally_strong"}
        )
        res = results["locally_surjective_implies_locally_strong"]
        assert res.failure_count == 0 and res.instances > 0


class TestFailureCap:
    def test_counts_everything_but_stores_a_bounded_sample(self):
        res = ClaimResult("demo")
        for i in range(30):
            res.record([f"broken {i}"], lambda: {"n": 1})
        assert res.instances == 30
        assert res.failure_count == 30
        assert len(res.failures) == 20


def _codec_instances():
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    edge = Graph(["x", "y"], [("x", "y")])
    return {
        "graph": path,
        "partition": quotient(path, Partition([["a", "c"], ["b"]], path.vertex_set)).projection,
        "hom": HomMap(path, edge, {"a": "x", "b": "y", "c": "x"}),
        "orbit": random_orbit_instance(random.Random(9)),
    }


class TestPayloadCodecs:
    """Each claim kind's payload decodes to an argument that encodes to the same payload."""

    @pytest.mark.parametrize("kind", sorted(verify._KINDS))
    def test_round_trip(self, kind):
        _, encode, decode = verify._KINDS[kind]
        payload = encode(_codec_instances()[kind])
        assert encode(decode(payload)) == payload
        assert json.loads(io.dumps(payload)) == payload

    def test_partition_payload_holds_the_cells(self):
        encode = verify._KINDS["partition"][1]
        assert encode(_codec_instances()["partition"])["partition"] == {"blocks": [["a", "c"], ["b"]]}


class TestOrbitInstances:
    def test_dedupe_by_orbit_partition(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        insts = list(orbit_instances_for(g))
        cells = [tuple(inst.m.fibres.values()) for inst in insts]
        assert len(cells) == len(set(cells))
        assert (("a",), ("b",), ("c",)) in cells  # trivial subgroup
        assert (("a", "b", "c"),) in cells  # full symmetry

    def test_random_instance_is_deterministic(self):
        a = random_orbit_instance(random.Random(9))
        b = random_orbit_instance(random.Random(9))
        encode = verify._KINDS["orbit"][1]
        assert encode(a) == encode(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_are_orbit_maps_by_construction(self, seed):
        inst = random_orbit_instance(random.Random(seed))
        report = classify(inst.m, inst.grp)
        assert report.orbit is True
        assert report.complete is True


class TestComponentImageGaps:
    """The component migration and main component claims share one test of
    whether a component's image is its whole target component; each gap is
    reported in the claim's own words."""

    PATH = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    TRIANGLE = Graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])

    @pytest.mark.parametrize(
        "images,migration,main",
        [
            (
                {"1": "x", "2": "y", "3": "z"},
                "image of component of '1' misses edges of its target component",
                ["main component image has the component's vertices but not its edges"],
            ),
            ({"1": "x", "2": "y", "3": "x"}, "image of component of '1' is not a full target component", None),
        ],
        ids=["edge", "vertex"],
    )
    def test_gap_is_reported(self, monkeypatch, images, migration, main):
        m = HomMap(self.PATH, self.TRIANGLE, images)
        # no map with such a gap is locally surjective or complete, so the
        # claims' hypotheses are patched in
        monkeypatch.setattr(quograph.homs, "is_locally_surjective", lambda m: True)
        monkeypatch.setattr(quograph.homs, "is_complete", lambda m: True)
        assert verify._claim_component_migration(m) == [migration]
        assert verify._claim_single_main_component_image(m) == main


class TestMediumGraphs:
    def test_shapes(self):
        gs = medium_test_graphs()
        assert len(gs) == 9
        assert all(len(g.vertices) <= 7 for g in gs)
        assert max(len(g.vertices) for g in gs) == 7
