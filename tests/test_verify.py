from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from io import StringIO

import pytest
from hypothesis import given, settings

import quograph.homs
from quograph import Graph, HomMap, HypothesisError, InternalCheckError, Partition, classify, io, quotient
from quograph import verify
from quograph.cli import build_parser, main
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

from conftest import graphs, subprocess_env
from golden import medium_test_graphs
from reference import (
    closure_index_maps,
    closure_set_partitions,
    is_hom,
    orbit_instances_for,
    random_orbit_instance,
)

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

    @pytest.mark.parametrize("n", range(7))
    def test_partitions_in_the_closure_order(self, n):
        items = [f"x{i}" for i in range(n)]
        assert list(set_partitions(items)) == list(closure_set_partitions(items))

    def test_index_maps_in_the_closure_order(self):
        targets = list(enumerate_graphs(3))
        for src in enumerate_graphs(4):
            for tgt in targets:
                assert list(verify._index_maps(src, tgt)) == list(closure_index_maps(src, tgt))

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

    # (instances, failure_count) of each claim at bounds (4, 3), 50 random instances, seed 42
    PINNED_COUNTS = {
        "admissible_constant_on_target_components": (2691, 0),
        "admissible_count_total": (2741, 0),
        "class_inclusion_chain": (21387, 0),
        "component_image_iso_criterion": (1047, 0),
        "component_migration": (2691, 0),
        "component_sum_over_target_components": (21387, 0),
        "connectedness_criterion_sound": (288, 0),
        "isolated_vertex_image": (2691, 0),
        "locally_strong_matches_locally_surjective_when_surjective": (6687, 0),
        "locally_surjective_implies_locally_strong": (2691, 0),
        "multiplicity_ratio_formula": (2370, 0),
        "multiplicity_ratio_independence": (309, 0),
        "oracle_component_agreement": (125, 0),
        "orbit_admissible_single_orbit": (309, 0),
        "orbit_count_vertex_ratio": (309, 0),
        "orbit_multiplicity_total": (309, 0),
        "orbit_partition_equitable": (309, 0),
        "orbit_projection_consistent": (309, 0),
        "projection_complete": (1005, 0),
        "quotient_connectivity_transfer": (1005, 0),
        "quotient_count_equality_iff_tame": (1005, 0),
        "quotient_count_monotone": (1005, 0),
        "single_main_component_image": (3222, 0),
        "singleton_quotient_isomorphic": (75, 0),
        "tame_pseudocover_component_bijection": (876, 0),
    }

    def test_claim_table_hypotheses_are_pinned(self):
        # A wrong hypothesis in the claim table moves some claim's instance
        # count; every hypothesis names a homs predicate.
        report = run_suite(SweepConfig(4, 3, 50, 42))
        assert {c.claim: (c.instances, c.failure_count) for c in report.claims} == self.PINNED_COUNTS
        hypotheses = {h for claims, _, _ in verify._KINDS.values() for _, hyps in claims.values() for h in hyps}
        assert hypotheses and all(callable(getattr(quograph.homs, h, None)) for h in hypotheses)

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


class TestGroupedGate:
    """Each sweep runs its claims in table order and tests each hypothesis at
    most once per instance, however many claims it gates."""

    CFG = SweepConfig(3, 3, 0, 1)  # 1,339 maps, 259 of them locally surjective
    LSUR = [cid for cid, (_, hyps) in verify._HOM_CLAIMS.items() if hyps == ("is_locally_surjective",)]

    def test_map_table_rows(self):
        rows = verify._select(verify._HOM_CLAIMS)
        assert [cid for cid, _, _ in rows] == list(verify._HOM_CLAIMS)  # each claim once, in table order
        assert all(verify._HOM_CLAIMS[cid] == (fn, hyps) for cid, fn, hyps in rows)
        first, *_, last = verify._HOM_CLAIMS
        assert [cid for cid, _, _ in verify._select(verify._HOM_CLAIMS, {last, first})] == [first, last]
        with pytest.raises(ValueError, match="unknown claim"):
            verify._select(verify._HOM_CLAIMS, {first, "no_such_claim"})
        assert len(self.LSUR) == 5

    def test_shared_hypothesis_is_tested_once_per_map(self, monkeypatch):
        # neither claim's body calls the predicate, so each call is the gate's
        original, calls = quograph.homs.is_locally_surjective, []
        monkeypatch.setattr(quograph.homs, "is_locally_surjective", lambda m: calls.append(m) or original(m))
        claims = ["isolated_vertex_image", "locally_surjective_implies_locally_strong"]
        results = sweep_hom_claims(self.CFG, claims=set(claims))
        assert len(calls) == 1339
        assert [results[cid].instances for cid in claims] == [259, 259]

    def test_hypotheses_shared_across_tuples_are_tested_once_per_map(self, monkeypatch):
        # the two claims' hypothesis tuples differ but share is_pseudo_covering;
        # with their bodies emptied, every call is the gate's
        claims = ["tame_pseudocover_component_bijection", "component_image_iso_criterion"]
        for cid in claims:
            monkeypatch.setitem(verify._HOM_CLAIMS, cid, (lambda m: [], verify._HOM_CLAIMS[cid][1]))
        original, calls = quograph.homs.is_pseudo_covering, []
        monkeypatch.setattr(quograph.homs, "is_pseudo_covering", lambda m: calls.append(m) or original(m))
        sweep_hom_claims(self.CFG, claims=set(claims))
        assert len(calls) == 1339

    def test_a_raising_hypothesis_fails_every_member_and_replays(self):
        # multiplicity_ratio_formula is gated on is_locally_surjective and
        # is_component_equitable: the raise fails it too
        edge = Graph(["1", "2"], [("1", "2")])
        original = quograph.homs.is_locally_surjective
        claims = [*self.LSUR, "multiplicity_ratio_formula"]
        instances = dict.fromkeys(self.LSUR, 259) | {"multiplicity_ratio_formula": 232}

        def raising_on_the_identity_of_an_edge(m):
            if m.source == edge == m.target and m._index_map == (0, 1):
                raise InternalCheckError("planted")
            return original(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quograph.homs, "is_locally_surjective", raising_on_the_identity_of_an_edge)
            results = sweep_hom_claims(self.CFG, claims=set(claims))
            failures = []
            for cid in claims:
                assert (results[cid].instances, results[cid].failure_count) == (instances[cid], 1)
                [failure] = results[cid].failures
                assert failure["detail"] == "exception: planted"
                assert failure["data"]["map"] == {"1": "1", "2": "2"}
                assert replay_counterexample(failure) is True
                failures.append(failure)
        assert not any(replay_counterexample(f) for f in failures)

    def test_a_raising_claim_fails_only_itself(self, monkeypatch):
        def raising(m):
            raise InternalCheckError("count self-check failed")

        monkeypatch.setattr(quograph.counting, "count_admissible", raising)
        results = sweep_hom_claims(self.CFG, claims=set(self.LSUR))
        assert {cid: results[cid].failure_count for cid in self.LSUR} == {
            cid: 259 if cid == "admissible_count_total" else 0 for cid in self.LSUR
        }

    def test_each_sweep_groups_the_table_as_it_is(self, monkeypatch):
        claim = "isolated_vertex_image"
        assert sweep_hom_claims(self.CFG, claims={claim})[claim].instances == 259
        fn, _ = verify._HOM_CLAIMS[claim]
        monkeypatch.setitem(verify._HOM_CLAIMS, claim, (fn, ()))
        assert sweep_hom_claims(self.CFG, claims={claim})[claim].instances == 1339


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
            ("is_locally_bijective", "class_inclusion_chain"),
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

    @pytest.mark.parametrize(
        "module,name,broken,sweep,cfg,failures",
        [
            (
                quograph.homs, "is_tame", lambda f: lambda *a: not f(*a),
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"quotient_count_equality_iff_tame": 45, "quotient_connectivity_transfer": 34},
            ),
            (
                verify, "find_isomorphism", lambda f: lambda *a: None,
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"singleton_quotient_isomorphic": 11},
            ),
            (
                quograph.perms, "is_consistent", lambda f: lambda *a: not f(*a),
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_projection_consistent": 259, "orbit_multiplicity_total": 259},
            ),
            (
                quograph.counting, "admissible_components", lambda f: lambda *a: f(*a)[:1],
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_admissible_single_orbit": 49, "orbit_count_vertex_ratio": 49},
            ),
            (
                verify, "oracle_component_count", lambda f: lambda g: -1,
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"oracle_component_agreement": 11, "connectedness_criterion_sound": 17},
            ),
            (
                verify, "oracle_component_count", lambda f: lambda g: -1,
                sweep_hom_claims, SweepConfig(3, 3, 0, 1),
                {"admissible_count_total": 259},
            ),
            (
                verify, "oracle_component_count", lambda f: lambda g: -1,
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_multiplicity_total": 259},
            ),
            (
                quograph.homs, "is_complete", lambda f: lambda m: False,
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"projection_complete": 45},
            ),
            (
                quograph.perms, "verify_automorphisms", lambda f: lambda *a: False,
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_partition_equitable": 259, "orbit_projection_consistent": 259, "orbit_multiplicity_total": 259},
            ),
            (
                quograph.homs, "_is_equitable", lambda f: lambda *a: False,
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_partition_equitable": 259},
            ),
            (
                verify, "find_isomorphism", lambda f: lambda *a: None,
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_admissible_single_orbit": 737},
            ),
            (  # doubled at the target's first label only, so the ratios differ across a component
                quograph.counting, "multiplicity", lambda f: lambda m, u, y: f(m, u, y) * (1 + (y == m.target.vertices[0])),
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"orbit_multiplicity_total": 294, "multiplicity_ratio_independence": 552},
            ),
            (
                quograph.counting, "component_iso_check", lambda f: lambda m, c: True,
                verify.sweep_orbit_claims, SweepConfig(4, 3, 0, 1),
                {"multiplicity_ratio_independence": 117},
            ),
            (
                quograph.homs, "is_pseudo_covering", lambda f: lambda m: True,
                sweep_hom_claims, SweepConfig(3, 3, 0, 1),
                {"class_inclusion_chain": 3756, "tame_pseudocover_component_bijection": 906,
                 "component_image_iso_criterion": 1080},
            ),
            (  # the last block of every partition of two or more blocks goes missing
                Partition, "blocks", lambda f: property(lambda p: f.fget(p)[:-1] if p.count > 1 else f.fget(p)),
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"oracle_component_agreement": 5},
            ),
            (  # every graph of three or more vertices is one component
                Graph, "components", lambda f: lambda g: f(g) if len(g.vertices) < 3 else Partition([g.vertices], g.vertices),
                verify.sweep_partition_claims, SweepConfig(3, 3, 0, 1),
                {"oracle_component_agreement": 4, "quotient_count_monotone": 6, "quotient_count_equality_iff_tame": 6,
                 "quotient_connectivity_transfer": 6, "connectedness_criterion_sound": 8},
            ),
            (  # the target components of the source components, read in reverse order
                verify, "_component_targets", lambda f: lambda m: f(m)[::-1],
                sweep_hom_claims, SweepConfig(3, 3, 0, 1),
                {"admissible_constant_on_target_components": 162, "tame_pseudocover_component_bijection": 64},
            ),
        ],
        ids=[
            "tame", "isomorphism", "consistent", "admissible", "oracle-partition", "oracle-hom", "oracle-orbit",
            "complete", "automorphisms", "equitable", "orbit-isomorphism", "multiplicity", "copy-test",
            "pseudo-covering", "blocks", "components", "component-targets",
        ],
    )
    def test_broken_function_fails_graph_partition_and_orbit_claims(self, module, name, broken, sweep, cfg, failures):
        # each claim kind's failure branch, reached through the function it reads
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, name, broken(getattr(module, name)))
            results = sweep(cfg)
            assert {c: r.failure_count for c, r in results.items() if r.failure_count} == failures
            recorded = [f for c in failures for f in results[c].failures]
            assert all(replay_counterexample(f) is True for f in recorded)
        assert not any(replay_counterexample(f) for f in recorded)

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
        # before the gate.
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

    def test_a_raising_decoding_replays_before_the_gate(self, monkeypatch):
        # replay decodes the payload before it tests the claim's hypotheses,
        # so a decoding that raises reproduces without reaching the gate
        path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        failure = {
            "claim": "connectedness_criterion_sound",  # gated on is_pseudo_covering
            "detail": "exception: quotient projection failed the completeness check",
            "data": {"graph": io.graph_to_dict(path), "partition": {"blocks": [["a", "c"], ["b"]]}},
        }
        assert replay_counterexample(failure) is False
        original, gate = quograph.homs._edge_classes, []

        def incomplete(m):
            m._edge_classes = (original(m)[0], False)
            return m._edge_classes

        monkeypatch.setattr(quograph.homs, "_edge_classes", incomplete)
        monkeypatch.setattr(quograph.homs, "is_pseudo_covering", lambda m: gate.append(m) or True)
        assert replay_counterexample(failure) is True
        assert gate == []

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

    def test_randomized_draws_are_pinned(self):
        # sha256 of the canonical graph-and-group documents of the first 200
        # draws of seed 42; the default report depends on every generator
        rng = random.Random(42)
        digest = hashlib.sha256()
        for _ in range(200):
            g, grp = verify._draw_orbit_group(rng)
            digest.update(io.dumps({"graph": io.graph_to_dict(g), "group": io.group_to_dict(grp)}).encode())
        assert digest.hexdigest() == "d74b6e4c4ac551d424c50c6f9f53517cd905df25c6f75860b78b7865f9591645"

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
    def test_gap_is_reported(self, images, migration, main):
        m = HomMap(self.PATH, self.TRIANGLE, images)
        assert verify._claim_component_migration(m) == [migration]
        assert verify._claim_single_main_component_image(m) == main

    def test_a_component_split_across_target_components_is_named(self):
        # a wrong cached component partition of the target splits the image
        # of the path's one component in two
        target = Graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
        m = HomMap(self.PATH, target, {"1": "x", "2": "y", "3": "z"})
        assert verify._claim_component_sum_over_target(m) == []
        target._components = Partition([["x"], ["y", "z"]], target.vertex_set)
        assert verify._claim_component_sum_over_target(m) == ["component of '1' maps into 2 target components"]


class TestMediumGraphs:
    def test_shapes(self):
        gs = medium_test_graphs()
        assert len(gs) == 9
        assert all(len(g.vertices) <= 7 for g in gs)
        assert max(len(g.vertices) for g in gs) == 7


class TestProcesses:
    """``run_suite`` spreads its units over forked processes and adds up the
    counts they send back, or writes the report in one process when a share
    did not pass."""

    SMALL = SweepConfig(3, 3, 10, 1)  # 11 partition units, then 121 map units, 11 orbit, 10 random
    ARGV = ["verify", "--max-vertices", "3", "--random", "10", "--seed", "1"]

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def report(monkeypatch, count, cfg) -> str:
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        return io.dumps(run_suite(cfg).as_dict())

    @staticmethod
    def cli(monkeypatch, count, argv) -> tuple[int, str, str]:
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def hom_unit(cfg, count, index, after=-1):
        """The first map-sweep unit past ``after`` that process ``index`` of
        ``count`` runs, with its (source, target) pair."""
        sources = list(enumerate_graphs(cfg.max_source_vertices))
        pairs = [(s, t) for s in sources for t in enumerate_graphs(cfg.max_target_vertices)]
        owner = verify._Share(index, count).owner
        return next((u, pair) for u, pair in enumerate(pairs, len(sources)) if u > after and owner(u) == index)

    @staticmethod
    def plant(monkeypatch, actions):
        """Call ``actions[(source, target)]()`` when the map sweep reaches that pair."""
        original = verify._index_maps

        def planted(src, tgt):
            action = actions.get((src, tgt))
            if action is not None:
                action()
            return original(src, tgt)

        monkeypatch.setattr(verify, "_index_maps", planted)

    @staticmethod
    def fail_call(monkeypatch, name, nth):
        """Make the nth call of ``os.<name>`` raise EAGAIN, as a fork does at a process limit."""
        original, calls = getattr(os, name), []

        def failing():
            calls.append(name)
            if len(calls) == nth:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return original()

        monkeypatch.setattr(os, name, failing)
        return calls

    def test_process_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert verify._process_count() == 1  # as under taskset -c 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert verify._process_count() == verify._MAX_PROCESSES
        monkeypatch.delattr(os, "sched_getaffinity")
        assert verify._process_count() == 1

    def test_a_process_past_the_unit_count_gets_no_unit(self, monkeypatch):
        cfg = SweepConfig(1, 1, 0, 1)  # 3 units: a partition graph, a (source, target) pair, an orbit graph
        assert self.report(monkeypatch, 4, cfg) == self.report(monkeypatch, 1, cfg)

    def test_reports_do_not_depend_on_the_process_count(self, monkeypatch):
        one, two, three = (self.report(monkeypatch, n, SweepConfig(4, 3, 200, 3)) for n in (1, 2, 3))
        assert json.loads(one)["passed"] is True
        assert one == two == three

    def test_capped_failures_keep_the_one_process_order(self, monkeypatch):
        # fails on every map of the map sweep and every random instance: far
        # more than the cap, from every process
        monkeypatch.setitem(verify._HOM_CLAIMS, "admissible_count_total", (lambda m: ["planted"], ()))
        one, two, three = (self.report(monkeypatch, n, self.SMALL) for n in (1, 2, 3))
        [claim] = [c for c in json.loads(one)["claims"] if c["claim"] == "admissible_count_total"]
        assert claim["failure_count"] == 1339 + 10 and len(claim["failures"]) == 20
        assert one == two == three

    @pytest.mark.parametrize("count", [2, 3])
    def test_a_failure_in_the_last_share_is_reported_and_replays(self, monkeypatch, count):
        _, pair = self.hom_unit(self.SMALL, count, count - 1)
        claim = (lambda m: ["planted"] if (m.source, m.target) == pair else [], ())
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify._HOM_CLAIMS, "class_inclusion_chain", claim)
            assert self.report(mp, count, self.SMALL) == self.report(mp, 1, self.SMALL)
            mp.setattr(verify, "_process_count", lambda: count)
            [result] = [c for c in run_suite(self.SMALL).claims if c.claim == "class_inclusion_chain"]
            assert result.failure_count == len(result.failures) > 0
            assert all(replay_counterexample(f) is True for f in result.failures)
        assert not any(replay_counterexample(f) for f in result.failures)

    @pytest.mark.parametrize(
        "cls,code,prefix",
        [
            (ValueError, 1, "error: "),
            (OSError, 1, "error: "),
            (HypothesisError, 2, "error: "),
            (InternalCheckError, 3, "internal check failed: "),
        ],
    )
    def test_an_exception_in_a_child_surfaces_as_in_one_process(self, monkeypatch, cls, code, prefix):
        def raising():
            raise cls("planted in a child's share")

        self.plant(monkeypatch, {self.hom_unit(self.SMALL, 2, 1)[1]: raising})
        one = self.cli(monkeypatch, 1, self.ARGV)
        assert one == (code, "", f"{prefix}planted in a child's share\n")
        assert self.cli(monkeypatch, 2, self.ARGV) == one
        with pytest.raises(cls) as raised:
            run_suite(self.SMALL)
        assert type(raised.value) is cls

    @pytest.mark.parametrize("earlier", ["parent", "child"])
    def test_the_earliest_unit_that_raises_surfaces(self, monkeypatch, earlier):
        first = 0 if earlier == "parent" else 1
        u1, pair1 = self.hom_unit(self.SMALL, 2, first)
        u2, pair2 = self.hom_unit(self.SMALL, 2, 1 - first, after=u1)

        def raising(unit):
            def raise_it():
                raise ValueError(f"planted in unit {unit}")

            return raise_it

        self.plant(monkeypatch, {pair1: raising(u1), pair2: raising(u2)})
        one = self.cli(monkeypatch, 1, self.ARGV)
        assert one == (1, "", f"error: planted in unit {u1}\n")
        assert self.cli(monkeypatch, 2, self.ARGV) == one

    @pytest.mark.parametrize("parent_too", [False, True], ids=["child", "child-then-parent"])
    def test_the_surfaced_exception_is_raised_where_it_was(self, monkeypatch, parent_too):
        def raising(unit):
            def raise_it():
                raise ValueError(f"planted in unit {unit}")

            return raise_it

        u1, pair1 = self.hom_unit(self.SMALL, 2, 1)
        actions = {pair1: raising(u1)}
        if parent_too:
            u2, pair2 = self.hom_unit(self.SMALL, 2, 0, after=u1)
            actions[pair2] = raising(u2)
        self.plant(monkeypatch, actions)
        monkeypatch.setattr(verify, "_process_count", lambda: 2)
        with pytest.raises(ValueError) as raised:
            run_suite(self.SMALL)
        assert raised.value.args == (f"planted in unit {u1}",)
        assert raised.traceback[-1].name == "raise_it"
        assert raised.value.__context__ is None and raised.value.__cause__ is None

    def test_the_parent_reruns_the_sweeps_only_after_a_failure_or_exception(self, monkeypatch):
        calls, original = [], verify._sweep_share

        def counted(cfg, results, share):
            calls.append((share.index, share.count))  # a child's calls land in its own copy
            original(cfg, results, share)

        def raise_it():
            raise ValueError("planted")

        monkeypatch.setattr(verify, "_sweep_share", counted)
        self.report(monkeypatch, 2, self.SMALL)
        assert calls == [(0, 2)]
        calls.clear()
        _, pair = self.hom_unit(self.SMALL, 2, 1)
        with pytest.MonkeyPatch.context() as mp:
            claim = (lambda m: ["planted"] if (m.source, m.target) == pair else [], ())
            mp.setitem(verify._HOM_CLAIMS, "class_inclusion_chain", claim)
            assert json.loads(self.report(mp, 2, self.SMALL))["passed"] is False
        assert calls == [(0, 2), (0, 1)]
        calls.clear()
        self.plant(monkeypatch, {pair: raise_it})
        with pytest.raises(ValueError):
            self.report(monkeypatch, 2, self.SMALL)
        assert calls == [(0, 2), (0, 1)]

    def test_a_share_stops_at_its_first_failure(self, monkeypatch):
        maps = []
        monkeypatch.setitem(verify._HOM_CLAIMS, "admissible_count_total", (lambda m: maps.append(m) or ["planted"], ()))
        assert verify._share_outcome(self.SMALL, verify._Share()) is None
        assert len(maps) == 1  # of the 1,339 maps the claim fails on in a one-process run

    @pytest.mark.parametrize("name", ["pipe", "fork"])
    def test_a_failed_fork_falls_back_to_one_process(self, monkeypatch, name):
        one = self.cli(monkeypatch, 1, self.ARGV)
        assert one[0] == 0
        calls = self.fail_call(monkeypatch, name, 2)
        assert self.cli(monkeypatch, 3, self.ARGV) == one
        assert len(calls) == 2  # the first child was forked, then killed and reaped

    def test_a_killed_child_is_an_internal_check_failure(self, monkeypatch):
        self.plant(monkeypatch, {self.hom_unit(self.SMALL, 2, 1)[1]: lambda: os.kill(os.getpid(), signal.SIGKILL)})
        assert self.cli(monkeypatch, 2, self.ARGV) == (
            3,
            "",
            "internal check failed: a verify process was killed by SIGKILL before it reported\n",
        )

    def test_an_interrupted_child_never_returns_into_its_caller(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        self.plant(monkeypatch, {self.hom_unit(self.SMALL, 2, 1)[1]: interrupt})
        assert self.cli(monkeypatch, 2, self.ARGV) == (
            3,
            "",
            "internal check failed: a verify process exited with status 1 before it reported\n",
        )

    def test_an_interrupted_parent_kills_its_children(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        sleeping = self.hom_unit(self.SMALL, 2, 1)[1]
        self.plant(monkeypatch, {sleeping: lambda: time.sleep(60), self.hom_unit(self.SMALL, 2, 0)[1]: interrupt})
        monkeypatch.setattr(verify, "_process_count", lambda: 2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_suite(self.SMALL)
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize(
        "raising",
        [None, 0, 1, "fork", "claim"],
        ids=["clean", "parent-raises", "child-raises", "fork-fails", "claim-fails"],
    )
    def test_the_fork_path_leaves_no_cycle(self, monkeypatch, raising):
        # as TestCollectorPause in test_cli.py, on two processes, or on three
        # whose second fork fails
        def raise_it():
            raise ValueError("planted")

        count = 2
        if raising == "fork":
            count = 3
            self.fail_call(monkeypatch, "fork", 2)
        elif raising == "claim":
            monkeypatch.setitem(verify._HOM_CLAIMS, "class_inclusion_chain", (lambda m: ["planted"], ()))
        elif raising is not None:
            self.plant(monkeypatch, {self.hom_unit(self.SMALL, 2, raising)[1]: raise_it})
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        build_parser()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
                code = main(self.ARGV)
        finally:
            left = gc.collect()
            if was_enabled:
                gc.enable()
        assert (code, left) == ({0: 1, 1: 1, "claim": 3}.get(raising, 0), 0)

    def test_unflushed_output_is_written_once(self):
        script = (
            "import sys\n"
            "from quograph import verify\n"
            "verify._process_count = lambda: 2\n"
            "sys.stdout.write('written before the fork\\n')\n"
            "verify.run_suite(verify.SweepConfig(2, 2, 2, 1))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "written before the fork\n", "")

    def test_no_fork_while_another_thread_is_alive(self, monkeypatch):
        with pytest.MonkeyPatch.context() as mp:
            expected = self.report(mp, 1, self.SMALL)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked while another thread was alive"))
            assert io.dumps(run_suite(self.SMALL).as_dict()) == expected
        finally:
            release.set()
            thread.join()
