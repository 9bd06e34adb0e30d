"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``).  Budgeted criteria also report elapsed wall time.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict

import pytest

from quograph import (
    admissible_components,
    classify,
    count_admissible,
    count_orbit,
    find_isomorphism,
    make_cyclic,
    make_symmetric,
    conjugation_group,
    orbit_partition,
    proper_power_graph,
    quotient,
)
from quograph.cli import main as cli_main
from quograph.verify import (
    SweepConfig,
    enumerate_graphs,
    oracle_component_count,
    sweep_hom_claims,
    sweep_partition_claims,
)

from golden import GOLDEN_CASES, medium_test_graphs
from reference import every_choice_terms, make_klein_four, orbit_instances_for, random_orbit_instance


def report(num, label, ok, elapsed=None, budget=None):
    if budget is not None and elapsed >= budget:
        ok = False
    timing = f" ({elapsed:.1f}s, budget {budget:.0f}s)" if budget is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}{timing}")
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def hom_sweep():
    """One shared (5-source, 3-target) exhaustive map sweep for criteria 4/6/8."""
    cfg = SweepConfig(max_source_vertices=5, max_target_vertices=3, random_instances=0, seed=42)
    start = time.perf_counter()
    results = sweep_hom_claims(
        cfg,
        claims={
            "admissible_count_total",
            "multiplicity_ratio_formula",
            "component_image_iso_criterion",
        },
    )
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def orbit_pool():
    """Orbit quotients from subgroups, exhaustive to 5 vertices plus 6/7-vertex picks."""
    pool = []
    for g in list(enumerate_graphs(5)) + medium_test_graphs():
        pool.extend(orbit_instances_for(g))
    return pool


def test_criterion_1_golden_classifications():
    start = time.perf_counter()
    ok = True
    for name, build, expected in GOLDEN_CASES:
        got = asdict(classify(build()))
        if got != expected:
            ok = False
            print(f"  golden case {name}: {got} != {expected}")
    report(1, "golden example classifications", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_quotient_component_laws():
    start = time.perf_counter()
    results = sweep_partition_claims(SweepConfig(5, 3, 0, 42))
    checked = [
        results["quotient_count_monotone"],
        results["quotient_count_equality_iff_tame"],
        results["quotient_connectivity_transfer"],
    ]
    ok = all(r.failure_count == 0 and r.instances == 54_253 for r in checked)
    report(2, "quotient count/tameness/connectivity sweep", ok, time.perf_counter() - start, 300.0)


def test_criterion_3_inclusion_chain():
    results = sweep_hom_claims(
        SweepConfig(4, 3, 0, 42),
        claims={
            "class_inclusion_chain",
            "locally_surjective_implies_locally_strong",
            "locally_strong_matches_locally_surjective_when_surjective",
        },
    )
    ok = all(r.failure_count == 0 for r in results.values()) and (
        results["class_inclusion_chain"].instances > 0
    )
    report(3, "class inclusion chain and intersection laws", ok)


def test_criterion_4_admissible_count_vs_oracle(hom_sweep):
    results, sweep_elapsed = hom_sweep
    start = time.perf_counter()
    res = results["admissible_count_total"]
    ok = res.failure_count == 0 and res.instances > 0
    rng = random.Random(42)
    mismatches = 0
    for _ in range(1000):
        inst = random_orbit_instance(rng)
        if count_admissible(inst.m).total != oracle_component_count(inst.m.source):
            mismatches += 1
    ok = ok and mismatches == 0
    elapsed = sweep_elapsed + (time.perf_counter() - start)
    report(4, "admissible-component count equals oracle", ok, elapsed, 120.0)


def test_criterion_5_orbit_count_and_reselection(orbit_pool):
    mismatches = 0
    for inst in orbit_pool:
        # every choice of representative and admissible component gives one
        # term per target component, and those terms sum to the oracle count
        terms = every_choice_terms(inst.m)
        walk = count_orbit(inst.m, inst.grp)
        if terms != [{t.value} for t in walk.terms] or walk.total != oracle_component_count(inst.m.source):
            mismatches += 1
    ok = mismatches == 0 and len(orbit_pool) > 0
    report(5, "orbit count equals oracle under re-selection", ok)


def test_criterion_6_multiplicity_divisibility(hom_sweep):
    results, _ = hom_sweep
    res = results["multiplicity_ratio_formula"]
    ok = res.failure_count == 0 and res.instances > 0
    report(6, "fibre multiplicity divides exactly on balanced maps", ok)


def test_criterion_7_admissible_components_isomorphic(orbit_pool):
    bad = 0
    for inst in orbit_pool:
        for y in sorted(inst.m.fibres):
            blocks = admissible_components(inst.m, y)
            base = inst.m.source.induced(blocks[0])
            for other in blocks[1:]:
                if find_isomorphism(base, inst.m.source.induced(other)) is None:
                    bad += 1
    report(7, "admissible components pairwise isomorphic on orbit maps", bad == 0)


def test_criterion_8_component_copy_test(hom_sweep):
    results, _ = hom_sweep
    res = results["component_image_iso_criterion"]
    ok = res.failure_count == 0 and res.instances > 0
    report(8, "component copy test matches explicit isomorphism search", ok)


def test_criterion_9_power_graph_demo():
    start = time.perf_counter()
    groups = [make_cyclic(n) for n in range(2, 61)]
    groups += [make_klein_four()]
    groups += [make_symmetric(n) for n in range(2, 6)]
    mismatches = 0
    klein_count = None
    for grp in groups:
        pg = proper_power_graph(grp)
        action = conjugation_group(grp, pg)
        m = quotient(pg, orbit_partition(action)).projection
        total = count_orbit(m, action).total
        if total != oracle_component_count(pg):
            mismatches += 1
        if grp.order() == 4 and set(grp.elements) == {"e", "a", "b", "c"}:
            klein_count = total
    ok = mismatches == 0 and klein_count == 3
    report(9, "power-graph component counts match oracle", ok, time.perf_counter() - start, 60.0)


def test_criterion_10_verify_determinism(tmp_path, capsys):
    args = ["verify", "--max-vertices", "3", "--random", "50", "--seed", "42", "--out"]
    code_a = cli_main(args + [str(tmp_path / "a.json")])
    code_b = cli_main(args + [str(tmp_path / "b.json")])
    capsys.readouterr()
    same = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report(10, "verification reports byte-identical under equal seeds",
           code_a == 0 and code_b == 0 and same)
