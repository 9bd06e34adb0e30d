"""Tests of the benchmark itself: generators, percentiles, checks, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXHAUSTIVE_INSTANCES,
    CountCeComponents,
    CountOrbitCycles,
    PowergraphCli,
    VerifySweep,
    union_find_count,
)


@pytest.mark.parametrize("seed", [1, 2])
def test_orbit_cycles_sizes_and_answers(seed, tmp_path):
    w = CountOrbitCycles(seed, tmp_path)
    assert len(w.instances) == len(w.pass_ops) == 10
    assert sorted(len(i.partition["blocks"]) for i in w.instances) == sorted(CountOrbitCycles.LENGTHS)
    for inst in w.instances:
        k, length = inst.answer, len(inst.partition["blocks"])
        assert 80 <= k <= 120 and 8 <= length <= 12
        assert len(inst.graph["vertices"]) == k * length
        assert 900 <= k * length <= 1100
        assert k * length <= len(inst.graph["edges"]) <= k * (length + 3)
        assert inst.target_components == 1
        assert union_find_count(inst.graph) == k
        assert union_find_count(inst.grow(3).graph) == 3 * k


@pytest.mark.parametrize("seed", [1, 2])
def test_ce_components_sizes_and_answers(seed, tmp_path):
    w = CountCeComponents(seed, tmp_path)
    for inst in w.instances:
        assert inst.answer == inst.target_components == 800
        # 267 edges, 267 paths and 266 triangles, in some order
        assert len(inst.graph["vertices"]) == 267 * 2 + 533 * 3
        assert len(inst.partition["blocks"]) == 800 + 267
        assert union_find_count(inst.graph) == 800
        assert union_find_count(inst.grow(3).graph) == 2400


def test_inputs_follow_the_seed(tmp_path):
    def docs(seed):
        return [i.graph for i in CountOrbitCycles(seed, tmp_path).instances]

    assert docs(1) == docs(1)
    assert docs(1) != docs(2)


def test_verify_and_powergraph_operations(tmp_path):
    v = VerifySweep(1, tmp_path)
    assert len(v.pass_ops) == 25
    assert {op.expect["instances"] for op in v.pass_ops} == {EXHAUSTIVE_INSTANCES[3] + 80}
    p = PowergraphCli(1, tmp_path)
    assert len(p.pass_ops) == 3 * 63
    answers = {op.key: op.expect["answer"] for op in p.pass_ops if op.kind == "count"}
    assert answers["symmetric:5 count"] == 31 and answers["cyclic:60 count"] == 1


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 0.9)
    assert harness.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 0.5)


def _one_pass(workload):
    cli = harness.import_cli()
    return harness.closed_loop(workload, cli.main, 0)


def test_checks_pass_on_the_program(tmp_path):
    for w in (CountOrbitCycles(3, tmp_path, pool=2), PowergraphCli(3, tmp_path, specs=["symmetric:4"])):
        result = _one_pass(w)
        assert result.attempted == len(w.pass_ops) and result.failed == 0, result.errors


def test_wrong_known_answer_counts_as_failure(tmp_path):
    w = CountOrbitCycles(3, tmp_path, pool=2)
    w.pass_ops[0].expect["answer"] += 1
    result = _one_pass(w)
    assert result.failed == 1 and result.failed / result.attempted > 0


def test_changed_output_bytes_count_as_failure(tmp_path):
    w = CountCeComponents(3, tmp_path, pool=1)
    w.seen[w.pass_ops[0].key] = b"{}"
    assert _one_pass(w).failed == 1


def test_tracer_records_aliases_and_restores(tmp_path):
    cli = harness.import_cli()
    partitions = sys.modules["quograph.partitions"]
    original = partitions.is_complete
    t = tracer.Tracer()
    t.install(tracer.ALL)
    try:
        w = CountOrbitCycles(4, tmp_path, pool=1)
        t.begin_op("count")
        assert cli.main(w.pass_ops[0].argv) == 0
    finally:
        t.uninstall()
    assert partitions.is_complete is original
    names = {span[tracer.NAME] for span in t.spans}
    assert {"cli.main", "partitions.quotient", "homs.is_complete", "graphs.components", "counting.count_orbit"} <= names
    assert len(t.per_op("homs.classify")) == 1


def test_interaction_table_covers_every_per_layer_metric():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    table = json.loads((BENCH_DIR / "interactions.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    assert set(table["workloads"]) == names
    assert set(table["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for entry in table["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) <= names and set(entry["not_on"]) <= names
        assert not set(entry["on"]) & set(entry["not_on"])
