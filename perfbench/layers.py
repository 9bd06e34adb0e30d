"""The traced run: per-layer metrics of one workload.

Half of the run repeats the workload's loop with tracing off and half with
tracing on; the difference of their p50s is the tracing overhead.  A layer
the workload's own path does not call is timed standalone on the workload's
count inputs, or traced on a one-pass miniature of the other workloads, so
every metric has a value on every workload.  ``interactions.json`` records
on which workloads each metric is expected to move the end-to-end figures.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import harness
from tracer import ALL, COARSE, END, NAME, OP, PREDICATES, START, Tracer
from workloads import WORKLOADS, CountOrbitCycles, CountWorkload, VerifySweep

LOOP_KINDS = {"count", "verify", "powergraph", "orbits"}

# Median seconds spent in the function per operation that calls it.
SPAN_METRICS = [
    "io.load_graph",
    "io.load_partition",
    "io.load_group",
    "io.dumps",
    "graphs.Graph",
    "graphs.components",
    "partitions.quotient",
    "partitions.is_equitable",
    "homs.classify",
    "homs.is_complete",
    "homs.is_tame",
    "homs.is_locally_surjective",
    "homs.is_locally_injective",
    "homs.is_locally_strong",
    "homs.is_component_equitable",
    "perms.orbit_partition",
    "perms.verify_automorphisms",
    "perms.is_consistent",
    "counting.count_ce",
    "counting.count_orbit",
    "groups.make_group",
    "groups.proper_power_graph",
    "groups.conjugation_group",
    "verify.sweep_partition_claims",
    "verify.sweep_hom_claims",
    "verify.sweep_orbit_claims",
    "verify.sweep_random_claims",
]

# Functions timed standalone on count inputs, and whose growth is measured.
GROWTH = [
    "homs.is_complete",
    "homs.is_tame",
    "homs.is_locally_surjective",
    "homs.is_locally_injective",
    "homs.is_locally_strong",
    "homs.is_component_equitable",
    "partitions.is_equitable",
    "counting.count_ce",
    "counting.count_orbit",
    "counting.count_admissible",
]

IMPORT_REPEATS = 3
GROWTH_REPEATS = 3
GROWTH_FACTOR = 3
STANDALONE_INPUTS = 3  # count inputs each standalone median is taken over


def _quograph(module: str):
    return sys.modules[f"quograph.{module}"]


def _fresh(inst, with_group: bool):
    """Graph, partition, projection and group built anew from an instance."""
    io = _quograph("io")
    g = io.graph_from_dict(inst.graph)
    p = io.partition_from_dict(inst.partition, g)
    m = _quograph("partitions").quotient(g, p).projection
    return g, p, m, io.group_from_dict(inst.group, g) if with_group else None


def standalone_seconds(name: str, inst) -> float:
    """Seconds of one call of ``name`` on objects built fresh from ``inst``."""
    module, fn = name.split(".")
    g, p, m, grp = _fresh(inst, name == "counting.count_orbit")
    args = {"partitions.is_equitable": (g, p), "counting.count_orbit": (m, grp)}.get(name, (m,))
    fn = getattr(_quograph(module), fn)
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def growth(name: str, inst, big) -> float:
    """Base-3 log of the time ratio between a 3x larger instance and this one.

    The larger instance is timed once: at 3x, a quadratic function already
    takes seconds, and its time is far above the noise.
    """
    small_s = statistics.median(standalone_seconds(name, inst) for _ in range(GROWTH_REPEATS))
    return math.log(standalone_seconds(name, big) / small_s, GROWTH_FACTOR)


def quotient_vs_direct(instances, route: str) -> float:
    """(quotient + the route's counter) over components, on fresh graphs."""
    io, counting = _quograph("io"), _quograph("counting")
    via, direct = [], []
    for inst in instances:
        g = io.graph_from_dict(inst.graph)
        start = time.perf_counter()
        g.components()
        direct.append(time.perf_counter() - start)
        g = io.graph_from_dict(inst.graph)
        p = io.partition_from_dict(inst.partition, g)
        grp = io.group_from_dict(inst.group, g) if route == "count_orbit" else None
        start = time.perf_counter()
        m = _quograph("partitions").quotient(g, p).projection
        counting.count_orbit(m, grp) if grp is not None else counting.count_ce(m)
        via.append(time.perf_counter() - start)
    return statistics.median(via) / statistics.median(direct)


def minimal_pipeline(argv) -> str:
    """What ``count`` must do at least: three loads, quotient, counter, components, dumps."""
    io, counting = _quograph("io"), _quograph("counting")
    g = io.load_graph(argv[1])
    p = io.load_partition(argv[2], g)
    grp = io.load_group(argv[4], g) if len(argv) > 4 else None
    m = _quograph("partitions").quotient(g, p).projection
    breakdown = counting.count_orbit(m, grp) if grp is not None else counting.count_ce(m)
    g.components()
    return io.dumps(breakdown.as_dict())


def paired_pass(tracer: Tracer, workload, checks: harness.LoopResult) -> None:
    """One traced pass; each count operation is followed by the minimal
    pipeline on the same input, which must print what the CLI printed.
    Back to back, the pair sees the same machine speed."""
    main = _quograph("cli").main
    pipeline = tracer.wrap("pipeline", minimal_pipeline)
    for op in workload.pass_ops:
        tracer.begin_op(op.kind)
        checks.record(workload, op, *harness.run_op(main, op))
        if op.kind == "count":
            tracer.begin_op("pipeline")
            same = pipeline(op.argv).encode() == workload.seen.get(op.key)
            checks.note(None if same else f"{op.key}: minimal pipeline output differs from the CLI output")


def count_overhead(tracer: Tracer) -> float | None:
    """Median over paired runs of the cli.main count span minus the pipeline span."""
    main = {s[OP]: s[END] - s[START] for s in tracer.spans if s[NAME] == "cli.main"}
    diffs = [main[s[OP] - 1] - (s[END] - s[START]) for s in tracer.spans if s[NAME] == "pipeline" and s[OP] - 1 in main]
    return statistics.median(diffs) if diffs else None


def import_seconds() -> float:
    """Median seconds one fresh interpreter takes to import quograph.cli."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import quograph.cli; print(time.perf_counter() - t)"
    runs = [
        float(subprocess.run([sys.executable, "-c", code, str(harness.ROOT / "src")], check=True, capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(runs)


def enumeration_seconds(max_vertices: int) -> tuple[float, float]:
    """Seconds to enumerate the sweep's graphs, and all maps between them, with no claims."""
    verify = _quograph("verify")
    start = time.perf_counter()
    graphs = list(verify.enumerate_graphs(max_vertices))
    graphs_s = time.perf_counter() - start
    start = time.perf_counter()
    for src in graphs:
        for tgt in graphs:
            for _ in verify.enumerate_homs(src, tgt):
                pass
    return graphs_s, time.perf_counter() - start


def traced(workload_cls, seed: int, seconds: float, workdir):
    checks = harness.LoopResult()
    cli, workload, _ = harness.set_up(workload_cls, seed, workdir, checks, repeats=1)
    untraced = harness.closed_loop(workload, cli.main, seconds / 2, harness.samples_for(0.5))

    own = Tracer()
    own.install(COARSE if workload_cls is VerifySweep else ALL)
    try:
        loop = harness.closed_loop(workload, cli.main, seconds / 2, harness.samples_for(0.5), own)
        paired_pass(own, workload, checks)
    finally:
        own.uninstall()

    probe = Tracer()
    miniatures = {}
    for cls in WORKLOADS.values():
        if cls is not workload_cls:
            miniatures[cls] = cls(seed, workdir, **cls.probe_kwargs)
            probe.install(COARSE if cls is VerifySweep else ALL)
            try:
                paired_pass(probe, miniatures[cls], checks)
            finally:
                probe.uninstall()

    if workload_cls is VerifySweep:  # the full default-sized sweep, checked once
        full = VerifySweep.verify_op(4, 200, seed)
        checks.record(workload, full, *harness.run_op(cli.main, full))

    count_inputs = (workload.instances or miniatures[CountOrbitCycles].instances)[:STANDALONE_INPUTS]
    route = workload.route if isinstance(workload, CountWorkload) else CountOrbitCycles.route
    metrics = {}
    for name in SPAN_METRICS:
        own_values = own.per_op(name, LOOP_KINDS)
        if own_values:
            value = statistics.median(own_values)
        elif name in GROWTH:
            value = statistics.median(standalone_seconds(name, inst) for inst in count_inputs)
        else:
            value = statistics.median(probe.per_op(name, LOOP_KINDS))
        metrics[f"{name}.s"] = (value, "s")
    metrics["counting.count_admissible.s"] = (
        statistics.median(standalone_seconds("counting.count_admissible", inst) for inst in count_inputs),
        "s",
    )

    preds = own if own.per_op("homs.classify", LOOP_KINDS) or own.per_op("homs.is_complete", LOOP_KINDS) else probe
    calls, distinct = preds.calls_per_op(PREDICATES, LOOP_KINDS)
    metrics["homs.pred_calls"] = (statistics.median(calls), "count")
    metrics["homs.pred_distinct_ratio"] = (distinct / sum(calls), "ratio")

    metrics["counting.quotient_vs_direct"] = (quotient_vs_direct(count_inputs, route), "ratio")
    big = count_inputs[0].grow(GROWTH_FACTOR)
    for name in GROWTH:
        metrics[f"{name}.growth"] = (growth(name, count_inputs[0], big), "log3")

    graphs_s, homs_s = enumeration_seconds(VerifySweep.max_vertices)
    verify_ops = workload if workload_cls is VerifySweep else miniatures[VerifySweep]
    metrics["verify.enumerate_graphs.s"] = (graphs_s, "s")
    metrics["verify.enumerate_homs.s"] = (homs_s, "s")
    metrics["verify.instances"] = (verify_ops.pass_ops[0].expect["instances"], "count")

    overhead = count_overhead(own)
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["cli.count.overhead_s"] = (overhead if overhead is not None else count_overhead(probe), "s")
    metrics["trace.overhead_s"] = (harness.percentile(loop.seconds, 0.5) - harness.percentile(untraced.seconds, 0.5), "s")

    # Per-layer seconds are scaled like the loop's, by the run's median reference timing.
    scale = harness.REFERENCE_S / statistics.median(untraced.references + loop.references)
    for name, (value, unit) in metrics.items():
        if unit == "s" and name != "trace.overhead_s":
            metrics[name] = (value * scale, unit)

    out_dir = harness.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    own.dump(out_dir / f"spans-{workload.name}-seed{seed}.json")
    probe.dump(out_dir / f"spans-{workload.name}-seed{seed}-probe.json")
    top = sorted(own.self_seconds().items(), key=lambda kv: -kv[1])[:12]
    notes = {
        "sizes": workload.sizes(),
        "samples": f"{len(untraced.seconds)} untraced, {len(loop.seconds)} traced",
        "scale": f"{scale:.4g} (reference seconds over the run's median reference timing)",
        "self_seconds": ", ".join(f"{name} {s:.3f}" for name, s in top),
    }
    return metrics, notes, [checks, untraced, loop]
