#!/usr/bin/env python3
"""Benchmark of the quograph CLI: one workload per process, seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload count_orbit_cycles --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.  Each
metric is printed on its own line with its unit, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def end_to_end(workload_cls, seed: int, seconds: float, workdir: Path):
    checks = harness.LoopResult()
    cli, workload, setup_s = harness.set_up(workload_cls, seed, workdir, checks)
    loop = harness.closed_loop(workload, cli.main, seconds, harness.samples_for(0.9))
    metrics = {
        "ops_per_s": (loop.work / loop.scaled_elapsed, "1/s"),
        "op_s.p50": (harness.percentile(loop.seconds, 0.5), "s"),
        "op_s.p90": (harness.percentile(loop.seconds, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "sizes": workload.sizes(),
        "samples": len(loop.seconds),
        "wall_op_s": f"p50 {harness.percentile(loop.wall_seconds, 0.5):.6g} s, p90 {harness.percentile(loop.wall_seconds, 0.9):.6g} s (unscaled)",
    }
    return metrics, notes, [checks, loop]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    work_root = harness.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = layers.traced if args.trace else end_to_end
        metrics, notes, loops = run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in loops)
    failed = sum(r.failed for r in loops)
    for r in loops:
        for problem in r.errors:
            print(f"FAILED {problem}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
