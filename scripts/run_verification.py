#!/usr/bin/env python3
"""Run the claim-checking suite and print a per-claim summary table.

Same engine as `quograph verify`, but keeps the full report in memory and
prints instance counts instead of raw JSON.  Exit code 3 if any claim
recorded a failure.
"""

from __future__ import annotations

import argparse
import time

from quograph.verify import SweepConfig, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=5)
    ap.add_argument("--max-target-vertices", type=int, default=3)
    ap.add_argument("--random", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", help="also write the full JSON report here")
    args = ap.parse_args()

    try:
        cfg = SweepConfig(
            max_source_vertices=args.max_vertices,
            max_target_vertices=args.max_target_vertices,
            random_instances=args.random,
            seed=args.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))
    start = time.perf_counter()
    report = run_suite(cfg)
    elapsed = time.perf_counter() - start

    width = max(len(c.claim) for c in report.claims)
    print(f"{'claim':<{width}}  instances  failures")
    for c in sorted(report.claims, key=lambda c: c.claim):
        print(f"{c.claim:<{width}}  {c.instances:9d}  {c.failure_count:8d}")
    status = "all claims hold" if report.passed else "FAILURES RECORDED"
    print(f"\n{status} ({elapsed:.1f}s, seed {cfg.seed})")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    return 0 if report.passed else 3


if __name__ == "__main__":
    raise SystemExit(main())
