"""The closed loop, set-up timing and the statistics the benchmark reports.

One client in one thread sends the next operation only after the previous
one returned.  The loop runs whole passes over a workload's inputs until the
requested seconds have gone by, so every run measures the same input mix.

The machine this runs on is shared: its speed for plain Python code swings
by up to 40% over spans of seconds to minutes, as neighbours come and go.  So
the loop times a fixed piece of reference work (``reference_work``) every
quarter second, between operations, and scales the times of the operations
in between by ``REFERENCE_S`` over the mean of the two reference timings
around them.  Reported seconds are therefore seconds at the speed where the
reference work takes ``REFERENCE_S``; the unscaled wall seconds are kept
alongside and printed too.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REFERENCE_S = 0.0025
WINDOW_S = 0.25


_REF_LABELS = [f"r{i:05d}" for i in range(400)]
_REF_EDGES = [(_REF_LABELS[i], _REF_LABELS[(7 * i + 3) % 400]) for i in range(400) if (7 * i + 3) % 400 != i]
_REF_ELEMENTS = [str(i) for i in range(30)]
_REF_TABLE = {(a, b): _REF_ELEMENTS[(i + j) % 30] for i, a in enumerate(_REF_ELEMENTS) for j, b in enumerate(_REF_ELEMENTS)}


def reference_work() -> int:
    """Fixed work of the two kinds quograph does most, about 2.5 ms in all.

    Graph work: closed neighbourhoods of a 400-vertex graph and its
    components.  Table work: associativity checks on random triples of a
    Cayley table, as group validation does.  Plain string or arithmetic
    loops track the machine's speed for quograph's operations poorly; this
    mix tracks it closely on every workload.
    """
    nbhd = {v: {v} for v in _REF_LABELS}
    for u, v in _REF_EDGES:
        nbhd[u].add(v)
        nbhd[v].add(u)
    frozen = {v: frozenset(s) for v, s in nbhd.items()}
    seen: set[str] = set()
    count = 0
    for start in sorted(_REF_LABELS):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for y in frozen[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    rng, table = random.Random(0), _REF_TABLE
    for _ in range(1000):
        a, b, c = rng.choice(_REF_ELEMENTS), rng.choice(_REF_ELEMENTS), rng.choice(_REF_ELEMENTS)
        count += table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
    return count


def reference_seconds() -> float:
    """Median of three timings of ``reference_work``."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def samples_for(q: float) -> int:
    """Fewest samples a p<q> needs: ten beyond it, plus a tenth for margin."""
    return math.ceil(11 / (1 - q))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile that has at least ten samples beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < 10:
        raise ValueError(f"a p{round(q * 100)} needs 10 samples beyond it; {n} samples leave {n - rank}")
    return sorted(samples)[rank - 1]


def run_op(main, op):
    """Call ``main(op.argv)``; return (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an operation that raises counts as failed
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


@dataclass
class LoopResult:
    """What a loop measured: scaled and wall seconds per operation, the work
    done, the checks made and failed, and the reference timings."""

    seconds: list = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_seconds: list = field(default_factory=list)
    scaled_elapsed: float = 0.0
    references: list = field(default_factory=list)

    def note(self, problem: str | None) -> None:
        """Count one checked operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(problem)

    def record(self, workload, op, rc, out, err, seconds) -> None:
        """Check one timed operation and count its time and work."""
        self.wall_seconds.append(seconds)
        try:
            problem = workload.check(op, rc, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problem = f"{op.key}: unreadable output ({type(exc).__name__}: {exc})"
        if problem is None:
            self.work += workload.work(op, out)
        elif err.strip():
            problem += f" [{err.strip()}]"
        self.note(problem)


class _ScaledClock:
    """Times reference work every ``WINDOW_S`` of loop time and scales the
    operations of each window by the mean of the two timings around it."""

    def __init__(self, result: LoopResult):
        self.result = result
        self.reference = reference_seconds()
        result.references.append(self.reference)
        self.start = time.perf_counter()
        self.first = len(result.wall_seconds)

    def window(self, force: bool = False) -> float:
        """Close the window if it is due (or ``force``); its scaled seconds."""
        elapsed = time.perf_counter() - self.start
        if not force and elapsed < WINDOW_S:
            return 0.0
        before, self.reference = self.reference, reference_seconds()
        self.result.references.append(self.reference)
        scale = REFERENCE_S / ((before + self.reference) / 2)
        self.result.seconds += [s * scale for s in self.result.wall_seconds[self.first :]]
        self.first = len(self.result.wall_seconds)
        self.start = time.perf_counter()
        return elapsed * scale


def closed_loop(workload, main, seconds: float, min_samples: int = 0, tracer=None) -> LoopResult:
    """Run whole passes of ``workload.pass_ops``, at least one, until
    ``seconds`` have passed and ``min_samples`` operations have run."""
    result = LoopResult()
    clock = _ScaledClock(result)
    start = time.perf_counter()
    while True:
        for op in workload.pass_ops:
            if tracer is not None:
                tracer.begin_op(op.kind)
            result.record(workload, op, *run_op(main, op))
            result.scaled_elapsed += clock.window()
        result.scaled_elapsed += clock.window(force=True)
        if time.perf_counter() - start >= seconds and len(result.seconds) >= min_samples:
            return result


def import_cli():
    """Import ``quograph.cli`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "quograph" or m.startswith("quograph.")]:
        del sys.modules[name]
    return importlib.import_module("quograph.cli")


def set_up(workload_cls, seed: int, workdir, checks: LoopResult, repeats: int = SETUP_REPEATS):
    """Import, generate and write the inputs, and warm up, ``repeats`` times.

    Returns the CLI module, the last workload built and the median set-up
    seconds, scaled like the loop's.  Warm-up operations are checked like
    timed ones, into ``checks``.
    """
    durations = []
    reference = reference_seconds()
    for _ in range(repeats):
        start = time.perf_counter()
        cli = import_cli()
        workload = workload_cls(seed, workdir)
        for op in workload.warmup_ops():
            checks.record(workload, op, *run_op(cli.main, op))
        elapsed = time.perf_counter() - start
        before, reference = reference, reference_seconds()
        durations.append(elapsed * REFERENCE_S / ((before + reference) / 2))
    return cli, workload, statistics.median(durations)
