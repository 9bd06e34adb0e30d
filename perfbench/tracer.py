"""Spans around quograph's public functions, recorded from the benchmark's side.

``Tracer.install`` swaps each target function for a timing wrapper in every
loaded quograph module that holds a reference to it (so ``from .homs import
is_complete`` is caught too), and ``uninstall`` puts the originals back.  A
span records its name, start, end, parent span, operation ID and the ID of
its first argument.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> the attributes it wraps, as "module.attribute" or
# "module.Class.method".  A name without an entry wraps itself.
TARGETS = {
    "graphs.Graph": ["graphs.Graph.__init__"],
    "graphs.components": ["graphs.Graph.components"],
    "groups.make_group": ["groups.make_cyclic", "groups.make_symmetric"],
}

PREDICATES = [
    "homs.classify",
    "homs.is_surjective",
    "homs.is_complete",
    "homs.is_tame",
    "homs.is_locally_surjective",
    "homs.is_locally_injective",
    "homs.is_locally_bijective",
    "homs.is_locally_strong",
    "homs.is_pseudo_covering",
    "homs.is_component_equitable",
]

VERIFY_LAYERS = [
    "verify.run_suite",
    "verify.sweep_partition_claims",
    "verify.sweep_hom_claims",
    "verify.sweep_orbit_claims",
    "verify.sweep_random_claims",
]

# The verify sweeps call the inner layers hundreds of thousands of times per
# operation, so a verify operation is traced at the sweep boundaries only.
COARSE = ["cli.main", "io.dumps", *VERIFY_LAYERS]

ALL = [
    "cli.main",
    "io.load_graph",
    "io.load_partition",
    "io.load_group",
    "io.dumps",
    "graphs.Graph",
    "graphs.components",
    "partitions.quotient",
    "partitions.is_equitable",
    *PREDICATES,
    "perms.orbit_partition",
    "perms.verify_automorphisms",
    "perms.is_consistent",
    "counting.count_ce",
    "counting.count_orbit",
    "counting.count_admissible",
    "groups.make_group",
    "groups.proper_power_graph",
    "groups.conjugation_group",
    *VERIFY_LAYERS,
]

NAME, START, END, PARENT, OP, ARG = range(6)


def _cached_components(args) -> bool:
    return args[0]._components is not None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin_op(self, kind: str) -> None:
        """Start a new operation; later spans carry its ID."""
        self.op_kinds.append(kind)

    def wrap(self, name: str, fn, skip=None):
        """``fn`` recording one span per call (none when ``skip(args)``)."""
        spans, stack, op_kinds = self.spans, self._stack, self.op_kinds

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(op_kinds) - 1, id(args[0]) if args else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, names) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "quograph" or key.startswith("quograph.")]
        for name in names:
            for path in TARGETS.get(name, [name]):
                module, *attrs = path.split(".")
                owner = sys.modules[f"quograph.{module}"]
                if len(attrs) == 2:  # a method: patch the class
                    owner = getattr(owner, attrs[0])
                    original = owner.__dict__[attrs[1]]
                    skip = _cached_components if name == "graphs.components" else None
                    self._patch(owner, attrs[1], self.wrap(name, original, skip))
                    continue
                original = getattr(owner, attrs[0])
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def per_op(self, name: str, kinds=None) -> list[float]:
        """Seconds spent in ``name`` during each operation that called it.

        Only outermost calls count, so a call nested in another call of the
        same name is not counted twice.  ``kinds`` limits the operations.
        """
        spans = self.spans
        totals: dict[int, float] = {}
        for span in spans:
            if span[NAME] != name or (kinds is not None and self.op_kinds[span[OP]] not in kinds):
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                totals[span[OP]] = totals.get(span[OP], 0.0) + span[END] - span[START]
        return list(totals.values())

    def calls_per_op(self, names, kinds) -> tuple[list[int], int]:
        """Calls to ``names`` per operation, and the distinct (name, argument) pairs."""
        wanted = set(names)
        calls: dict[int, int] = {}
        distinct = set()
        for span in self.spans:
            if span[NAME] in wanted and self.op_kinds[span[OP]] in kinds:
                calls[span[OP]] = calls.get(span[OP], 0) + 1
                distinct.add((span[OP], span[NAME], span[ARG]))
        return list(calls.values()), len(distinct)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: its spans minus their child spans."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span[NAME]] = out.get(span[NAME], 0.0) + span[END] - span[START]
            if span[PARENT] >= 0:
                parent = self.spans[span[PARENT]][NAME]
                out[parent] = out.get(parent, 0.0) - (span[END] - span[START])
        return out

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "parent", "op", "arg"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "op_kinds": self.op_kinds, "spans": self.spans}, fh)
