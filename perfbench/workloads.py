"""Seeded inputs, operations and output checks for the benchmark workloads.

Every operation is one ``quograph.cli.main(argv)`` call made in-process: the
program sees only the generated JSON files and argv.  Each workload knows the
answer of every operation from how its inputs were built, checks it again
against the benchmark's own union-find over the graph JSON, and requires a
repeated operation on the same input to print the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Claim-instances of the exhaustive verify layers, fixed by the bound and
# independent of the seed; each randomized orbit instance adds 8 more.
EXHAUSTIVE_INSTANCES = {3: 5_104, 4: 76_443}
RANDOM_CLAIMS_PER_INSTANCE = 8

SYMMETRIC_COMPONENTS = {2: 1, 3: 4, 4: 13, 5: 31}


def union_find_count(graph_doc: dict) -> int:
    """Components of a graph document, by the benchmark's own union-find."""
    parent = {v: v for v in graph_doc["vertices"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    for u, v in graph_doc["edges"]:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


@dataclass
class Instance:
    """One generated count input: documents, known answer and sizes."""

    graph: dict
    partition: dict
    group: dict  # the orbits' generator; count_ce_components does not pass it to the CLI
    answer: int
    target_components: int
    grow: Callable[[int], "Instance"] = field(repr=False, compare=False)

    def sizes(self) -> dict:
        return {
            "vertices": len(self.graph["vertices"]),
            "edges": len(self.graph["edges"]),
            "cells": len(self.partition["blocks"]),
            "target_components": self.target_components,
        }


@dataclass
class Op:
    """One CLI call; ``key`` names its input for the repeated-bytes check."""

    kind: str
    argv: list[str]
    key: str
    expect: dict = field(default_factory=dict)
    files: tuple[Path, ...] = ()


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _labels(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded two-letter tags, so sort order varies with the seed."""
    tags = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"]
    return rng.sample(tags, n)


# ------------------------------------------------------------ count inputs

def cycle_base(rng: random.Random, length: int, chords: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Labels and edges (by position) of an L-cycle with seeded chords."""
    edges = [(j, (j + 1) % length) for j in range(length)]
    candidates = [(i, j) for i in range(length) for j in range(i + 2, length) if (i, j) != (0, length - 1)]
    edges += rng.sample(candidates, chords)
    return _labels(rng, length), edges


def cycle_copies(labels: list[str], edges: list[tuple[int, int]], k: int) -> Instance:
    """k copies of a connected base graph; the copy shift generates the group."""

    def v(j, i):
        return f"{labels[j]}.{i:03d}"

    n = len(labels)
    graph = {
        "vertices": [v(j, i) for i in range(k) for j in range(n)],
        "edges": [[v(a, i), v(b, i)] for i in range(k) for a, b in edges],
    }
    partition = {"blocks": [[v(j, i) for i in range(k)] for j in range(n)]}
    group = {"generators": [{v(j, i): v(j, (i + 1) % k) for i in range(k) for j in range(n)}]}
    return Instance(graph, partition, group, k, 1, lambda f: cycle_copies(labels, edges, k * f))


# Each copy's vertices, proper edges, automorphism-orbit cells and one
# automorphism generating those orbits, by position in the copy.
_SMALL_COPIES = {
    "edge": (2, [(0, 1)], [[0, 1]], [1, 0]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]], [1, 2, 0]),
    "path": (3, [(0, 1), (1, 2)], [[0, 2], [1]], [2, 1, 0]),
}


def small_copies(seed: float, copies: int) -> Instance:
    """Disjoint edges, triangles and 3-paths, each collapsed by its own orbits."""
    rng = random.Random(seed)
    prefix = "".join(_labels(rng, 1))
    vertices, edges, blocks, shift = [], [], [], {}
    kinds = (sorted(_SMALL_COPIES) * copies)[:copies]  # equal shares, seeded order
    rng.shuffle(kinds)
    for c, kind in enumerate(kinds):
        n, pairs, cells, aut = _SMALL_COPIES[kind]
        names = [f"{prefix}{c:04d}.{x}" for x in "abc"[:n]]
        vertices += names
        edges += [[names[a], names[b]] for a, b in pairs]
        blocks += [[names[x] for x in cell] for cell in cells]
        shift.update({names[x]: names[aut[x]] for x in range(n)})
    graph = {"vertices": vertices, "edges": edges}
    group = {"generators": [shift]}
    return Instance(graph, {"blocks": blocks}, group, copies, copies, lambda f: small_copies(seed, copies * f))


# --------------------------------------------------------------- workloads

class Workload:
    """Inputs of one workload, written under ``workdir``, and its operations.

    ``pass_ops`` is one pass over every input; the timed loop runs whole
    passes, so every run measures the same mix of inputs.
    """

    name = ""
    probe_kwargs: dict = {}  # a one-pass miniature, used to trace layers another workload skips

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.pass_ops: list[Op] = []
        self.instances: list[Instance] = []
        self.seen: dict[str, bytes] = {}

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops[:1]

    def check(self, op: Op, rc, out: str) -> str | None:
        """Why the operation's output is wrong, or None when it is right."""
        if rc != 0:
            return f"{op.key}: exit code {rc}"
        produced = out.encode() + b"".join(p.read_bytes() for p in op.files)
        if self.seen.setdefault(op.key, produced) != produced:
            return f"{op.key}: output bytes differ from an earlier run on the same input"
        return self.check_answer(op, out)

    def check_answer(self, op: Op, out: str) -> str | None:
        raise NotImplementedError

    def work(self, op: Op, out: str) -> int:
        """Units of work one passing operation completed."""
        return 1

    def sizes(self) -> dict:
        """Median instance sizes over the pool."""
        per = [inst.sizes() for inst in self.instances]
        return {k: sorted(s[k] for s in per)[len(per) // 2] for k in per[0]} if per else {}


class CountWorkload(Workload):
    """``count G P [--group GRP]`` over a seeded pool of generated inputs."""

    route = "count_orbit"  # the counter ``--method auto`` picks; only this route gets --group
    probe_kwargs = {"pool": 1}

    def __init__(self, seed: int, workdir: Path, pool: int = 10):
        super().__init__(seed, workdir)
        self.instances = self.generate(pool)
        for i, inst in enumerate(self.instances):
            base = workdir / f"{self.name}-{i}"
            paths = [Path(f"{base}.graph.json"), Path(f"{base}.partition.json")]
            _write(paths[0], inst.graph)
            _write(paths[1], inst.partition)
            argv = ["count", str(paths[0]), str(paths[1])]
            if self.route == "count_orbit":
                paths.append(Path(f"{base}.group.json"))
                _write(paths[2], inst.group)
                argv += ["--group", str(paths[2])]
            expect = {"answer": inst.answer, "union_find": union_find_count(inst.graph)}
            self.pass_ops.append(Op("count", argv, f"instance {i}", expect))

    def generate(self, pool: int) -> list[Instance]:
        raise NotImplementedError

    def check_answer(self, op: Op, out: str) -> str | None:
        total = json.loads(out)["total"]
        if total != op.expect["answer"] or total != op.expect["union_find"]:
            return f"{op.key}: count {total}, expected {op.expect['answer']} (union-find {op.expect['union_find']})"
        return None


class CountOrbitCycles(CountWorkload):
    name = "count_orbit_cycles"

    # Every cycle length twice, with k*L near 1000, and fixed multisets of
    # chord counts and of k offsets, so each pass has the same size mix
    # whatever the seed; the seed pairs them up and places the chords.
    LENGTHS = [8, 9, 10, 11, 12] * 2
    CHORDS = [0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
    K_OFFSETS = [-3, -2, -1, 0, 0, 0, 0, 1, 2, 3]

    def generate(self, pool):
        draws = [self.rng.sample(self.LENGTHS, pool), self.rng.sample(self.CHORDS, pool), self.rng.sample(self.K_OFFSETS, pool)]
        out = []
        for length, chords, offset in zip(*draws):
            k = min(120, max(80, round(1000 / length) + offset))
            out.append(cycle_copies(*cycle_base(self.rng, length, chords), k))
        return out


class CountCeComponents(CountWorkload):
    name = "count_ce_components"
    route = "count_ce"

    def generate(self, pool):
        return [small_copies(self.rng.random(), 800) for _ in range(pool)]


class VerifySweep(Workload):
    """``verify --max-vertices 3 --random 10 --seed S`` for 25 seeded S.

    The seed S sets which random instances an operation checks, and their
    cost varies; 25 of them per pass keep the p90 from resting on one or
    two heavy ones.
    """

    name = "verify_sweep"
    max_vertices = 3
    random_instances = 10
    probe_kwargs = {"ops": 1}

    def __init__(self, seed: int, workdir: Path, ops: int = 25):
        super().__init__(seed, workdir)
        for _ in range(ops):
            self.pass_ops.append(self.verify_op(self.max_vertices, self.random_instances, self.rng.randrange(10**6)))

    @staticmethod
    def verify_op(max_vertices: int, random_instances: int, seed: int) -> Op:
        argv = ["verify", "--max-vertices", str(max_vertices), "--random", str(random_instances), "--seed", str(seed)]
        instances = EXHAUSTIVE_INSTANCES[max_vertices] + RANDOM_CLAIMS_PER_INSTANCE * random_instances
        return Op("verify", argv, f"verify seed {seed}", {"instances": instances})

    def check_answer(self, op, out):
        report = json.loads(out)
        failures = sum(c["failure_count"] for c in report["claims"])
        instances = sum(c["instances"] for c in report["claims"])
        if not report["passed"] or failures:
            return f"{op.key}: {failures} claim failures"
        if instances != op.expect["instances"]:
            return f"{op.key}: {instances} claim-instances, expected {op.expect['instances']}"
        return None

    def work(self, op, out):
        return op.expect["instances"]

    def sizes(self):
        return {"claim_instances_per_op": self.pass_ops[0].expect["instances"]}


class PowergraphCli(Workload):
    """powergraph, then orbits, then count --group, for every built-in SPEC."""

    name = "powergraph_cli"
    specs = [f"cyclic:{n}" for n in range(2, 61)] + [f"symmetric:{n}" for n in range(2, 6)]
    probe_kwargs = {"specs": ["symmetric:4"]}

    def __init__(self, seed: int, workdir: Path, specs: list[str] | None = None):
        super().__init__(seed, workdir)
        specs = list(specs or self.specs)
        self.rng.shuffle(specs)
        self.pass_ops = [op for spec in specs for op in self.spec_ops(spec)]

    def spec_ops(self, spec: str) -> list[Op]:
        kind, _, n = spec.partition(":")
        answer = SYMMETRIC_COMPONENTS[int(n)] if kind == "symmetric" else 1
        base = self.workdir / spec.replace(":", "-")
        graph, group, orbits = (Path(f"{base}.{s}.json") for s in ("graph", "group", "orbits"))
        return [
            Op("powergraph", ["powergraph", "--group", spec, "--proper", "--out", str(base)], f"{spec} powergraph", files=(graph, group)),
            Op("orbits", ["orbits", str(graph), str(group), "--out", str(orbits)], f"{spec} orbits", files=(orbits,)),
            Op("count", ["count", str(graph), str(orbits), "--group", str(group)], f"{spec} count", {"answer": answer, "graph": graph}),
        ]

    def warmup_ops(self):
        return self.spec_ops("cyclic:12")

    def check_answer(self, op, out):
        if op.kind != "count":
            return None
        total = json.loads(out)["total"]
        direct = union_find_count(json.loads(op.expect["graph"].read_text(encoding="utf-8")))
        if total != op.expect["answer"] or total != direct:
            return f"{op.key}: count {total}, expected {op.expect['answer']} (union-find {direct})"
        return None

    def sizes(self):
        return {"specs": len(self.pass_ops) // 3, "ops_per_pass": len(self.pass_ops)}


WORKLOADS = {w.name: w for w in (CountOrbitCycles, CountCeComponents, VerifySweep, PowergraphCli)}
