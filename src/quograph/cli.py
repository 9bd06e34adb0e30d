"""Command-line front end: JSON files in, JSON on standard output.

Exit codes: 0 success, 1 I/O or parse error, 2 hypothesis violation,
3 internal invariant failure (including verification-claim failures).

Each command runs with Python's cyclic garbage collector paused, and its
earlier state is restored when the command ends.  quograph builds no
reference cycles, so reference counting alone frees what a command
allocates.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from dataclasses import asdict

from . import counting, groups, homs, io, partitions, perms, verify
from .errors import HypothesisError, InternalCheckError


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with the parse-error code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(payload, out_path=None) -> None:
    if out_path:
        io.save_json(out_path, payload)
    else:
        sys.stdout.write(io.dumps(payload))


def _emit_parts(parts: dict, prefix=None) -> None:
    """Each named payload to ``PREFIX.<name>.json`` in order, or all on stdout as one object."""
    if prefix:
        for name, payload in parts.items():
            io.save_json(f"{prefix}.{name}.json", payload)
    else:
        _emit(parts)


def cmd_components(args) -> int:
    comp = io.load_graph(args.graph).components()
    _emit({"c": comp.count, **io.partition_to_dict(comp)}, args.out)
    return 0


def cmd_quotient(args) -> int:
    g = io.load_graph(args.graph)
    p = io.load_partition(args.partition, g)
    q = partitions.quotient(g, p)
    _emit_parts({"quotient": io.graph_to_dict(q.quotient), "projection": io.hom_to_dict(q.projection)}, args.out)
    return 0


def cmd_classify(args) -> int:
    src = io.load_graph(args.source)
    tgt = io.load_graph(args.target)
    m = io.load_hom(args.map, src, tgt)
    grp = io.load_group(args.group, src) if args.group else None
    _emit(asdict(homs.classify(m, grp)), args.out)
    return 0


def _count(method: str, m, grp):
    if method == "A":
        return counting.count_admissible(m)
    if method == "ce":
        return counting.count_ce(m)
    if grp is None:
        raise HypothesisError("hypotheses not satisfied: orbit (no group supplied)")
    return counting.count_orbit(m, grp)


def cmd_count(args) -> int:
    g = io.load_graph(args.graph)
    p = io.load_partition(args.partition, g)
    m = partitions.quotient(g, p).projection
    grp = io.load_group(args.group, g) if args.group else None
    # auto tries the counters in order; each checks its own hypotheses, and
    # the last one's refusal is the error reported
    methods = ("B", "ce", "A") if args.method == "auto" else (args.method,)
    for method in methods:
        try:
            breakdown = _count(method, m, grp)
            break
        except HypothesisError:
            if method == methods[-1]:
                raise
    _emit(breakdown.as_dict(), args.out)
    return 0


def cmd_orbits(args) -> int:
    g = io.load_graph(args.graph)
    grp = io.load_group(args.group, g)
    _emit(io.partition_to_dict(perms.orbit_partition(grp)), args.out)
    return 0


def _group_from_spec(spec: str):
    kind, sep, rest = spec.partition(":")
    if sep:
        if kind == "cayley":
            return io.load_cayley(rest)
        # an order is ASCII decimal digits only: int() would also take
        # signs, spaces, underscores and other scripts' digits
        if kind in ("cyclic", "symmetric") and rest.isascii() and rest.isdecimal():
            digits = rest.lstrip("0") or "0"
            # int() refuses more than 4,300 digits, and every builder's range
            # ends far below 9 of them: refuse a long order unconverted
            if len(digits) > 9:
                raise ValueError(f"{kind} order of {len(digits)} digits out of the supported range")
            if kind == "cyclic":
                return groups.make_cyclic(int(digits))
            return groups.make_symmetric(int(digits))
    raise ValueError(f"unrecognized group spec {spec!r}; use cyclic:N, symmetric:N, or cayley:PATH")


def cmd_powergraph(args) -> int:
    group = _group_from_spec(args.group)
    g = groups.proper_power_graph(group) if args.proper else groups.power_graph(group)
    grp = groups.conjugation_group(group, g)
    _emit_parts({"graph": io.graph_to_dict(g), "group": io.group_to_dict(grp)}, args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = verify.SweepConfig(
        max_source_vertices=args.max_vertices,
        max_target_vertices=min(args.max_vertices, 3),
        random_instances=args.random,
        seed=args.seed,
    )
    report = verify.run_suite(cfg)
    _emit(report.as_dict(), args.out)
    return 0 if report.passed else 3


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="quograph", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("components", help="connected components of a graph file")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("quotient", help="quotient graph and projection for a partition")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--out", metavar="PREFIX", help="write PREFIX.quotient.json and PREFIX.projection.json")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("classify", help="classify a vertex map between two graphs")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("--group", help="permutation group file over the source graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="count components through a quotient projection")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--group", help="permutation group file over the graph")
    p.add_argument("--method", choices=["auto", "A", "B", "ce"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("orbits", help="orbit partition of a permutation group")
    p.add_argument("graph")
    p.add_argument("group")
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("powergraph", help="power graph of a built-in or Cayley-table group")
    p.add_argument("--group", required=True, metavar="SPEC", help="cyclic:N, symmetric:N, or cayley:PATH")
    p.add_argument("--proper", action="store_true", help="delete the identity vertex")
    p.add_argument("--out", metavar="PREFIX", help="write PREFIX.graph.json and PREFIX.group.json")
    p.set_defaults(func=cmd_powergraph)

    p = sub.add_parser("verify", help="run the verification suite and emit its report")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-vertices", type=int, default=5)
    p.add_argument("--random", type=int, default=1000, help="randomized orbit-quotient instances")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the pause costs no memory only while no command leaves a reference
    # cycle behind: tests/test_cli.py::TestCollectorPause checks each one
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
