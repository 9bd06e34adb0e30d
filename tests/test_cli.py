from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import random
import shutil
import string
import subprocess
import sys
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quograph
from quograph import (
    Graph,
    Partition,
    PermGroup,
    make_cyclic,
    make_symmetric,
    quotient,
)
from quograph import io, verify
from quograph.cli import build_parser, main

from conftest import subprocess_env
from golden import (
    BLOCK_REFUSALS,
    CAYLEY_LOADER_REFUSALS,
    CAYLEY_TABLE_REFUSALS,
    EDGE_REFUSALS,
    GRAPH_REFUSALS,
    GROUP_LOADER_REFUSALS,
    LOADER_REFUSALS,
    MAP_REFUSALS,
    PARTITION_LOADER_REFUSALS,
    PARTITION_REFUSALS,
    balanced_two_component_map,
    two_arcs_graph,
)
from reference import cayley_to_dict, indent_dumps, make_klein_four


@pytest.fixture
def two_arcs_files(tmp_path):
    g = two_arcs_graph()
    io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
    p = Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)
    io.save_json(tmp_path / "p.json", io.partition_to_dict(p))
    return tmp_path


@pytest.fixture
def two_triangles_files(tmp_path):
    g = Graph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
    )
    swap = {f"a{i}": f"b{i}" for i in range(3)} | {f"b{i}": f"a{i}" for i in range(3)}
    grp = PermGroup(g.vertex_set, [swap])
    io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
    io.save_json(tmp_path / "grp.json", io.group_to_dict(grp))
    io.save_json(
        tmp_path / "p.json",
        io.partition_to_dict(Partition([["a0", "b0"], ["a1", "b1"], ["a2", "b2"]], g.vertex_set)),
    )
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComponents:
    def test_blocks_and_count(self, two_arcs_files, capsys):
        code, out, _ = run_cli(capsys, "components", str(two_arcs_files / "g.json"))
        assert code == 0
        assert json.loads(out) == {"c": 2, "blocks": [["1a", "3"], ["1b", "2"]]}

    def test_out_file(self, two_arcs_files, capsys):
        dest = two_arcs_files / "c.json"
        code, out, _ = run_cli(
            capsys, "components", str(two_arcs_files / "g.json"), "--out", str(dest)
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["c"] == 2


class TestQuotient:
    def test_stdout_payload(self, two_arcs_files, capsys):
        code, out, _ = run_cli(
            capsys, "quotient", str(two_arcs_files / "g.json"), str(two_arcs_files / "p.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["quotient"]["vertices"] == ["[1a]", "[2]", "[3]"]
        assert doc["quotient"]["edges"] == [["[1a]", "[2]"], ["[1a]", "[3]"]]
        assert doc["projection"]["map"] == {"1a": "[1a]", "1b": "[1a]", "2": "[2]", "3": "[3]"}

    def test_prefix_writes_two_files(self, two_arcs_files, capsys):
        prefix = two_arcs_files / "q"
        code, out, _ = run_cli(
            capsys,
            "quotient",
            str(two_arcs_files / "g.json"),
            str(two_arcs_files / "p.json"),
            "--out",
            str(prefix),
        )
        assert code == 0 and out == ""
        q = json.loads((two_arcs_files / "q.quotient.json").read_text())
        proj = json.loads((two_arcs_files / "q.projection.json").read_text())
        assert len(q["vertices"]) == 3
        assert set(proj["map"]) == set("1a 1b 2 3".split())


class TestClassify:
    def test_balanced_example(self, tmp_path, capsys):
        m = balanced_two_component_map()
        io.save_json(tmp_path / "src.json", io.graph_to_dict(m.source))
        io.save_json(tmp_path / "tgt.json", io.graph_to_dict(m.target))
        io.save_json(tmp_path / "map.json", io.hom_to_dict(m))
        code, out, _ = run_cli(
            capsys,
            "classify",
            str(tmp_path / "src.json"),
            str(tmp_path / "tgt.json"),
            str(tmp_path / "map.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["locally_surjective"] is True
        assert doc["component_equitable"] is True
        assert doc["equitable"] is False
        assert doc["orbit"] is None

    def test_group_fills_orbit_field(self, two_triangles_files, capsys):
        g = io.load_graph(two_triangles_files / "g.json")
        p = io.load_partition(two_triangles_files / "p.json", g)
        m = quotient(g, p).projection
        io.save_json(two_triangles_files / "src.json", io.graph_to_dict(m.source))
        io.save_json(two_triangles_files / "tgt.json", io.graph_to_dict(m.target))
        io.save_json(two_triangles_files / "map.json", io.hom_to_dict(m))
        code, out, _ = run_cli(
            capsys,
            "classify",
            str(two_triangles_files / "src.json"),
            str(two_triangles_files / "tgt.json"),
            str(two_triangles_files / "map.json"),
            "--group",
            str(two_triangles_files / "grp.json"),
        )
        assert code == 0
        assert json.loads(out)["orbit"] is True


class TestCount:
    def test_auto_picks_orbit_route_with_group(self, two_triangles_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "count",
            str(two_triangles_files / "g.json"),
            str(two_triangles_files / "p.json"),
            "--group",
            str(two_triangles_files / "grp.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 2
        # ratio fields present: auto routed through the orbit formula
        assert doc["terms"][0]["kX"] == 2 and doc["terms"][0]["kC"] == 1

    def test_explicit_methods_agree(self, two_triangles_files, capsys):
        for method, expects_group in (("A", False), ("B", True), ("ce", False)):
            argv = [
                "count",
                str(two_triangles_files / "g.json"),
                str(two_triangles_files / "p.json"),
                "--method",
                method,
            ]
            if expects_group:
                argv += ["--group", str(two_triangles_files / "grp.json")]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["total"] == 2

    def test_method_b_needs_a_group(self, two_triangles_files, capsys):
        code, _, err = run_cli(
            capsys,
            "count",
            str(two_triangles_files / "g.json"),
            str(two_triangles_files / "p.json"),
            "--method",
            "B",
        )
        assert code == 2
        assert "hypotheses not satisfied" in err

    def test_wild_projection_rejected(self, two_arcs_files, capsys):
        code, _, err = run_cli(
            capsys, "count", str(two_arcs_files / "g.json"), str(two_arcs_files / "p.json")
        )
        assert code == 2
        assert err == "error: hypotheses not satisfied: locally_surjective\n"


def chorded_cycle_copies(rng, length, chords, copies):
    """Copies of one chorded cycle, the cells stacking each vertex's copies,
    and the copy shift as the group; documents in a shuffled order."""
    labels = rng.sample([a + b for a in string.ascii_lowercase for b in string.ascii_lowercase], length)
    edges = [(j, (j + 1) % length) for j in range(length)]
    candidates = [(i, j) for i in range(length) for j in range(i + 2, length) if (i, j) != (0, length - 1)]
    edges += rng.sample(candidates, chords)

    def v(j, i):
        return f"{labels[j]}.{i:02d}"

    vertices = [v(j, i) for i in range(copies) for j in range(length)]
    pairs = [[v(a, i), v(b, i)] if rng.random() < 0.5 else [v(b, i), v(a, i)] for i in range(copies) for a, b in edges]
    rng.shuffle(vertices)
    rng.shuffle(pairs)
    blocks = [[v(j, i) for i in range(copies)] for j in range(length)]
    shift = {v(j, i): v(j, (i + 1) % copies) for i in range(copies) for j in range(length)}
    return {"vertices": vertices, "edges": pairs}, {"blocks": blocks}, {"generators": [shift]}


def mixed_small_copies(rng, copies):
    """Disjoint edges, triangles and 3-paths, each folded by its own
    automorphism, whose orbits are the cells."""
    shapes = {
        "edge": (2, [(0, 1)], [[0, 1]], [1, 0]),
        "triangle": (3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]], [1, 2, 0]),
        "path": (3, [(0, 1), (1, 2)], [[0, 2], [1]], [2, 1, 0]),
    }
    vertices, edges, blocks, aut = [], [], [], {}
    for c in range(copies):
        n, pairs, cells, images = shapes[rng.choice(sorted(shapes))]
        names = [f"{c:03d}{x}" for x in "abc"[:n]]
        vertices += names
        edges += [[names[a], names[b]] for a, b in pairs]
        blocks += [[names[x] for x in cell] for cell in cells]
        aut.update({names[x]: names[images[x]] for x in range(n)})
    return {"vertices": vertices, "edges": edges}, {"blocks": blocks}, {"generators": [aut]}


class TestPinnedCountBytes:
    # sha256 of `count G P --group GRP --method M` on each seeded input, for
    # M = auto, A, ce, B.
    PINNED_SHA256 = {
        "chorded-cycles": (
            "3f2a1f22125cfb5958e357d443795011da043efd9e61cf8520d881720b72e337",
            "e144d12d9c9edf1abff7f7ddf1dbd7296cbf93a10f63c590451b5ec157ec2eb8",
            "3f2a1f22125cfb5958e357d443795011da043efd9e61cf8520d881720b72e337",
            "3f2a1f22125cfb5958e357d443795011da043efd9e61cf8520d881720b72e337",
        ),
        "small-copies": (
            "4a38405f5e45d740ff98bc708f4bbb7061edbd9ed91ecd1e3d43b5f87e4174cb",
            "5f50bfbf29c62c2da031215079808afaba87982e4d6d0d49ac85c3e3d87a4b97",
            "4a38405f5e45d740ff98bc708f4bbb7061edbd9ed91ecd1e3d43b5f87e4174cb",
            "4a38405f5e45d740ff98bc708f4bbb7061edbd9ed91ecd1e3d43b5f87e4174cb",
        ),
    }
    INPUTS = {
        "chorded-cycles": lambda: chorded_cycle_copies(random.Random(11), 10, 3, 12),
        "small-copies": lambda: mixed_small_copies(random.Random(12), 30),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_pinned_output_bytes(self, tmp_path, capsys, name):
        paths = [str(tmp_path / f) for f in ("g.json", "p.json", "grp.json")]
        for path, doc in zip(paths, self.INPUTS[name]()):
            io.save_json(path, doc)
        outs = []
        for method in ("auto", "A", "ce", "B"):
            code, out, err = run_cli(capsys, "count", paths[0], paths[1], "--group", paths[2], "--method", method)
            assert code == 0 and err == ""
            outs.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(outs) == self.PINNED_SHA256[name]


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded; return the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestAutoRoute:
    def test_orbit_instance_classifies_once(self, two_triangles_files, capsys, monkeypatch):
        calls = count_calls(monkeypatch, quograph.homs, "classify")
        d = two_triangles_files
        code, out, _ = run_cli(capsys, "count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json"))
        assert code == 0 and json.loads(out)["total"] == 2
        assert len(calls) == 1

    def test_orbit_route_checks_each_hypothesis_once(self, two_triangles_files, capsys, monkeypatch):
        calls = {
            name: count_calls(monkeypatch, module, name)
            for module, name in [
                (quograph.perms, "verify_automorphisms"),
                (quograph.perms, "is_consistent"),
                (quograph.perms, "orbit_partition"),
                (quograph.homs, "classify"),
            ]
        }
        d = two_triangles_files
        code, out, _ = run_cli(capsys, "count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json"))
        assert code == 0 and json.loads(out)["total"] == 2
        # the consistency test closes each fibre itself, with no orbit partition
        expected = {"verify_automorphisms": 1, "is_consistent": 1, "orbit_partition": 0, "classify": 1}
        assert {name: len(c) for name, c in calls.items()} == expected

    def test_orbit_route_reads_one_member_per_fibre(self, two_triangles_files, capsys, monkeypatch):
        names = ("_local_classes", "_is_equitable", "classify")
        calls = {name: count_calls(monkeypatch, quograph.homs, name) for name in names}
        d = two_triangles_files
        code, out, _ = run_cli(capsys, "count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json"))
        assert code == 0 and json.loads(out)["total"] == 2
        assert {name: len(c) for name, c in calls.items()} == {"_local_classes": 0, "_is_equitable": 0, "classify": 1}
        # the representative pass is not cached, so a later local predicate walks every vertex itself
        g = io.load_graph(d / "g.json")
        m = quotient(g, io.load_partition(d / "p.json", g)).projection
        assert quograph.homs.classify(m, io.load_group(d / "grp.json", g)).orbit
        assert m._local_classes is None
        assert quograph.homs.is_locally_strong(m) and m._local_classes == (True, True, True)

    @pytest.mark.parametrize("method", ["auto", "A", "ce", "B"])
    def test_one_edge_pass_and_no_fibre_partition(self, two_triangles_files, capsys, monkeypatch, method):
        edge_passes = count_calls(monkeypatch, quograph.homs, "_edge_classes")
        # every checked Partition build, by the constructor or on a graph's index, runs _store
        partitions_built = count_calls(monkeypatch, quograph.partitions.Partition, "_store")
        d = two_triangles_files
        argv = ["count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json"), "--method", method]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["total"] == 2
        assert len(edge_passes) == 1 and edge_passes[0][0].target.vertices == ("[a0]", "[a1]", "[a2]")
        assert len(partitions_built) == 1  # the loaded one, and no partition of the fibres

    @pytest.mark.parametrize("method", ["auto", "ce", "B"])
    def test_no_partition_label_view_is_built(self, two_triangles_files, capsys, monkeypatch, method):
        # the loaded partition and both graphs' components are read by position
        read = []
        for name in ("blocks", "block_of"):
            view = getattr(Partition, name).fget
            monkeypatch.setattr(Partition, name, property(lambda p, view=view, name=name: read.append(name) or view(p)))
        d = two_triangles_files
        argv = ["count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json"), "--method", method]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["total"] == 2
        assert read == []

    def test_ce_route_checks_equitability_once(self, two_triangles_files, capsys, monkeypatch):
        calls = count_calls(monkeypatch, quograph.homs, "is_component_equitable")
        d = two_triangles_files
        code, out, _ = run_cli(capsys, "count", str(d / "g.json"), str(d / "p.json"))
        assert code == 0 and json.loads(out)["terms"][0]["kC"] == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["ce", "A"])
    def test_group_off_the_partition_falls_back(self, tmp_path, case, capsys):
        if case == "ce":  # two triangles folded pairwise: component equitable
            g = Graph(
                ["a0", "a1", "a2", "b0", "b1", "b2"],
                [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
            )
            cells = [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]
        else:  # a triangle and a hexagon wrapped twice around it: not component equitable
            hexagon = [(f"b{i}", f"b{(i + 1) % 6}") for i in range(6)]
            g = Graph(
                ["a0", "a1", "a2"] + [f"b{i}" for i in range(6)],
                [("a0", "a1"), ("a0", "a2"), ("a1", "a2")] + hexagon,
            )
            cells = [["a0", "b0", "b3"], ["a1", "b1", "b4"], ["a2", "b2", "b5"]]
        io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
        io.save_json(tmp_path / "p.json", io.partition_to_dict(Partition(cells, g.vertex_set)))
        io.save_json(tmp_path / "grp.json", io.group_to_dict(PermGroup(g.vertex_set, [])))
        argv = ["count", str(tmp_path / "g.json"), str(tmp_path / "p.json"), "--group", str(tmp_path / "grp.json")]
        code, auto_out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(auto_out)["total"] == 2
        code, explicit_out, _ = run_cli(capsys, *argv, "--method", case)
        assert code == 0
        assert auto_out == explicit_out


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_the_next_call(self, two_triangles_files, capsys):
        d = two_triangles_files
        argv = ["count", str(d / "g.json"), str(d / "p.json"), "--group", str(d / "grp.json")]
        code, a_out, _ = run_cli(capsys, *argv, "--method", "A")
        assert code == 0
        assert build_parser().parse_args(argv).method == "auto"
        code, auto_out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, b_out, _ = run_cli(capsys, *argv, "--method", "B")
        assert code == 0
        assert auto_out == b_out != a_out


class TestOrbits:
    def test_partition_payload(self, two_triangles_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbits",
            str(two_triangles_files / "g.json"),
            str(two_triangles_files / "grp.json"),
        )
        assert code == 0
        assert json.loads(out) == {"blocks": [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]}


class TestPowergraph:
    def test_generating_set_runs_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, quograph.groups, "generating_set")
        code, _, _ = run_cli(capsys, "powergraph", "--group", "symmetric:4", "--proper")
        assert code == 0
        assert len(calls) == 1

    def test_proper_cyclic_three(self, capsys):
        code, out, _ = run_cli(capsys, "powergraph", "--group", "cyclic:3", "--proper")
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"] == {"vertices": ["1", "2"], "edges": [["1", "2"]]}
        assert doc["group"]["generators"] == [{"1": "1", "2": "2"}]

    def test_symmetric_three_proper(self, capsys):
        code, out, _ = run_cli(capsys, "powergraph", "--group", "symmetric:3", "--proper")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["graph"]["vertices"]) == 5

    def test_prefix_files_round_trip_into_orbits(self, tmp_path, capsys):
        prefix = tmp_path / "pg"
        code, out, _ = run_cli(
            capsys, "powergraph", "--group", "symmetric:3", "--proper", "--out", str(prefix)
        )
        assert code == 0 and out == ""
        code, out, _ = run_cli(
            capsys, "orbits", str(tmp_path / "pg.graph.json"), str(tmp_path / "pg.group.json")
        )
        assert code == 0
        assert json.loads(out)["blocks"] == [["132", "213", "321"], ["231", "312"]]

    def test_cayley_spec(self, tmp_path, capsys):

        io.save_json(tmp_path / "k4.json", cayley_to_dict(make_klein_four()))
        code, out, _ = run_cli(
            capsys, "powergraph", "--group", f"cayley:{tmp_path / 'k4.json'}", "--proper"
        )
        assert code == 0
        assert json.loads(out)["graph"]["edges"] == []

    def test_bad_spec_is_a_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "powergraph", "--group", "dihedral:4")
        assert code == 1
        assert "unrecognized group spec" in err

    @pytest.mark.parametrize(
        "spec",
        ["cyclic", "cyclic:", "cyclic:abc", "cyclic:1_0", "cyclic: 7", "cyclic:7 ", "symmetric:+3",
         "cyclic:-3", "cyclic:\u0663", "symmetric:\u00b3", "cyclic:3.0"],
    )
    def test_order_other_than_ascii_digits_is_refused(self, capsys, spec):
        code, out, err = run_cli(capsys, "powergraph", "--group", spec)
        message = f"unrecognized group spec {spec!r}; use cyclic:N, symmetric:N, or cayley:PATH"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "spec",
        ["cyclic:0", "cyclic:61", "symmetric:6", "symmetric:00",
         # past the 4,300 digits int() converts
         pytest.param("cyclic:" + "9" * 5000, id="cyclic:9x5000"),
         pytest.param("symmetric:" + "9" * 5000, id="symmetric:9x5000")],
    )
    def test_order_out_of_range_is_refused(self, capsys, spec):
        code, out, err = run_cli(capsys, "powergraph", "--group", spec)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "out of the supported range" in err
        assert err.count("\n") == 1 and "int_max_str_digits" not in err

    def test_leading_zeros_are_digits(self, capsys):
        short_form = run_cli(capsys, "powergraph", "--group", "cyclic:7")
        assert short_form[0] == 0
        for spec in ["cyclic:007", "cyclic:" + "0" * 5000 + "7"]:
            assert run_cli(capsys, "powergraph", "--group", spec) == short_form

    def test_trivial_group_has_no_proper_graph(self, capsys):
        code, _, err = run_cli(capsys, "powergraph", "--group", "cyclic:1", "--proper")
        assert code == 2

    def test_one_graph_is_built(self, capsys, monkeypatch):
        # every route that builds a graph (the constructor, _from_edges,
        # induced) stores it through _store
        calls = []
        store = Graph._store
        monkeypatch.setattr(Graph, "_store", lambda self, *a: calls.append("_store") or store(self, *a))
        code, out, _ = run_cli(capsys, "powergraph", "--group", "symmetric:4", "--proper")
        assert code == 0 and len(json.loads(out)["graph"]["vertices"]) == 23
        assert calls == ["_store"]

    # sha256 of the stdout of `powergraph --group SPEC --proper`, then of
    # `orbits` and `count --group` on the files `powergraph --out` writes.
    PINNED_SHA256 = {
        "cyclic:60": (
            "d18bb8380e2e960e2ddf5c41d3e387c687a8adde531d7e381060bd0668bdfea4",
            "92e06227756554bed3fd452bfc09b72eb39961b06c6cf835d825ef09ced46cd0",
            "ddd679348a288766a1dd342ff4d1629ce8a4d1d777e68be345092775f2b99819",
        ),
        "symmetric:5": (
            "b23e95934b2b9698970ad8731dd22c602ffcee101d707692389c7bc51035bfaa",
            "87a57d0d6015d40fb5232fc224dfd520c036c05e1b08e3dfee153a1a6009219d",
            "e876d18cea726e9482b5f43559a6b97ee0dd0d604ab41709aebe1284c868c8fb",
        ),
        "cayley:klein": (
            "616352b3f6938b94f66b25064e03af2f5726370dd8dfc422b6429923fe88cab0",
            "1c9a6fa0d0666e7df9512ee8cafea19148fcc8c31b0e322cabe74a2ec62bffdf",
            "b3297e76c64f9eb740107333559e9d08df0c211a66bd3931e0e08d707dee4587",
        ),
    }

    @pytest.mark.parametrize("spec", sorted(PINNED_SHA256))
    def test_pinned_output_bytes(self, tmp_path, capsys, spec):
        group_spec = spec
        if spec == "cayley:klein":
            io.save_json(tmp_path / "klein.json", cayley_to_dict(make_klein_four()))
            group_spec = f"cayley:{tmp_path / 'klein.json'}"
        prefix = tmp_path / "pg"
        graph, group, orbits = (str(tmp_path / f"pg.{s}.json") for s in ("graph", "group", "orbits"))
        assert run_cli(capsys, "powergraph", "--group", group_spec, "--proper", "--out", str(prefix))[0] == 0
        assert run_cli(capsys, "orbits", graph, group, "--out", orbits)[0] == 0
        outs = []
        for argv in (
            ["powergraph", "--group", group_spec, "--proper"],
            ["orbits", graph, group],
            ["count", graph, orbits, "--group", group],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            outs.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(outs) == self.PINNED_SHA256[spec]

    # sha256 of the stdout of `powergraph --group SPEC`, then of
    # `powergraph --group SPEC --proper`, for every SPEC in turn.
    BUILT_IN_SPECS = [f"cyclic:{n}" for n in range(2, 61)] + [f"symmetric:{n}" for n in range(2, 6)]
    BUILT_IN_SHA256 = "839892fd7f0880e2c99ff4a7e6f6d4d0eed764ee047f3b33487f24dfa61da732"

    def test_every_built_in_spec_pinned(self, capsys):
        digest = hashlib.sha256()
        for spec in self.BUILT_IN_SPECS:
            for proper in ([], ["--proper"]):
                code, out, err = run_cli(capsys, "powergraph", "--group", spec, *proper)
                assert code == 0 and err == ""
                digest.update(out.encode())
        assert digest.hexdigest() == self.BUILT_IN_SHA256


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-vertices", "2", "--random", "5", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["claims"]) == 25

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run_cli(
                capsys,
                "verify",
                "--max-vertices",
                "2",
                "--random",
                "5",
                "--seed",
                "7",
                "--out",
                str(tmp_path / f"{name}.json"),
            )
            assert code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_out_file_holds_the_printed_bytes(self, tmp_path, capsys):
        argv = ["verify", "--max-vertices", "3", "--random", "10"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "report.json")) == (0, "", "")
        assert (tmp_path / "report.json").read_bytes() == out.encode()

    def test_no_options_run_the_default_config(self, capsys, monkeypatch):
        # the options default to SweepConfig's own field defaults
        configs = []
        report = SimpleNamespace(passed=True, as_dict=dict)
        monkeypatch.setattr(verify, "run_suite", lambda cfg: configs.append(cfg) or report)
        assert run_cli(capsys, "verify") == (0, "{}\n", "")
        assert configs == [verify.SweepConfig()]

    def test_pinned_report_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-vertices", "4", "--random", "200", "--seed", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "47d5ee61800a0f41f8362811938616d24e145c6081e3599cfe24ec7522ba51b2"

    # 7 source vertices would mean about 1.8e9 graph-and-partition pairs, and
    # a billion random instances about a month of randomized claims.
    @pytest.mark.parametrize(
        "bound", [["--max-vertices", "7"], ["--random", "1000001"]], ids=["max-vertices", "random"]
    )
    def test_bound_beyond_the_limit_is_refused_at_once(self, capsys, monkeypatch, bound):
        monkeypatch.setattr(verify, "run_suite", lambda cfg: pytest.fail("the sweep started"))
        code, out, err = run_cli(capsys, "verify", *bound)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCanonicalPayloads:
    """Every payload shape the commands emit, written by ``io.dumps`` and by
    the standard library's indenting encoder."""

    @pytest.fixture
    def payloads(self, monkeypatch):
        recorded = []
        dumps = io.dumps
        monkeypatch.setattr(io, "dumps", lambda payload: recorded.append(payload) or dumps(payload))
        return recorded

    def test_each_command(self, two_triangles_files, capsys, payloads):
        d = two_triangles_files
        g, p, grp = (str(d / f) for f in ("g.json", "p.json", "grp.json"))
        assert run_cli(capsys, "quotient", g, p, "--out", str(d / "q"))[0] == 0
        for name, payload in zip(("q.quotient.json", "q.projection.json"), payloads):
            assert (d / name).read_text(encoding="utf-8") == indent_dumps(payload)
        argvs = [
            ["components", g],
            ["quotient", g, p],
            ["classify", g, str(d / "q.quotient.json"), str(d / "q.projection.json"), "--group", grp],
            *(["count", g, p, "--group", grp, "--method", m] for m in ("auto", "A", "ce", "B")),
            ["orbits", g, grp],
            ["powergraph", "--group", "symmetric:3"],
            ["powergraph", "--group", "cyclic:12", "--proper"],
            ["verify", "--max-vertices", "2", "--random", "5"],
        ]
        for argv in argvs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert out == indent_dumps(payloads[-1]), argv
        assert len(payloads) == 2 + len(argvs)

    @pytest.mark.parametrize("method", ["auto", "A", "ce", "B"])
    def test_count_of_several_terms(self, tmp_path, capsys, payloads, method):
        # a triangle, an edge and a lone vertex, twice over and swapped by
        # the group: the quotient has three components, so three terms
        names = ["t0", "t1", "t2", "e0", "e1", "v0"]
        pairs = [("t0", "t1"), ("t0", "t2"), ("t1", "t2"), ("e0", "e1")]
        g = Graph([c + n for c in "ab" for n in names], [(c + x, c + y) for c in "ab" for x, y in pairs])
        blocks = [["a" + n, "b" + n] for n in names]
        swap = {c + n: d + n for c, d in ("ab", "ba") for n in names}
        io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
        io.save_json(tmp_path / "p.json", io.partition_to_dict(Partition(blocks, g.vertex_set)))
        io.save_json(tmp_path / "grp.json", io.group_to_dict(PermGroup(g.vertex_set, [swap])))
        g_path, p_path, grp_path = (str(tmp_path / f) for f in ("g.json", "p.json", "grp.json"))
        payloads.clear()  # the files above were written through io.dumps too
        code, out, _ = run_cli(capsys, "count", g_path, p_path, "--group", grp_path, "--method", method)
        assert code == 0
        (payload,) = payloads
        assert payload["total"] == 6 and len(payload["terms"]) == 3
        assert (None in payload["terms"][0].values()) == (method == "A")
        assert out == indent_dumps(payload)


LABELS = st.sampled_from(["e", "a", "b", "0", "1"])
DOC_KEYS = st.sampled_from(
    ["vertices", "edges", "blocks", "generators", "elements", "identity", "table"]
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | LABELS
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(DOC_KEYS | LABELS | st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)


@st.composite
def cayley_like_docs(draw):
    """Tables of small groups with a few cells, or the identity, replaced, so
    that the group validation is reached as well as the loader's."""
    group = draw(st.sampled_from([make_cyclic(1), make_cyclic(3), make_klein_four(), make_symmetric(3)]))
    doc = cayley_to_dict(group)
    elements = st.sampled_from(group.elements)
    for _ in range(draw(st.integers(0, 3))):
        doc["table"][draw(elements)][draw(elements)] = draw(elements | json_values)
    if draw(st.integers(0, 4)) == 0:
        doc["identity"] = draw(json_values)
    return doc


PROPER_FLAG = st.sampled_from([[], ["--proper"]])


@st.composite
def count_docs(draw):
    """Graph, partition and group documents over one vertex list, so that
    counting is reached as well as the loaders."""
    vertices = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    pairs = [list(e) for e in itertools.combinations(vertices, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=5)) if pairs else []
    cells = {}
    for v in vertices:
        cells.setdefault(draw(st.integers(0, 2)), []).append(v)
    generators = [
        dict(zip(vertices, draw(st.permutations(vertices)))) for _ in range(draw(st.integers(0, 2)))
    ]
    return [
        {"vertices": vertices, "edges": edges},
        {"blocks": list(cells.values())},
        {"generators": generators},
    ]


def _sometimes_arbitrary(draw, doc):
    return draw(json_values) if draw(st.integers(0, 3)) == 0 else doc


def _assert_clean_exit(argv):
    """Run main on fuzzed files: a clean exit code and no traceback."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# (argv, documents, message): every row of the golden refusal tables, each
# as the command that reads it; "@name" is the path of document "name".
REFUSALS = (
    [(["components", "@g"], {"g": {"vertices": vs, "edges": es}}, msg) for vs, es, msg in GRAPH_REFUSALS + LOADER_REFUSALS]
    + [
        (["quotient", "@g", "@p"], {"g": {"vertices": vs, "edges": []}, "p": {"blocks": bs}}, msg)
        for vs, bs, msg in PARTITION_REFUSALS
    ]
    + [
        (
            ["classify", "@s", "@t", "@m"],
            {"s": {"vertices": ss, "edges": []}, "t": {"vertices": ts, "edges": []}, "m": {"map": mp}},
            msg,
        )
        for ss, ts, mp, msg in MAP_REFUSALS
    ]
    + [
        (["quotient", "@g", "@p"], {"g": {"vertices": vs, "edges": []}, "p": {"blocks": bs}}, msg)
        for vs, bs, msg in PARTITION_LOADER_REFUSALS
    ]
    + [
        (["orbits", "@g", "@grp"], {"g": {"vertices": vs, "edges": []}, "grp": {"generators": gens}}, msg)
        for vs, gens, msg in GROUP_LOADER_REFUSALS
    ]
    + [
        (["powergraph", "--group", "cayley:@c"], {"c": doc}, msg)
        for doc, msg in CAYLEY_LOADER_REFUSALS + CAYLEY_TABLE_REFUSALS
    ]
    + [(["components", "@g"], {"g": {"vertices": vs, "edges": es}}, msg) for vs, es, msg in EDGE_REFUSALS]
    + [
        (["quotient", "@g", "@p"], {"g": {"vertices": vs, "edges": []}, "p": {"blocks": bs}}, msg)
        for vs, bs, msg in BLOCK_REFUSALS
    ]
    + [
        (["count", "@g", "@p"], {"g": {"vertices": vs, "edges": []}, "p": {"blocks": bs}}, msg)
        for vs, bs, msg in PARTITION_REFUSALS
    ]
)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "components", "/nonexistent/g.json")
        assert code == 1
        assert "error" in err

    def test_malformed_json_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": "oops"}\n')
        code, _, err = run_cli(capsys, "components", str(bad))
        assert code == 1

    @pytest.mark.parametrize(
        "argv,docs",
        [
            (["components", "@g"], {"g": {"vertices": ["a", "b"], "edges": [[["a"], "b"]]}}),
            (["count", "@g", "@p"], {"g": {"vertices": ["a", "b"], "edges": []}, "p": {"blocks": [["a", ["b"]]]}}),
            (
                ["count", "@g", "@p", "--group", "@grp"],
                {
                    "g": {"vertices": ["a", "b"], "edges": []},
                    "p": {"blocks": [["a", "b"]]},
                    "grp": {"generators": [{"a": ["b"], "b": "a"}]},
                },
            ),
            (
                ["classify", "@g", "@t", "@m"],
                {"g": {"vertices": ["a"], "edges": []}, "t": {"vertices": ["x"], "edges": []}, "m": {"map": {"a": ["x"]}}},
            ),
            (["powergraph", "--group", "cayley:@c"], {"c": {"elements": [["e"]], "identity": "e", "table": {}}}),
            (["powergraph", "--group", "cayley:@c"], {"c": {"elements": ["e"], "identity": "e", "table": {"e": {"e": ["e"]}}}}),
        ],
        ids=["edge-endpoint", "block-member", "generator-image", "map-image", "cayley-element", "cayley-product"],
    )
    def test_list_where_a_label_belongs(self, tmp_path, capsys, argv, docs):
        for name, doc in docs.items():
            io.save_json(tmp_path / name, doc)
        code, out, err = run_cli(capsys, *(a.replace("@", f"{tmp_path}/") for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "is not a string" in err

    @pytest.mark.parametrize("argv,docs,message", REFUSALS)
    def test_refusal_stderr(self, tmp_path, capsys, argv, docs, message):
        for name, doc in docs.items():
            io.save_json(tmp_path / name, doc)
        code, out, err = run_cli(capsys, *(a.replace("@", f"{tmp_path}/") for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    NOT_A_HOM = (2, "", "error: map is not a homomorphism (an edge is not preserved)\n")

    @pytest.mark.parametrize(
        "group",
        [None, {"generators": "oops"}],
        ids=["no-group", "bad-group"],
    )
    def test_classify_refuses_non_homomorphism(self, tmp_path, capsys, group):
        # the map is refused when it is loaded, before the group file is read
        docs = {
            "s": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "t": {"vertices": ["x", "y"], "edges": []},
            "m": {"map": {"a": "x", "b": "y"}},
        }
        argv = ["classify", "@s", "@t", "@m"]
        if group is not None:
            docs["grp"] = group
            argv += ["--group", "@grp"]
        for name, doc in docs.items():
            io.save_json(tmp_path / name, doc)
        assert run_cli(capsys, *(a.replace("@", f"{tmp_path}/") for a in argv)) == self.NOT_A_HOM

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "components", str(deep))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "nested too deeply" in err

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_cayley_table(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "c.json"
        io.save_json(path, _sometimes_arbitrary(data.draw, data.draw(cayley_like_docs())))
        _assert_clean_exit(["powergraph", "--group", f"cayley:{path}", *data.draw(PROPER_FLAG)])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_count_files(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("fuzz")
        paths = [str(root / name) for name in ("g.json", "p.json", "grp.json")]
        for path, doc in zip(paths, data.draw(count_docs())):
            io.save_json(path, _sometimes_arbitrary(data.draw, doc))
        _assert_clean_exit(["count", paths[0], paths[1], "--group", paths[2]])

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["components"])  # missing positional argument
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


REPO_ROOT = Path(__file__).resolve().parents[1]
POWERGRAPH_ARGV = ["powergraph", "--group", "cyclic:2"]


def _run(argv):
    return subprocess.run(argv, capture_output=True, env=subprocess_env())


def _run_module(*args):
    return _run([sys.executable, "-m", "quograph.cli", *args])


def _write_console_launcher(tmp_path):
    """Write the launcher pip generates for the declared ``quograph`` script."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "quograph" in scripts, "pyproject.toml declares no quograph console script"
    module, _, attr = scripts["quograph"].partition(":")
    assert module and attr, f"entry point {scripts['quograph']!r} is not module:attr"
    launcher = tmp_path / "quograph"
    launcher.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    return launcher


def test_installed_entry_point(tmp_path):
    proc = _run_module(*POWERGRAPH_ARGV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["graph"]["vertices"] == ["0", "1"]
    launcher = _write_console_launcher(tmp_path)
    console = _run([sys.executable, str(launcher), *POWERGRAPH_ARGV])
    assert console.returncode == 0, console.stderr
    assert console.stdout == proc.stdout


def test_console_launcher_passes_on_exit_codes(tmp_path):
    launcher = _write_console_launcher(tmp_path)
    usage = _run([sys.executable, str(launcher), "frobnicate"])
    assert usage.returncode == 1
    assert b"usage: quograph" in usage.stderr
    assert b"Traceback" not in usage.stderr
    # a code that main() returns rather than one the parser raises
    refused = _run(
        [sys.executable, str(launcher), "powergraph", "--group", "cyclic:1", "--proper"]
    )
    assert refused.returncode == 2
    assert b"Traceback" not in refused.stderr


@pytest.mark.skipif(shutil.which("quograph") is None, reason="no quograph executable on PATH")
def test_installed_console_script():
    proc = _run_module(*POWERGRAPH_ARGV)
    assert proc.returncode == 0
    console = _run([shutil.which("quograph"), *POWERGRAPH_ARGV])
    assert console.returncode == 0, console.stderr
    assert console.stdout == proc.stdout


def _chorded_cycle_copies(tmp_path):
    """Three copies of a chorded 6-cycle, its copy-shift group and the
    shift's orbits, written as g.json, grp.json and p.json.  The labels do
    not sort in the order they are made."""
    base = ["q", "b", "x", "d", "m", "a"]
    label = {(v, i): f"{v}.{'zky'[i]}" for v in base for i in range(3)}
    edges = [(label[base[j], i], label[base[(j + 1) % 6], i]) for i in range(3) for j in range(6)]
    edges += [(label["q", i], label["d", i]) for i in range(3)]
    g = Graph(list(label.values()), edges)
    shift = {label[v, i]: label[v, (i + 1) % 3] for v in base for i in range(3)}
    grp = PermGroup(g.vertex_set, [shift])
    io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
    io.save_json(tmp_path / "grp.json", io.group_to_dict(grp))
    io.save_json(tmp_path / "p.json", io.partition_to_dict(quograph.orbit_partition(grp)))
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "@g.json", "@p.json", "--group", "@grp.json", "--method", "B"],
        ["count", "@g.json", "@p.json", "--method", "ce"],
        ["quotient", "@g.json", "@p.json"],
        ["powergraph", "--group", "symmetric:4", "--proper"],
        ["verify", "--max-vertices", "3", "--random", "20"],
    ],
    ids=["count-orbit", "count-ce", "quotient", "powergraph", "verify"],
)
def test_stdout_does_not_depend_on_the_hash_seed(tmp_path, argv):
    files = _chorded_cycle_copies(tmp_path)
    args = [a.replace("@", f"{files}/") for a in argv]
    outs = []
    for seed in ("0", "1"):
        env = subprocess_env() | {"PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "quograph.cli", *args], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def count_label_view_reads(monkeypatch) -> list[str]:
    """Wrap the ``HomMap.mapping`` and ``HomMap.fibres`` views so each read
    is recorded; return the record."""
    reads = []
    for name in ("mapping", "fibres"):
        view = quograph.HomMap.__dict__[name].fget
        counted = property(lambda m, name=name, view=view: reads.append(name) or view(m))
        monkeypatch.setattr(quograph.HomMap, name, counted)
    return reads


@pytest.mark.parametrize("method", ["auto", "A", "B", "ce"])
def test_count_reads_no_label_view(tmp_path, capsys, monkeypatch, method):
    files = _chorded_cycle_copies(tmp_path)
    reads = count_label_view_reads(monkeypatch)
    argv = ["count", f"{files}/g.json", f"{files}/p.json", "--group", f"{files}/grp.json", "--method", method]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["total"] == 3
    assert reads == []


@pytest.mark.parametrize("with_group", [True, False], ids=["group", "no-group"])
def test_classify_reads_no_label_view(tmp_path, capsys, monkeypatch, with_group):
    files = _chorded_cycle_copies(tmp_path)
    g = io.load_graph(files / "g.json")
    m = quotient(g, io.load_partition(files / "p.json", g)).projection
    io.save_json(files / "tgt.json", io.graph_to_dict(m.target))
    io.save_json(files / "map.json", io.hom_to_dict(m))
    reads = count_label_view_reads(monkeypatch)
    argv = ["classify", f"{files}/g.json", f"{files}/tgt.json", f"{files}/map.json"]
    code, out, _ = run_cli(capsys, *argv, *(["--group", f"{files}/grp.json"] if with_group else []))
    assert code == 0 and json.loads(out)["locally_bijective"] is True
    assert json.loads(out)["orbit"] is (True if with_group else None)
    assert reads == []


def _main_unreachable(argv) -> tuple[int, int]:
    """Run ``main(argv)`` with the cyclic collector disabled throughout and
    return its exit code and the number of unreachable objects it left: the
    objects that, with ``main`` pausing the collector, reference counting
    alone would never free."""
    build_parser()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            code = main(argv)
    finally:
        left = gc.collect()
        if was_enabled:
            gc.enable()
    return code, left


def _files_argv(root, argv, docs=None) -> list[str]:
    """Write each document to ``root/<name>`` and point every "@" in argv at root."""
    for name, doc in (docs or {}).items():
        io.save_json(root / name, doc)
    return [a.replace("@", f"{root}/") for a in argv]


# Each command on the chorded-cycle files, with every --method of count; the
# classify target and map are the quotient's, written by the first command.
COMMANDS = [
    ["quotient", "@g.json", "@p.json", "--out", "@q"],
    ["components", "@g.json"],
    ["quotient", "@g.json", "@p.json"],
    ["classify", "@g.json", "@q.quotient.json", "@q.projection.json"],
    ["classify", "@g.json", "@q.quotient.json", "@q.projection.json", "--group", "@grp.json"],
    *(["count", "@g.json", "@p.json", "--group", "@grp.json", "--method", m] for m in ("B", "ce", "A", "auto")),
    ["count", "@g.json", "@p.json"],
    ["orbits", "@g.json", "@grp.json"],
    ["powergraph", "--group", "cyclic:12"],
    ["powergraph", "--group", "symmetric:4", "--proper"],
    ["powergraph", "--group", "cayley:@klein.json"],
    ["verify", "--max-vertices", "3", "--random", "5", "--seed", "2"],
]

# (argv, documents) of hypothesis refusals, exit 2, past the loaders
HYPOTHESIS_REFUSALS = [
    (
        ["classify", "@s", "@t", "@m", *group],
        {
            "s": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "t": {"vertices": ["x", "y"], "edges": []},
            "m": {"map": {"a": "x", "b": "y"}},
            "grp": {"generators": []},
        },
    )
    for group in ([], ["--group", "@grp"])
] + [
    (
        ["count", "@g", "@p", *method],
        {"g": {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}, "p": {"blocks": [["a", "c"], ["b"]]}},
    )
    for method in (["--method", "B"], ["--method", "ce"], [])
] + [(["powergraph", "--group", "cyclic:1", "--proper"], {})]


def _fail_every_instance(m):
    return ["always fails"]


def _leave_a_cycle(m):
    def again():
        return again

    again()
    return []


class TestCollectorPause:
    """``main`` pauses the cyclic collector for each command, which leaves
    every object to reference counting: safe only while no command, and no
    refusal, leaves a reference cycle behind."""

    def test_every_command_leaves_no_cycle(self, tmp_path):
        files = _chorded_cycle_copies(tmp_path)
        io.save_json(files / "klein.json", cayley_to_dict(make_klein_four()))
        for argv in COMMANDS:
            assert _main_unreachable(_files_argv(files, argv)) == (0, 0), argv

    @pytest.mark.parametrize("argv,docs,message", REFUSALS)
    def test_every_golden_refusal_leaves_no_cycle(self, tmp_path, argv, docs, message):
        assert _main_unreachable(_files_argv(tmp_path, argv, docs)) == (1, 0)

    @pytest.mark.parametrize("argv,docs", HYPOTHESIS_REFUSALS)
    def test_hypothesis_refusals_leave_no_cycle(self, tmp_path, argv, docs):
        assert _main_unreachable(_files_argv(tmp_path, argv, docs)) == (2, 0)

    def test_internal_check_failures_leave_no_cycle(self, tmp_path, monkeypatch):
        files = _chorded_cycle_copies(tmp_path)
        monkeypatch.setitem(verify._HOM_CLAIMS, "class_inclusion_chain", (_fail_every_instance, ()))
        assert _main_unreachable(["verify", "--max-vertices", "2", "--random", "2"]) == (3, 0)
        monkeypatch.setattr(quograph.counting, "_exact_div", lambda a, b: a + 1)
        argv = _files_argv(files, ["count", "@g.json", "@p.json", "--method", "ce"])
        assert _main_unreachable(argv) == (3, 0)

    def test_a_self_referencing_closure_is_caught(self, monkeypatch):
        monkeypatch.setitem(verify._HOM_CLAIMS, "class_inclusion_chain", (_leave_a_cycle, ()))
        code, left = _main_unreachable(["verify", "--max-vertices", "2", "--random", "0"])
        assert code == 0 and left > 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, tmp_path, monkeypatch, enabled):
        files = _chorded_cycle_copies(tmp_path)
        argvs = {
            0: ["orbits", "@g.json", "@grp.json"],
            1: ["components", "@missing.json"],
            2: ["count", "@g.json", "@p.json", "--method", "B"],
            3: ["count", "@g.json", "@p.json", "--method", "ce"],
        }
        monkeypatch.setattr(quograph.counting, "_exact_div", lambda a, b: a + 1)
        dumps, paused = io.dumps, []
        monkeypatch.setattr(io, "dumps", lambda payload: paused.append(not gc.isenabled()) or dumps(payload))
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for code, argv in argvs.items():
                with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
                    assert main(_files_argv(files, argv)) == code
                assert gc.isenabled() is enabled, argv
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert paused == [True]  # the one command that got as far as its output
