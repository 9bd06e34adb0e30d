from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from quograph import (
    CountTerm,
    Graph,
    HomMap,
    HypothesisError,
    InternalCheckError,
    Partition,
    PermGroup,
    admissible_components,
    component_iso_check,
    conjugation_group,
    connectedness_criterion,
    count_admissible,
    count_ce,
    count_orbit,
    image_of_component,
    io,
    is_component_equitable,
    is_equitable,
    is_locally_surjective,
    is_pseudo_covering,
    is_surjective,
    make_cyclic,
    multiplicity,
    orbit_partition,
    quotient,
)
import quograph
from quograph.cli import main
from quograph.counting import _image_component, _preimage_union
from quograph.verify import _index_maps, enumerate_graphs, enumerate_homs, oracle_component_count

from conftest import orbit_instances, subprocess_env
from reference import every_choice_terms, rebuilding_ratio_count
from golden import (
    BLOCK_REFUSALS,
    GROUP_LOADER_REFUSALS,
    PARTITION_LOADER_REFUSALS,
    PARTITION_REFUSALS,
    balanced_two_component_map,
    lopsided_two_component_map,
    prism_and_cube_map,
    two_arcs_graph,
    two_arcs_projection,
)


def two_triangles():
    g = Graph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
    )
    swap = {f"a{i}": f"b{i}" for i in range(3)} | {f"b{i}": f"a{i}" for i in range(3)}
    grp = PermGroup(g.vertex_set, [swap])
    m = quotient(g, orbit_partition(grp)).projection
    return g, grp, m


def hexagon_antipodal():
    g = Graph([str(i) for i in range(6)], [(str(i), str((i + 1) % 6)) for i in range(6)])
    anti = {str(i): str((i + 3) % 6) for i in range(6)}
    grp = PermGroup(g.vertex_set, [anti])
    m = quotient(g, orbit_partition(grp)).projection
    return g, grp, m


class TestMultiplicity:
    def test_counts_fibre_members_inside_subset(self):
        m = balanced_two_component_map()
        assert multiplicity(m, ["1", "2", "5", "6"], "y") == 2
        assert multiplicity(m, m.source.vertices, "y") == 4
        assert multiplicity(m, ["5", "6"], "y") == 0

    def test_unknown_vertices_rejected(self):
        m = balanced_two_component_map()
        with pytest.raises(ValueError):
            multiplicity(m, ["nope"], "y")
        with pytest.raises(ValueError):
            multiplicity(m, ["1"], "nope")


# Each refusal the library words for a list of vertices, blocks or
# generators, printed as one JSON list: multiplicity's first, then
# golden.py's partition rows through the constructor, then the partition
# and group rows through the loaders.
REFUSALS_SCRIPT = """
import json
from quograph import Graph, Partition, io, multiplicity
from golden import (
    BLOCK_REFUSALS, GROUP_LOADER_REFUSALS, PARTITION_LOADER_REFUSALS, PARTITION_REFUSALS, balanced_two_component_map,
)

def refusal(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)

out = [refusal(multiplicity, balanced_two_component_map(), ["zz", "qq", "xx"], "y")]
out += [refusal(Partition, bs, vs) for vs, bs, _ in PARTITION_REFUSALS + BLOCK_REFUSALS]
loaded = PARTITION_LOADER_REFUSALS + PARTITION_REFUSALS
out += [refusal(io.partition_from_dict, {"blocks": bs}, Graph(vs, [])) for vs, bs, _ in loaded]
out += [refusal(io.group_from_dict, {"generators": gs}, Graph(vs, [])) for vs, gs, _ in GROUP_LOADER_REFUSALS]
print(json.dumps(out))
"""


@pytest.mark.parametrize("seed", ["0", "2"])
def test_refusals_do_not_depend_on_the_hash_seed(seed):
    env = subprocess_env() | {"PYTHONHASHSEED": seed}
    env["PYTHONPATH"] += f"{os.pathsep}{Path(__file__).parent}"
    proc = subprocess.run([sys.executable, "-c", REFUSALS_SCRIPT], capture_output=True, env=env, check=True)
    rows = PARTITION_REFUSALS + BLOCK_REFUSALS + PARTITION_LOADER_REFUSALS + PARTITION_REFUSALS + GROUP_LOADER_REFUSALS
    assert json.loads(proc.stdout) == ["unknown source vertex 'zz'", *(row[-1] for row in rows)]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: two_arcs_graph().neighborhood("z"), "unknown vertex 'z'"),
        (
            lambda: is_equitable(two_arcs_graph(), Partition([["a", "b"]], ["a", "b"])),
            "partition universe does not match the graph's vertices",
        ),
        (lambda: admissible_components(balanced_two_component_map(), "q"), "unknown target vertex 'q'"),
        (lambda: conjugation_group(make_cyclic(3), Graph(["1"], [])), "graph is not a power graph of this group"),
    ],
    ids=["neighborhood", "is_equitable", "admissible_components", "conjugation_group"],
)
def test_lookup_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestAdmissibleComponents:
    def test_both_components_feed_each_target_vertex(self):
        m = balanced_two_component_map()
        assert admissible_components(m, "y") == [
            ("1", "2", "5", "6"),
            ("3", "4", "7", "8"),
        ]

    def test_empty_for_unhit_vertex(self):
        src = Graph(["a"], [])
        tgt = Graph(["x", "y"], [])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x"})
        assert admissible_components(m, "y") == []


class TestImageAndPreimage:
    def test_component_covers_its_target_component(self):
        m = balanced_two_component_map()
        assert image_of_component(m, ("1", "2", "5", "6")) == ("y", "z")

    def test_preimage_unions_admissible_components(self):
        m = balanced_two_component_map()
        pre = _preimage_union(m, _image_component(m, ("1", "2", "5", "6"))[1])
        assert pre == frozenset(m.source.vertices)

    def test_non_component_argument_rejected(self):
        m = balanced_two_component_map()
        with pytest.raises(ValueError):
            image_of_component(m, ("1", "2"))

    def test_requires_locally_surjective(self):
        m = two_arcs_projection()
        with pytest.raises(HypothesisError):
            image_of_component(m, ("1a", "3"))


class TestCountAdmissible:
    def test_lopsided_example_totals_two(self):
        bd = count_admissible(lopsided_two_component_map())
        assert bd.total == 2
        assert [t.value for t in bd.terms] == [2]
        assert bd.terms[0].representative == "y"

    def test_prism_cube_example_totals_two(self):
        assert count_admissible(prism_and_cube_map()).total == 2

    def test_disconnected_target_sums_per_component(self):
        src = Graph(["a", "b", "c", "d"], [])
        tgt = Graph(["x", "y"], [])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x", "b": "x", "c": "y", "d": "y"})
        bd = count_admissible(m)
        assert [t.value for t in bd.terms] == [2, 2]
        assert bd.total == 4

    def test_rejects_non_locally_surjective(self):
        with pytest.raises(HypothesisError):
            count_admissible(two_arcs_projection())

    def test_ratio_fields_absent_in_terms(self):
        bd = count_admissible(lopsided_two_component_map())
        d = bd.terms[0].as_dict()
        assert d["kX"] is None and d["kC"] is None and d["component_leader"] is None


class TestCountOrbit:
    def test_two_triangles_give_two(self):
        g, grp, m = two_triangles()
        bd = count_orbit(m, grp)
        assert bd.total == 2
        term = bd.terms[0].as_dict()
        assert term["kX"] == 2 and term["kC"] == 1 and term["value"] == 2

    def test_hexagon_folds_to_one(self):
        g, grp, m = hexagon_antipodal()
        bd = count_orbit(m, grp)
        assert bd.total == 1
        term = bd.terms[0].as_dict()
        assert term["kX"] == 2 and term["kC"] == 2 and term["value"] == 1

    @pytest.mark.parametrize("case", [two_triangles, hexagon_antipodal])
    def test_every_choice_gives_the_walk_term(self, case):
        g, grp, m = case()
        bd = count_orbit(m, grp)
        assert every_choice_terms(m) == [{t.value} for t in bd.terms]

    def test_rejects_group_that_does_not_match_fibres(self):
        g, grp, m = two_triangles()
        other = PermGroup(g.vertex_set, [])
        with pytest.raises(HypothesisError):
            count_orbit(m, other)

    def test_rejects_incomplete_map(self):
        src = Graph(["a"], [])
        tgt = Graph(["x", "y"], [("x", "y")])
        from quograph import HomMap

        m = HomMap(src, tgt, {"a": "x"})
        with pytest.raises(HypothesisError):
            count_orbit(m, PermGroup(src.vertex_set, []))

    def test_incomplete_map_is_refused_before_it_is_classified(self, monkeypatch):
        classified = []
        classify = quograph.homs.classify
        monkeypatch.setattr(quograph.homs, "classify", lambda *args: classified.append(args) or classify(*args))
        src = Graph(["a"], [])
        m = HomMap(src, Graph(["x", "y"], [("x", "y")]), {"a": "x"})
        with pytest.raises(HypothesisError, match="^hypotheses not satisfied: complete$"):
            count_orbit(m, PermGroup(src.vertex_set, []))
        assert classified == []

    @given(orbit_instances())
    @settings(max_examples=30, deadline=None)
    def test_total_matches_oracle_on_random_instances(self, inst):
        bd = count_orbit(inst.m, inst.grp)
        assert bd.total == oracle_component_count(inst.m.source)
        assert every_choice_terms(inst.m) == [{t.value} for t in bd.terms]


PIECES = {"edge": [(0, 1)], "triangle": [(0, 1), (0, 2), (1, 2)], "path": [(0, 1), (1, 2), (2, 3)]}


def many_components(count=300):
    """``count`` pieces (edge, triangle, 3-path in turn), each present twice;
    the group swaps the two copies and the map folds them together."""
    vertices, edges = [], []
    for i in range(count):
        piece = PIECES[("edge", "triangle", "path")[i % 3]]
        size = max(max(e) for e in piece) + 1
        for copy in "ab":
            vertices += [f"{copy}{i:03d}.{j}" for j in range(size)]
            edges += [(f"{copy}{i:03d}.{u}", f"{copy}{i:03d}.{v}") for u, v in piece]
    g = Graph(vertices, edges)
    swap = {v: {"a": "b", "b": "a"}[v[0]] + v[1:] for v in g.vertices}
    grp = PermGroup(g.vertex_set, [swap])
    return g, grp, quotient(g, orbit_partition(grp)).projection


class TestRatioWalk:
    @staticmethod
    def check_terms(m, bd):
        reference = rebuilding_ratio_count(m).terms
        assert all(type(t) is CountTerm for t in bd.terms)  # a plain tuple would compare equal too
        assert bd.terms == reference
        assert [t.as_dict() for t in bd.terms] == [t.as_dict() for t in reference]

    def test_unrandomized_representatives_are_component_leaders(self):
        g, grp, m = many_components()
        leaders = [block[0] for block in m.target.components().blocks]
        assert len(leaders) == 300
        for bd in (count_ce(m), count_orbit(m, grp)):
            assert [t.representative for t in bd.terms] == leaders
            self.check_terms(m, bd)
            assert bd.total == 600

    @given(orbit_instances())
    @settings(max_examples=30, deadline=None)
    def test_terms_are_count_terms_equal_to_the_label_walk(self, inst):
        self.check_terms(inst.m, count_orbit(inst.m, inst.grp))

    @pytest.mark.parametrize("method", ["ce", "B"])
    def test_a_count_builds_no_vertex_set(self, method, monkeypatch):
        # the count_ce benchmark's shape: edges, triangles and 3-paths, each
        # collapsed by its own orbits, blocks listed by smallest member;
        # neither the load, the quotient nor the count reads vertex_set
        reads = []
        monkeypatch.setattr(Graph, "vertex_set", property(lambda g: reads.append(g) or frozenset(g.vertices)))
        pieces = [(2, [(0, 1)], [[0, 1]], [1, 0]), (3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]], [1, 2, 0])]
        pieces.append((3, [(0, 1), (1, 2)], [[0, 2], [1]], [2, 1, 0]))
        vertices, edges, blocks, shift = [], [], [], {}
        for c in range(60):
            n, pairs, cells, aut = pieces[c % 3]
            names = [f"{c:03d}.{x}" for x in "abc"[:n]]
            vertices += names
            edges += [[names[a], names[b]] for a, b in pairs]
            blocks += [[names[x] for x in cell] for cell in cells]
            shift.update({names[x]: names[aut[x]] for x in range(n)})
        g = io.graph_from_dict({"vertices": vertices, "edges": edges})
        m = quotient(g, io.partition_from_dict({"blocks": blocks}, g)).projection
        if method == "ce":
            bd = count_ce(m)
        else:
            bd = count_orbit(m, io.group_from_dict({"generators": [shift]}, g))
        assert io.dumps(bd.as_dict()) and bd.total == 60
        assert reads == []


class TestCountCe:
    def test_two_triangles_without_group(self):
        g, _, m = two_triangles()
        assert count_ce(m).total == 2

    def test_balanced_example_counts_components(self):
        assert count_ce(balanced_two_component_map()).total == 2

    def test_rejects_unbalanced_multiplicities(self):
        with pytest.raises(HypothesisError):
            count_ce(lopsided_two_component_map())

    def test_rejects_non_locally_surjective(self):
        with pytest.raises(HypothesisError):
            count_ce(two_arcs_projection())

    @pytest.mark.parametrize(
        "source,target,mapping",
        [
            (Graph(["a"], []), Graph(["x", "y"], []), {"a": "x"}),
            (
                Graph([str(i) for i in range(6)], [(str(i), str((i + 1) % 6)) for i in range(6)]),
                Graph(["1", "2", "3", "4", "5"], [("1", "2"), ("1", "3"), ("2", "3"), ("4", "5")]),
                {str(i): "123"[i % 3] for i in range(6)},
            ),
        ],
        ids=["isolated-vertex", "hexagon-twice-round-a-triangle"],
    )
    def test_refuses_a_map_that_misses_a_target_component(self, source, target, mapping):
        # locally surjective and component equitable, but a target component
        # has no fibre to read a ratio term from
        m = HomMap(source, target, mapping)
        assert is_locally_surjective(m) and is_component_equitable(m)
        with pytest.raises(HypothesisError, match="^hypotheses not satisfied: surjective$"):
            count_ce(m)
        assert count_admissible(m).terms[-1].value == 0

    def test_every_small_map_it_admits_is_counted_or_refused(self):
        # each locally surjective, component equitable map of the map sweep at (4, 3)
        outcomes = {"counted": 0, "refused": 0}
        targets = list(enumerate_graphs(3))
        for src in enumerate_graphs(4):
            for tgt in targets:
                for index_map in _index_maps(src, tgt):
                    m = HomMap._from_index_map(src, tgt, index_map)
                    if not (is_locally_surjective(m) and is_component_equitable(m)):
                        continue
                    if is_surjective(m):
                        assert count_ce(m).total == oracle_component_count(src) == count_admissible(m).total
                        outcomes["counted"] += 1
                    else:
                        with pytest.raises(HypothesisError, match="^hypotheses not satisfied: surjective$"):
                            count_ce(m)
                        outcomes["refused"] += 1
        assert outcomes == {"counted": 998, "refused": 1372}


class TestComponentIsoCheck:
    def test_triangle_copies_are_recognized(self):
        g, grp, m = two_triangles()
        assert component_iso_check(m, ("a0", "a1", "a2"))

    def test_folded_hexagon_is_not_a_copy(self):
        g, grp, m = hexagon_antipodal()
        assert not component_iso_check(m, tuple(sorted(g.vertices)))

    def test_requires_pseudo_covering(self):
        with pytest.raises(HypothesisError):
            component_iso_check(two_arcs_projection(), ("1a", "3"))


class TestConnectednessCriterion:
    def test_hexagon_fold_proves_connectedness(self):
        g, grp, m = hexagon_antipodal()
        p = Partition([["0", "3"], ["1", "4"], ["2", "5"]], g.vertex_set)
        assert connectedness_criterion(quotient(g, p).projection) is True

    def test_two_triangles_stay_inconclusive(self):
        # quotient is connected and pseudo-covered, but every cell straddles
        # both components, so the criterion cannot certify anything
        g, _, _ = two_triangles()
        p = Partition([["a0", "b0"], ["a1", "b1"], ["a2", "b2"]], g.vertex_set)
        assert connectedness_criterion(quotient(g, p).projection) is False

    def test_rejects_wild_projection(self):
        g = two_arcs_graph()
        p = Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)
        with pytest.raises(HypothesisError):
            connectedness_criterion(quotient(g, p).projection)

    def test_refusal_names_the_pseudo_covering_hypothesis(self):
        g = two_arcs_graph()
        m = quotient(g, Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)).projection
        assert m.target.components().count == 1 and not is_pseudo_covering(m)
        with pytest.raises(HypothesisError, match="^hypotheses not satisfied: pseudo_covering$"):
            connectedness_criterion(m)

    def test_rejects_disconnected_quotient(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        p = Partition([["a", "b"], ["c", "d"]], g.vertex_set)
        with pytest.raises(HypothesisError):
            connectedness_criterion(quotient(g, p).projection)

    def test_sound_on_pseudo_coverings_that_are_not_projections(self):
        # Targets keep their own labels, so no map here is a quotient
        # projection; a True verdict must still mean a connected source.
        targets = [t for t in enumerate_graphs(3) if t.components().count == 1]
        verdicts = {True: 0, False: 0}
        for g in enumerate_graphs(4):
            for t in targets:
                for mapping in enumerate_homs(g, t):
                    m = HomMap(g, t, mapping)
                    if not is_pseudo_covering(m):
                        continue
                    verdict = connectedness_criterion(m)
                    verdicts[verdict] += 1
                    if verdict:
                        assert oracle_component_count(g) == 1
        assert verdicts[True] and verdicts[False]


def drop_first_row(table):
    return {y: counts for y, counts in table.items() if y}


def split_first_row(table):
    return {**table, 0: {0: 2, 5: 1}}


class TestSelfChecks:
    """Each counter's own check fires when the fact it compares is wrong.

    The map collapses the edge a-b onto one vertex and keeps c, so the
    fibre table is {0: {0: 2}, 1: {1: 1}}.  A doctored table drops the first
    row, or adds a component the fibre does not meet; the counters read it
    through ``homs._fibre_blocks`` and must raise InternalCheckError, and
    ``count`` must exit 3 with nothing on stdout.
    """

    @staticmethod
    def projection():
        g = Graph(["a", "b", "c"], [("a", "b")])
        return quotient(g, Partition([["a", "b"], ["c"]], g.vertices)).projection

    @staticmethod
    def doctor(monkeypatch, change):
        original = quograph.homs._fibre_blocks
        monkeypatch.setattr(quograph.homs, "_fibre_blocks", lambda m: change(original(m)))

    def test_a_component_image_short_of_its_target_component(self, monkeypatch):
        self.doctor(monkeypatch, drop_first_row)
        with pytest.raises(InternalCheckError, match="^component image is not a full target component$"):
            image_of_component(self.projection(), ("a", "b"))

    def test_a_preimage_union_that_differs_from_the_preimage(self):
        # the source's cached components claim c joins a and b
        m = self.projection()
        m.source._components = Partition([["a", "b", "c"]], m.source.vertices)
        with pytest.raises(InternalCheckError, match="^component preimage union differs from the direct preimage$"):
            _preimage_union(m, 0)

    @pytest.mark.parametrize(
        "method,change,message",
        [
            ("A", drop_first_row, "admissibility count disagrees with the component index"),
            ("ce", drop_first_row, "no admissible component for a target vertex"),
            ("ce", split_first_row, "multiplicity 2 does not divide fibre size 3"),
        ],
    )
    def test_a_count_that_disagrees(self, monkeypatch, capsys, tmp_path, method, change, message):
        self.doctor(monkeypatch, change)
        # the gates are skipped: component equitability reads the doctored table too
        monkeypatch.setattr(quograph.counting, "_require", lambda m, *names: None)
        with pytest.raises(InternalCheckError, match=f"^{message}$"):
            (count_admissible if method == "A" else count_ce)(self.projection())
        g = self.projection().source
        io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
        io.save_json(tmp_path / "p.json", {"blocks": [["a", "b"], ["c"]]})
        code = main(["count", str(tmp_path / "g.json"), str(tmp_path / "p.json"), "--method", method])
        assert (code, *capsys.readouterr()) == (3, "", f"internal check failed: {message}\n")
