from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import (
    Graph,
    HomMap,
    Partition,
    PermGroup,
    make_symmetric,
)
from quograph import io
from quograph.counting import CountBreakdown, CountTerm, count_admissible, count_ce, count_orbit
from quograph.errors import HypothesisError
from quograph.verify import _index_maps, enumerate_graphs

from conftest import graphs, graphs_with_partitions
from golden import (
    BLOCK_REFUSALS,
    CAYLEY_LOADER_REFUSALS,
    EDGE_REFUSALS,
    GRAPH_REFUSALS,
    GROUP_LOADER_REFUSALS,
    LOADER_REFUSALS,
    PARTITION_LOADER_REFUSALS,
    PARTITION_REFUSALS,
)
from reference import cayley_to_dict, graph_document_result, indent_dumps, map_document_result, orbit_instances_for


def loaded(load, *args):
    """What a loader returns, or the message of its refusal."""
    try:
        return load(*args)
    except ValueError as exc:
        return str(exc)


# Items of documents with several faults at once: declared and undeclared
# labels (so loops and repeated edges turn up too), values that are no
# strings, edges of the wrong shape and partial maps.
NO_STRINGS = st.sampled_from([1, None, True, 2.5, ["a"], {"a": "b"}])
DOC_LABELS = st.sampled_from(["a", "b", "c", "z"])
GOOD_EDGES = st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=2)
DOC_EDGES = st.one_of(
    GOOD_EDGES,
    GOOD_EDGES,
    GOOD_EDGES,
    st.lists(DOC_LABELS, min_size=2, max_size=2),
    st.lists(st.one_of(DOC_LABELS, DOC_LABELS, NO_STRINGS), min_size=2, max_size=2),
    st.sampled_from([[], ["a"], ["a", "b", "c"], "ab", {"a": "b"}, 5, None]),
)
DOC_VERTICES = st.one_of(
    st.just(["a", "b", "c"]),
    st.lists(st.one_of(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]), NO_STRINGS), max_size=4),
)
MAP_SOURCES = [Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]), Graph(["a", "b"], [])]
MAP_TARGETS = [Graph(["x", "y"], [("x", "y")]), Graph(["w", "x", "y"], [("x", "y")])]


@st.composite
def map_documents(draw):
    """A source, a target and a map between them: some source vertices
    left out, an unknown vertex "q" perhaps added, images in the target,
    outside it or no strings, all in a drawn order."""
    source, target = draw(st.sampled_from(MAP_SOURCES)), draw(st.sampled_from(MAP_TARGETS))
    images = st.one_of(st.sampled_from(target.vertices), st.sampled_from(target.vertices), st.just("v"), NO_STRINGS)
    keys = [v for v in source.vertices if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 3)):
        keys.append("q")
    items = draw(st.permutations([(v, draw(images)) for v in keys]))
    return source, target, dict(items)


class TestGraphFormat:
    @given(graphs())
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert io.graph_from_dict(io.graph_to_dict(g)) == g

    def test_edges_come_out_sorted(self):
        g = Graph(["b", "a", "c"], [("c", "a"), ("b", "a")])
        assert io.graph_to_dict(g)["edges"] == [["a", "b"], ["a", "c"]]

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"edges": []},
            {"vertices": []},
            {"vertices": "ab", "edges": []},
            {"vertices": [], "edges": {}},
            {"vertices": ["a", "b"], "edges": [["a"]]},
            {"vertices": ["a", "b"], "edges": ["ab"]},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            io.graph_from_dict(doc)

    @pytest.mark.parametrize("vertices,edges,message", GRAPH_REFUSALS + LOADER_REFUSALS + EDGE_REFUSALS)
    def test_refusal_message(self, vertices, edges, message):
        with pytest.raises(ValueError) as exc:
            io.graph_from_dict({"vertices": vertices, "edges": edges})
        assert str(exc.value) == message

    @given(DOC_VERTICES, st.lists(DOC_EDGES, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_multi_fault_documents_agree_with_the_two_walks(self, vertices, edges):
        got = loaded(io.graph_from_dict, {"vertices": vertices, "edges": edges})
        if isinstance(got, Graph):
            got = got.vertices, got.proper_edges
        assert got == graph_document_result(vertices, edges)


class TestPartitionFormat:
    @given(graphs_with_partitions())
    @settings(max_examples=60)
    def test_round_trip(self, gp):
        g, p = gp
        assert io.partition_from_dict(io.partition_to_dict(p), g) == p

    @pytest.mark.parametrize(
        "doc", [[], {}, {"blocks": "ab"}, {"blocks": ["ab"]}]
    )
    def test_malformed_documents_rejected(self, doc):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError):
            io.partition_from_dict(doc, g)

    def test_blocks_must_cover_the_graph(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError):
            io.partition_from_dict({"blocks": [["a"]]}, g)

    # the loader's shape checks, then the partition's own refusals, which
    # the loader words as the Partition constructor does
    @pytest.mark.parametrize("vertices,blocks,message", PARTITION_LOADER_REFUSALS + PARTITION_REFUSALS + BLOCK_REFUSALS)
    def test_refusal_message(self, vertices, blocks, message):
        with pytest.raises(ValueError) as exc:
            io.partition_from_dict({"blocks": blocks}, Graph(vertices, []))
        assert str(exc.value) == message


class TestMapFormat:
    def test_round_trip(self):
        src = Graph(["1", "2"], [("1", "2")])
        tgt = Graph(["x"], [])
        m = HomMap(src, tgt, {"1": "x", "2": "x"})
        again = io.hom_from_dict(io.hom_to_dict(m), src, tgt)
        assert again.mapping == m.mapping

    @pytest.mark.parametrize("doc", [[], {}, {"map": ["a", "x"]}])
    def test_malformed_documents_rejected(self, doc):
        g = Graph(["a"], [])
        with pytest.raises(ValueError):
            io.hom_from_dict(doc, g, g)

    @given(map_documents())
    @settings(max_examples=400, deadline=None)
    def test_multi_fault_documents_agree_with_the_two_walks(self, case):
        source, target, mapping = case
        got = loaded(io.hom_from_dict, {"map": mapping}, source, target)
        if isinstance(got, HomMap):
            got = got.mapping
        assert got == map_document_result(source, target, mapping)


class TestGroupFormat:
    def test_round_trip(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        rot = {"a": "b", "b": "c", "c": "a"}
        grp = PermGroup(g.vertex_set, [rot])
        doc = io.group_to_dict(grp)
        again = io.group_from_dict(doc, g)
        assert again.generators == (rot,)

    def test_bad_generator_message(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError, match="bad generator"):
            io.group_from_dict({"generators": [{"a": "a"}]}, g)

    @pytest.mark.parametrize("doc", [[], {}, {"generators": {}}, {"generators": ["x"]}])
    def test_malformed_documents_rejected(self, doc):
        g = Graph(["a"], [])
        with pytest.raises(ValueError):
            io.group_from_dict(doc, g)

    @pytest.mark.parametrize("vertices,generators,message", GROUP_LOADER_REFUSALS)
    def test_refusal_message(self, vertices, generators, message):
        with pytest.raises(ValueError) as exc:
            io.group_from_dict({"generators": generators}, Graph(vertices, []))
        assert str(exc.value) == message


class TestCayleyFormat:
    def test_round_trip(self):
        s3 = make_symmetric(3)
        again = io.cayley_from_dict(cayley_to_dict(s3))
        assert again.elements == s3.elements
        assert again.identity == s3.identity
        for a in s3.elements:
            for b in s3.elements:
                assert again.op(a, b) == s3.op(a, b)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"identity": "e", "table": {}},
            {"elements": ["e"], "table": {}},
            {"elements": ["e"], "identity": "e"},
            {"elements": "e", "identity": "e", "table": {}},
            {"elements": ["e"], "identity": "e", "table": []},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            io.cayley_from_dict(doc)

    @pytest.mark.parametrize("doc,message", CAYLEY_LOADER_REFUSALS)
    def test_refusal_message(self, doc, message):
        with pytest.raises(ValueError) as exc:
            io.cayley_from_dict(doc)
        assert str(exc.value) == message


# Strings that look like the emitter's own layout, or that the encoder must
# escape, beside arbitrary text.
TRICKY_TEXT = st.sampled_from(
    ['"', "\\", "\n", "},\n  {", "],\n  [", "},\n    {", "é", "☃", "\x00", "\x1f", "\ud800", ""]
) | st.text(max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TRICKY_TEXT
FLAT = SCALARS | st.builds(list) | st.builds(dict)
LEAF_DICTS = st.dictionaries(TRICKY_TEXT, FLAT, max_size=4)
LEAF_LISTS = st.lists(FLAT, max_size=4)


def json_containers(children):
    """Lists and objects of the subtrees, and lists of leaf containers: all
    objects or all lists, which ``io.dumps`` may write in one call, or
    mixed."""
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(TRICKY_TEXT, children, max_size=4)
        | st.lists(LEAF_DICTS, max_size=4)
        | st.lists(LEAF_LISTS, max_size=4)
        | st.lists(LEAF_DICTS | LEAF_LISTS, min_size=2, max_size=4)
    )


JSON_TREES = st.recursive(SCALARS | LEAF_DICTS | LEAF_LISTS, json_containers, max_leaves=24)

# Keys that look like a row template's slots and separators.
ROW_KEYS = st.sampled_from(["%", "%s", "%%s", "%(a)s", '"a": 0,\n', '": 0,\n  "', ": %s,"]) | TRICKY_TEXT


@st.composite
def same_key_rows(draw):
    """2-6 objects of one key set, one key or several, each inserting the
    keys in its own order."""
    keys = draw(st.lists(ROW_KEYS, min_size=1, max_size=4, unique=True))
    return [
        {k: draw(FLAT) for k in draw(st.permutations(keys))}
        for _ in range(draw(st.integers(2, 6)))
    ]


class TestCanonicalText:
    @given(JSON_TREES)
    @settings(max_examples=400)
    def test_dumps_matches_the_indenting_encoder(self, tree):
        assert io.dumps(tree) == indent_dumps(tree)

    @pytest.mark.parametrize(
        "payload",
        [
            {1: ["a"], 2.5: {"b": [1]}, -3: [[]]},
            {None: [[1], [2]]},
            {True: [{"a": 1}], False: {"b": 2}},
            ({"a": (1, 2)}, ("b", ("c",)), ((1,), (2, 3))),
            [float("nan"), float("inf"), -0.0, 1e300],
            [[[], []], [1, {}, []], [2]],
            [{"a": [], "b": {}}, {"c": []}],
        ],
        ids=["number-keys", "null-key", "bool-keys", "tuples", "special-floats", "empty-in-lists", "empty-in-objects"],
    )
    def test_dumps_matches_on_edge_cases(self, payload):
        assert io.dumps(payload) == indent_dumps(payload)

    @given(same_key_rows(), st.integers(0, 2))
    @settings(max_examples=400)
    def test_same_key_rows_match_the_indenting_encoder(self, rows, depth):
        for _ in range(depth):
            rows = {"rows": rows}
        assert io.dumps(rows) == indent_dumps(rows)

    @pytest.mark.parametrize(
        "payload",
        [
            [{1: "a"}, {True: "b"}],
            [{1: 0}, {1.0: 0}],
            [{"a": 1}],
            [{"a": 1}, {"b": 1}],
            [{"a": [1]}, {"a": [2]}],
        ],
        ids=["int-and-bool-keys", "int-and-float-keys", "one-row", "other-keys", "nested-values"],
    )
    def test_rows_outside_the_template(self, payload):
        # equal keys the encoder writes differently, one row, other keys in each row, nested values
        assert io.dumps(payload) == indent_dumps(payload)

    @pytest.mark.parametrize(
        "payload", [{(1,): [1]}, {1: [1], "a": [2]}, [{(1,): 1}, {"a": 1}], [{(1,): 1}, {(1,): 2}]]
    )
    def test_dumps_refuses_what_the_encoder_refuses(self, payload):
        with pytest.raises(TypeError):
            indent_dumps(payload)
        with pytest.raises(TypeError):
            io.dumps(payload)

    def test_dumps_is_sorted_indented_and_newline_terminated(self):
        text = io.dumps({"b": 1, "a": [2, 3]})
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_same_graph_same_bytes(self):
        g1 = Graph(["b", "a"], [("b", "a")])
        g2 = Graph(["a", "b"], [("a", "b")])
        assert io.dumps(io.graph_to_dict(g1)) == io.dumps(io.graph_to_dict(g2))

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "g.json"
        g = Graph(["a", "b"], [("a", "b")])
        io.save_json(path, io.graph_to_dict(g))
        assert io.load_graph(path) == g
        raw = json.loads(path.read_text())
        assert raw == {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    def test_loaders_from_files(self, tmp_path):
        g = Graph(["a", "b", "c"], [("a", "b")])
        p = Partition([["a", "b"], ["c"]], g.vertex_set)
        io.save_json(tmp_path / "g.json", io.graph_to_dict(g))
        io.save_json(tmp_path / "p.json", io.partition_to_dict(p))
        g2 = io.load_graph(tmp_path / "g.json")
        assert io.load_partition(tmp_path / "p.json", g2) == p


# Labels the encoder must escape, or that look like the row template's slots.
TERM_LABELS = st.sampled_from(['"', "\\", "%", "%s", "%%s", "%(y)s", "é", "☃", "\n", "\x00", "\ud800", ""])
TERM_LABELS |= st.text(max_size=6)
TERM_INTS = st.integers(0, 10**20)


class Label(str):
    """A label type the encoder writes as ``str``, as ``count_text`` does."""


TERMS = st.builds(CountTerm, TERM_LABELS, TERM_LABELS, TERM_INTS, TERM_INTS, TERM_INTS)
ADMISSIBLE_TERMS = st.builds(CountTerm, TERM_LABELS, st.none(), st.none(), st.none(), TERM_INTS)


class TestCountText:
    """``io.count_text`` writes a breakdown's ``as_dict()`` as the standard
    library's indenting encoder does, from its terms alone."""

    @staticmethod
    def sweep_breakdowns():
        """Every breakdown the three counters give on the map sweep at
        bounds (3, 3) and on the orbit sweep at bound 4."""
        graphs = list(enumerate_graphs(3))
        for src in graphs:
            for tgt in graphs:
                for index_map in _index_maps(src, tgt):
                    m = HomMap._from_index_map(src, tgt, index_map)
                    for count in (count_admissible, count_ce):
                        try:
                            yield count(m)
                        except HypothesisError:
                            pass
        for g in enumerate_graphs(4):
            for m, grp in orbit_instances_for(g):
                yield count_orbit(m, grp)

    def test_every_sweep_breakdown(self):
        breakdowns = list(self.sweep_breakdowns())
        assert len(breakdowns) > 343  # the map sweep's admissible and ce counts, then the orbit counts
        for b in breakdowns:
            assert io.count_text(b) == indent_dumps(b.as_dict())

    # a ratio count's columns hold labels or ints, an admissible count's
    # leader and size columns None
    @given(st.lists(TERMS, min_size=1, max_size=5) | st.lists(ADMISSIBLE_TERMS, min_size=1, max_size=5), TERM_INTS)
    @settings(max_examples=300)
    def test_drawn_labels_and_null_columns(self, terms, total):
        b = CountBreakdown(tuple(terms), total)
        assert io.count_text(b) == indent_dumps(b.as_dict())

    @pytest.mark.parametrize(
        "terms,total",
        [
            ((CountTerm("a", "b", 2.0, 1, 2),), 2),
            ((CountTerm(Label("a"), "b", 1, 1, 1),), 1),
            ((CountTerm("a", Label("b"), 1, 1, 1),), 1),
            ((CountTerm("a", "b", 1, 1, 1),), 1.0),
            ((CountTerm("a", "b", 1, 1, 1),), True),
        ],
        ids=["float-size", "str-subclass-label", "str-subclass-leader", "float-total", "bool-total"],
    )
    def test_other_values_written_exactly(self, terms, total):
        # a str subclass is a label by its first cell, a float's %s is its
        # repr, and the total goes through dumps' own frame
        b = CountBreakdown(terms, total)
        assert io.count_text(b) == indent_dumps(b.as_dict())
