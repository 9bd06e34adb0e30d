from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from quograph import (
    Graph,
    HomMap,
    Partition,
    PermGroup,
    Permutation,
    make_symmetric,
)
from quograph import io

from conftest import graphs, graphs_with_partitions
from golden import GRAPH_REFUSALS, LOADER_REFUSALS


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

    @pytest.mark.parametrize("vertices,edges,message", GRAPH_REFUSALS + LOADER_REFUSALS)
    def test_refusal_message(self, vertices, edges, message):
        with pytest.raises(ValueError) as exc:
            io.graph_from_dict({"vertices": vertices, "edges": edges})
        assert str(exc.value) == message


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


class TestGroupFormat:
    def test_round_trip(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        rot = Permutation({"a": "b", "b": "c", "c": "a"})
        grp = PermGroup(g.vertex_set, [rot])
        doc = io.group_to_dict(grp)
        again = io.group_from_dict(doc, g)
        assert [f.mapping for f in again.generators] == [rot.mapping]

    def test_bad_generator_message(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError, match="bad generator"):
            io.group_from_dict({"generators": [{"a": "a"}]}, g)

    @pytest.mark.parametrize("doc", [[], {}, {"generators": {}}, {"generators": ["x"]}])
    def test_malformed_documents_rejected(self, doc):
        g = Graph(["a"], [])
        with pytest.raises(ValueError):
            io.group_from_dict(doc, g)


class TestCayleyFormat:
    def test_round_trip(self):
        s3 = make_symmetric(3)
        again = io.cayley_from_dict(io.cayley_to_dict(s3))
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


class TestCanonicalText:
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
