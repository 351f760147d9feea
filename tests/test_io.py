"""On-disk format round trips."""

from __future__ import annotations

import json

import pytest

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    InvalidParams,
    TreeDecomposition,
    best_choice_sequence,
)
from recolor import io as rio
from recolor.engine import RecoloringSequence, RecoloringStep


def sample_graph():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestGraphFormats:
    def test_text_round_trip(self):
        g = sample_graph()
        assert rio.graph_from_text(rio.graph_to_text(g)) == g

    def test_text_header_checked(self):
        with pytest.raises(InvalidParams):
            rio.graph_from_text("3\n")
        with pytest.raises(InvalidParams):
            rio.graph_from_text("3 2\n0 1\n")

    def test_json_round_trip(self):
        g = sample_graph()
        assert rio.graph_from_json(rio.graph_to_json(g)) == g

    def test_bool_ids_read_as_ints(self):
        # Graph holds True as 1, so its JSON reads back: no `true` in it
        g = Graph(3, [(True, 0), (1, 2)])
        obj = rio.graph_to_json(g)
        assert obj == {"n": 3, "adj": [[1], [0, 2], [1]]}
        assert all(type(v) is int for nbrs in g.adj for v in nbrs)
        assert rio.graph_from_json(json.loads(json.dumps(obj))) == g
        with pytest.raises(TypeError):
            Graph(2, [(0.0, 1)])

    def test_json_accepts_edge_list(self):
        g = rio.graph_from_json({"n": 3, "edges": [[0, 1], [1, 2]]})
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_json_one_sided_adjacency_rejected(self):
        with pytest.raises(InvalidParams, match="lists 1 as a neighbor of 0 but not 0 of 1"):
            rio.graph_from_json({"n": 2, "adj": [[1], []]})

    @pytest.mark.parametrize(
        "read, data",
        [
            (rio.graph_from_json, {"n": 11, "edges": []}),
            (rio.graph_from_json, {"n": 11, "adj": [[]] * 11}),
            (rio.graph_from_text, "11 0\n"),
        ],
    )
    def test_vertex_count_bounded(self, monkeypatch, read, data):
        monkeypatch.setattr(rio, "MAX_VERTICES", 10)
        with pytest.raises(InvalidParams):
            read(data)

    def test_vertex_count_at_bound_reads(self, monkeypatch):
        monkeypatch.setattr(rio, "MAX_VERTICES", 10)
        assert rio.graph_from_json({"n": 10, "edges": []}).n == 10
        assert rio.graph_from_json({"n": 10, "adj": [[]] * 10}).n == 10
        assert rio.graph_from_text("10 0\n").n == 10

    def test_read_graph_sniffs_and_unwraps_bundles(self, tmp_path):
        g = sample_graph()
        p1 = tmp_path / "g.txt"
        p1.write_text(rio.graph_to_text(g))
        assert rio.read_graph(p1) == g
        p2 = tmp_path / "g.json"
        p2.write_text(json.dumps({"graph": rio.graph_to_json(g)}))
        assert rio.read_graph(p2) == g


class TestOtherFormats:
    def test_coloring_round_trip(self, tmp_path):
        c = Coloring((1, 3, 2), 3)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(list(c.colors)))
        assert rio.read_coloring(p, 3) == c

    def test_coloring_must_be_array(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"colors": [1, 2]}')
        with pytest.raises(InvalidParams):
            rio.read_coloring(p, 3)

    def test_decomposition_round_trip(self):
        td = TreeDecomposition([{0, 1, 2}, {0, 2, 3}], [(0, 1)])
        obj = rio.decomposition_to_json(td)
        assert rio.decomposition_from_json(obj) == td

    def test_decomposition_bool_ids_read_as_ints(self):
        td = TreeDecomposition([[True, 0], [1, 2]], [(False, True)])
        obj = rio.decomposition_to_json(td)
        assert obj == {"bags": [[0, 1], [1, 2]], "tree_edges": [[0, 1]]}
        assert type(td.tree_edges[0][0]) is int
        assert all(type(v) is int for b in td.bags for v in b)
        assert rio.decomposition_from_json(json.loads(json.dumps(obj))) == td

    @pytest.mark.parametrize("bags, tree_edges", [
        ([[0.0, 1]], []),
        ([[0, 1], [1, "2"]], [(0, 1)]),
        ([[0, 1], [1, 2]], [(0, 1.0)]),
    ])
    def test_decomposition_non_integer_ids_rejected(self, bags, tree_edges):
        with pytest.raises(TypeError):
            TreeDecomposition(bags, tree_edges)

    def test_sequence_round_trip(self, tmp_path):
        s = RecoloringSequence(
            (RecoloringStep(1, 3), RecoloringStep(0, 2)), Coloring((1, 2, 1), 3)
        )
        p = tmp_path / "s.json"
        p.write_text(json.dumps(rio.sequence_to_json(s)))
        assert rio.read_sequence(p) == s

    def test_constructed_sequence_round_trip(self, tmp_path):
        g = sample_graph()
        ordering = EliminationOrdering(g, (0, 1, 2, 3))
        s = best_choice_sequence(
            g, ordering, Coloring((1, 2, 1, 2), 3), Coloring((2, 1, 2, 1), 3)
        )
        assert s.steps
        p = tmp_path / "s.json"
        p.write_text(json.dumps(rio.sequence_to_json(s)))
        assert rio.read_sequence(p) == s

    def test_sequence_json_shape(self):
        s = RecoloringSequence((RecoloringStep(1, 3),), Coloring((1, 2), 3))
        obj = rio.sequence_to_json(s)
        assert obj == {"palette": 3, "start": [1, 2], "steps": [[1, 3]]}

    def test_ordering_reader_accepts_plain_list(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)])
        p = tmp_path / "o.json"
        p.write_text("[2, 1, 0]")
        o = rio.read_ordering(p, g)
        assert o.order == (2, 1, 0)
        assert o.graph is g and o.back_nbrs == ((1,), (2,), ())
        p.write_text('["2", 1, 0]')
        with pytest.raises(InvalidParams):
            rio.read_ordering(p, g)

    @pytest.mark.parametrize(
        "reader, obj",
        [
            (rio.graph_from_json, [3]),
            (rio.graph_from_json, {"n": [3], "edges": []}),
            (rio.graph_from_json, {"n": 3, "adj": [[1], 2, []]}),
            (rio.graph_from_json, {"n": 3, "edges": [[0, 1, 2]]}),
            (rio.decomposition_from_json, {"bags": 5, "tree_edges": []}),
            (rio.decomposition_from_json, {"bags": [[0], [0]], "tree_edges": [0]}),
            (rio.sequence_from_json, {"palette": None, "start": [1], "steps": []}),
            (rio.sequence_from_json, {"palette": 3, "start": 1, "steps": []}),
            (rio.sequence_from_json, {"palette": 3, "start": [1], "steps": [[0, {}]]}),
            (rio.sequence_from_json, {"palette": 3, "start": [1, 2.0], "steps": []}),
            (rio.sequence_from_json, {"palette": True, "start": [1], "steps": []}),
            (rio.graph_from_json, {"n": 3, "edges": [[0, 1.7], [1, 2]]}),
            (rio.graph_from_json, {"n": 3, "edges": [[0, 1], [True, 2]]}),
            (rio.graph_from_json, {"n": 3.0, "adj": [[1], [0], []]}),
            (rio.graph_from_json, {"n": 3, "adj": [[1], [0, False], []]}),
            (rio.graph_from_json, {"n": 5, "adj": [[1], [0]]}),
            (rio.sequence_from_json, {"palette": 3, "start": ["one"], "steps": []}),
            (rio.graph_from_json, {"n": 3, "edges": [["0", " 1"], [1, 2]]}),
            (rio.graph_from_json, {"n": "3", "edges": []}),
            (rio.graph_from_json, {"n": 3, "adj": [["1"], [0], []]}),
            (rio.decomposition_from_json, {"bags": [["0"]], "tree_edges": []}),
            (rio.sequence_from_json, {"palette": "5", "start": [1], "steps": []}),
            (rio.sequence_from_json, {"palette": 3, "start": ["1"], "steps": []}),
            (rio.sequence_from_json, {"palette": 3, "start": [1], "steps": [["0", 2]]}),
        ],
    )
    def test_wrongly_typed_json_rejected(self, reader, obj):
        with pytest.raises(InvalidParams):
            reader(obj)

    @pytest.mark.parametrize(
        "text",
        ["3 1\n0 1.5\n", "3 one\n", "3 1\nzero 1\n", "1_0 1\n0 2\n", "3 1\n+2 1\n", "3 1\n0 ٢\n"],
    )
    def test_non_integer_text_graph_rejected(self, text):
        # none is an ASCII decimal integer; int() takes the last three
        with pytest.raises(InvalidParams):
            rio.graph_from_text(text)
