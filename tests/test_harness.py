"""Instance generators, batch experiments, and the command line."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    ExperimentConfig,
    Graph,
    InvalidParams,
    best_choice_sequence,
    certify_perfect,
    degeneracy,
    gen_chordal,
    gen_instance,
    gen_ktree,
    gen_partial_ktree,
    gen_random_coloring,
    is_proper,
    mcs_peo,
    resolve_t_rule,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    validate_decomposition,
)
from recolor import io as rio
from recolor.cli import main


class TestGenerators:
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_ktree_shape(self, k, seed):
        n = k + 5
        g, td, ordering = gen_ktree(n, k, seed)
        assert g.n == n
        assert g.m == k * (k + 1) // 2 + (n - k - 1) * k
        assert ordering.perfect
        assert certify_perfect(g, ordering).perfect
        assert ordering.max_back_degree == k
        assert validate_decomposition(g, td) == k

    def test_ktree_base_clique_only(self):
        g, td, ordering = gen_ktree(3, 2, seed=0)
        assert g.m == 3
        assert td.bags == (frozenset({0, 1, 2}),)

    def test_ktree_bad_params(self):
        with pytest.raises(InvalidParams):
            gen_ktree(2, 2, seed=0)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_chordal_certified_with_bounded_degeneracy(self, d, seed):
        g, ordering = gen_chordal(9, d, seed)
        assert ordering.perfect
        assert ordering.max_back_degree <= d
        assert degeneracy(g)[0] <= d
        assert mcs_peo(g).perfect

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_partial_ktree_is_subgraph_with_valid_decomposition(self, seed):
        full, _, _ = gen_ktree(10, 2, seed)
        g, td = gen_partial_ktree(10, 2, seed)
        assert set(g.edges()) <= set(full.edges())
        assert validate_decomposition(g, td) == 2
        assert degeneracy(g)[0] <= 2

    @pytest.mark.parametrize("keep_prob", [-1.0, -0.01, 1.01, 2.0])
    def test_partial_ktree_keep_prob_outside_unit_interval_rejected(self, keep_prob):
        # 2.0 used to keep every edge and -1.0 none
        with pytest.raises(InvalidParams, match="keep_prob"):
            gen_partial_ktree(10, 2, 0, keep_prob=keep_prob)

    @pytest.mark.parametrize("seed", [0.7, "1", None])
    def test_partial_ktree_non_integer_seed_named(self, seed):
        # keep_prob passed in the seed's place used to fail deep in the RNG
        # seeding with "unsupported operand type(s) for ^"
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            gen_partial_ktree(10, 2, seed, 1)

    def test_partial_ktree_bool_seed_reads_as_int(self):
        assert gen_partial_ktree(10, 2, True, 0.7) == gen_partial_ktree(10, 2, 1, 0.7)

    def test_partial_ktree_keep_prob_bounds_accepted(self):
        full = gen_ktree(10, 2, 0).graph
        assert gen_partial_ktree(10, 2, 0, keep_prob=0.0).graph.m == 0
        assert gen_partial_ktree(10, 2, 0, keep_prob=1.0).graph == full

    def test_gen_instance_rejects_unknown_family(self):
        with pytest.raises(InvalidParams):
            gen_instance("grid", 8, 2, 0)

    def test_generators_are_deterministic(self):
        a = gen_ktree(12, 2, seed=42)
        b = gen_ktree(12, 2, seed=42)
        assert a.graph == b.graph and a.decomposition == b.decomposition
        assert gen_partial_ktree(12, 2, 7).graph == gen_partial_ktree(12, 2, 7).graph

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_random_coloring_is_proper(self, seed, extra):
        g, _, ordering = gen_ktree(8, 2, seed)
        c = gen_random_coloring(g, ordering, 2 + extra, seed)
        assert is_proper(g, c)
        assert c.palette_size == 2 + extra


class TestExperiment:
    def test_t_rule_parsing(self):
        assert resolve_t_rule("2d+1", 3) == 7
        assert resolve_t_rule("d+2", 3) == 5
        assert resolve_t_rule("3d-1", 2) == 5
        assert resolve_t_rule("d", 4) == 4
        assert resolve_t_rule("6", 3) == 6
        assert resolve_t_rule(9, 3) == 9
        with pytest.raises(InvalidParams):
            resolve_t_rule("2x+1", 3)

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(trials=0).validate()
        with pytest.raises(InvalidParams):
            ExperimentConfig(family="grid").validate()
        with pytest.raises(InvalidParams):
            ExperimentConfig(n_values=[0]).validate()
        with pytest.raises(InvalidParams):
            ExperimentConfig(k=0).validate()

    def test_small_batch_is_clean(self):
        cfg = ExperimentConfig(
            family="ktree", n_values=[8, 12], k=2, t_rule="2d+1", trials=6, seed=3
        )
        rows, summary = run_experiment(cfg)
        assert len(rows) == 6
        assert summary["violations"] == 0
        assert summary["errors"] == 0
        assert summary["max_per_vertex_count"] == max(r.max_count for r in rows)
        assert {r.n for r in rows} == {8, 12}

    def test_oracle_cross_check_dominates(self):
        cfg = ExperimentConfig(
            family="chordal",
            n_values=[5],
            k=1,
            t_rule="d+2",
            trials=5,
            seed=11,
            oracle_cross_check=True,
        )
        rows, summary = run_experiment(cfg)
        assert summary["violations"] == 0
        for r in rows:
            assert r.oracle_distance is not None
            assert r.length >= r.oracle_distance

    def test_naughty_column_populated(self):
        cfg = ExperimentConfig(
            family="ktree", n_values=[8], k=3, t_rule="2d+1",
            trials=3, seed=5, naughty=True,
        )
        rows, _ = run_experiment(cfg)
        assert all(r.naughty_max is not None for r in rows)

    def test_naughty_scan_on_partial_3trees(self):
        # Degeneracy back-neighborhoods of a partial 3-tree are not all
        # cliques; only the clique ones may be scanned.
        cfg = ExperimentConfig(
            family="partial-ktree", n_values=[20, 40], k=3, t_rule="2d+1",
            trials=4, seed=0, naughty=True,
        )
        rows, summary = run_experiment(cfg)
        assert summary["errors"] == 0
        assert all(r.d == 3 and r.naughty_max is not None for r in rows)

    def test_csv_is_deterministic_and_time_free(self):
        cfg = ExperimentConfig(n_values=[10], trials=4, seed=9)
        csv1 = rows_to_csv(run_experiment(cfg)[0])
        csv2 = rows_to_csv(run_experiment(cfg)[0])
        assert csv1 == csv2
        header = csv1.splitlines()[0]
        assert "wall_time_s" not in header
        assert "wall_time_s" in rows_to_csv(run_experiment(cfg)[0], timings=True)

    def test_json_rows_parse(self):
        cfg = ExperimentConfig(n_values=[6], trials=2, seed=1)
        rows, _ = run_experiment(cfg)
        parsed = json.loads(rows_to_json(rows))
        assert len(parsed) == 2
        assert parsed[0]["schema_version"] == 1


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def write_p3(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        a = tmp_path / "a.json"
        a.write_text("[1, 2, 1]")
        b = tmp_path / "b.json"
        b.write_text("[2, 1, 2]")
        return str(g), str(a), str(b)

    def test_gen_bundle_and_peo(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = self.run(
            capsys, "gen", "--family", "ktree", "--n", "8", "--k", "2",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["graph"]["n"] == 8
        code, stdout, _ = self.run(capsys, "peo", "--graph", str(out))
        assert code == 0
        assert json.loads(stdout)["perfect"] is True

    @pytest.mark.parametrize(
        "family, keys",
        [
            ("ktree", ["graph", "decomposition", "ordering"]),
            ("chordal", ["graph", "ordering"]),
            ("partial-ktree", ["degeneracy", "graph", "decomposition", "ordering"]),
        ],
    )
    def test_gen_bundle_keys(self, tmp_path, capsys, family, keys):
        out = tmp_path / "inst.json"
        code, _, _ = self.run(
            capsys, "gen", "--family", family, "--n", "8", "--k", "2", "--out", str(out)
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        assert list(bundle) == ["schema_version", "family", "seed", "k", *keys]
        assert bundle["family"] == family

    def test_recolor_then_analyze_round_trip(self, tmp_path, capsys):
        g, a, b = self.write_p3(tmp_path)
        seq_file = tmp_path / "s.json"
        code, _, _ = self.run(
            capsys, "recolor", "--graph", g, "--t", "3",
            "--alpha", a, "--beta", b, "--out", str(seq_file),
        )
        assert code == 0
        stored = json.loads(seq_file.read_text())
        assert stored["steps"] == [[1, 3], [0, 2], [2, 2], [1, 1]]
        assert stored["length"] == 4
        code, stdout, _ = self.run(capsys, "analyze", "--graph", g, "--seq", str(seq_file))
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True and report["max_count"] == 2
        code, stdout, _ = self.run(
            capsys, "analyze", "--graph", g, "--seq", str(seq_file), "--format", "csv"
        )
        assert code == 0
        assert stdout == "vertex,count\n0,1\n1,2\n2,1\n"

    def test_recolor_short_alpha_is_bad_input(self, tmp_path, capsys):
        g, _, b = self.write_p3(tmp_path)
        code, out, err = self.run(
            capsys, "recolor", "--graph", g, "--t", "3", "--alpha", "[1, 2]", "--beta", b
        )
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: coloring covers 2 vertices, graph has 3\n"

    def test_gen_text_format_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, stdout, _ = self.run(
            capsys, "gen", "--n", "8", "--seed", "4", "--format", "text", "--out", str(out)
        )
        assert code == 0 and stdout == ""
        g = gen_instance("ktree", 8, 2, 4)[0]
        assert out.read_text() == rio.graph_to_text(g)

    def test_recolor_non_chordal_uses_degeneracy_ordering(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        f = tmp_path / "c4.json"
        f.write_text(json.dumps(rio.graph_to_json(g)))
        code, stdout, _ = self.run(
            capsys, "recolor", "--graph", str(f), "--t", "4",
            "--alpha", "[1, 2, 1, 2]", "--beta", "[2, 1, 2, 1]",
        )
        assert code == 0
        s = best_choice_sequence(
            g, degeneracy(g)[1], Coloring((1, 2, 1, 2), 4), Coloring((2, 1, 2, 1), 4)
        )
        assert json.loads(stdout)["steps"] == rio.sequence_to_json(s)["steps"]

    def test_analyze_rejects_invalid_sequence(self, tmp_path, capsys):
        g, a, b = self.write_p3(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"palette": 3, "start": [1, 2, 1], "steps": [[1, 1]]}))
        code, stdout, _ = self.run(capsys, "analyze", "--graph", g, "--seq", str(bad))
        assert code == 1
        report = json.loads(stdout)
        assert report["passed"] is False
        assert report["violations"][0]["check"] == "validity"

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_analyze_rejects_step_vertex_out_of_range(self, tmp_path, capsys, bad):
        inst = tmp_path / "inst.json"
        code, _, _ = self.run(capsys, "gen", "--n", "6", "--k", "2", "--out", str(inst))
        assert code == 0
        g, _, ordering = gen_ktree(6, 2, seed=0)
        start = gen_random_coloring(g, ordering, 5, seed=0)
        seq_file = tmp_path / "s.json"
        seq_file.write_text(
            json.dumps({"palette": 5, "start": list(start.colors), "steps": [[bad, 1]]})
        )
        code, stdout, err = self.run(
            capsys, "analyze", "--graph", str(inst), "--seq", str(seq_file)
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: ValueError: step 0 recolors vertex {bad}, outside 0..5\n"

    @pytest.mark.parametrize(
        "command, content",
        [
            ("pipeline", {"bags": [["0", "1", "2"]], "tree_edges": []}),
            ("peo", {"n": 3, "adj": 5}),
            ("peo", {"n": 3, "edges": [1, 2]}),
            ("recolor", [[1], [2], [1]]),
            ("analyze", {"palette": 5, "start": [1, 2, 3, 1, 2, 3], "steps": [1]}),
            ("peo", {"n": 3, "edges": [[0, 1.7], [True, 2]]}),
            ("recolor", [1, 2, 3, 1, 2.0, 3]),
            ("pipeline", 5),
            ("pipeline", None),
            ("pipeline", True),
            ("pipeline", "decomposition"),
            ("peo", {"n": 5, "adj": [[1], [0]]}),
        ],
    )
    def test_wrongly_typed_json_is_bad_input(self, tmp_path, capsys, command, content):
        inst = tmp_path / "inst.json"
        code, _, _ = self.run(capsys, "gen", "--n", "6", "--k", "2", "--out", str(inst))
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        inst, bad, c = str(inst), str(bad), "[1, 2, 3, 1, 2, 3]"
        argv = {
            "pipeline": ["--graph", inst, "--td", bad, "--alpha", c, "--beta", c, "--t", "5"],
            "peo": ["--graph", bad],
            "recolor": ["--graph", inst, "--t", "5", "--alpha", bad, "--beta", c],
            "analyze": ["--graph", inst, "--seq", bad],
        }[command]
        code, stdout, err = self.run(capsys, command, *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1

    def test_recolor_empty_valid_set_reports_walk_position(self, tmp_path, capsys):
        # t = d+1 on a partial 3-tree: vertex 2 is moved once, then runs out
        # of colors at its second trigger, the third step of its restriction
        # and the seventh of the walk built so far (its own step not counted)
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 7, "edges": [
            [0, 3], [0, 4], [0, 6], [1, 2], [1, 3], [1, 6], [2, 4], [4, 5]]}))
        o = tmp_path / "o.json"
        o.write_text("[6, 1, 3, 0, 4, 2, 5]")
        code, stdout, err = self.run(
            capsys, "recolor", "--graph", str(g), "--t", "3", "--ord", str(o),
            "--alpha", "[2, 2, 3, 1, 1, 3, 3]", "--beta", "[3, 1, 2, 2, 1, 2, 2]",
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: EmptyValidSet: no valid color for vertex 2 at step 6\n"

    def test_oracle_distance_connected_diameter(self, tmp_path, capsys):
        g, a, b = self.write_p3(tmp_path)
        code, stdout, _ = self.run(
            capsys, "oracle", "distance", "--graph", g, "--t", "3",
            "--from", a, "--to", b,
        )
        assert code == 0
        assert json.loads(stdout)["distance"] == 4
        code, stdout, _ = self.run(capsys, "oracle", "connected", "--graph", g, "--t", "3")
        assert code == 0
        obj = json.loads(stdout)
        assert obj == {"connected": True, "num_colorings": 12}
        code, stdout, _ = self.run(capsys, "oracle", "diameter", "--graph", g, "--t", "3")
        assert json.loads(stdout)["diameter"] == 4

    def test_oracle_infinite_diameter(self, tmp_path, capsys):
        g = tmp_path / "k3.json"
        g.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, stdout, _ = self.run(
            capsys, "oracle", "diameter", "--graph", str(g), "--t", "3"
        )
        assert code == 0
        assert json.loads(stdout)["diameter"] == "infinite"
        # Every 3-coloring of K3 is frozen, so no two of them are connected.
        code, stdout, _ = self.run(
            capsys, "oracle", "distance", "--graph", str(g), "--t", "3",
            "--from", "[1, 2, 3]", "--to", "[2, 3, 1]",
        )
        assert code == 0
        assert json.loads(stdout) == {"distance": None, "reachable": False}

    def test_oracle_distance_needs_both_endpoints(self, tmp_path, capsys):
        g, a, _ = self.write_p3(tmp_path)
        code, stdout, err = self.run(
            capsys, "oracle", "distance", "--graph", g, "--t", "3", "--from", a
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: InvalidParams: distance needs --from and --to\n"

    @pytest.mark.parametrize("query,t", [("connected", "0"), ("diameter", "-1")])
    def test_oracle_palette_below_one_exit_code(self, tmp_path, capsys, query, t):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 20, "edges": []}))
        code, out, err = self.run(capsys, "oracle", query, "--graph", str(g), "--t", t)
        assert code == 2
        assert out == ""
        assert err == f"error: InvalidParams: palette t must be at least 1, got {t}\n"

    def test_oracle_cap_exit_code(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 20, "edges": []}))
        code, _, err = self.run(
            capsys, "oracle", "connected", "--graph", str(g), "--t", "5",
            "--state-cap", "100",
        )
        assert code == 3

    def test_oracle_cap_on_a_huge_space(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 7000, "edges": []}))
        code, out, err = self.run(capsys, "oracle", "connected", "--graph", str(g), "--t", "5")
        assert code == 3
        assert out == ""
        assert err == "error: state space 5**7000 exceeds cap 2000000\n"

    def test_oracle_diameter_refuses_past_the_square_root_of_the_cap(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        self.run(capsys, "gen", "--family", "ktree", "--n", "8", "--k", "2", "--seed", "7",
                 "--out", inst)
        code, out, err = self.run(capsys, "oracle", "diameter", "--graph", inst, "--t", "5")
        assert code == 3
        assert out == ""
        assert err == "error: more than 1414 colorings: all-pairs search exceeds cap 2000000\n"

    def test_pipeline_on_the_empty_instance(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 0, "edges": []}))
        td = tmp_path / "td.json"
        td.write_text(json.dumps({"bags": [[]], "tree_edges": []}))
        code, out, err = self.run(
            capsys, "pipeline", "--graph", str(g), "--td", str(td),
            "--alpha", "[]", "--beta", "[]", "--t", "5",
        )
        assert code == 0
        assert err == ""
        obj = json.loads(out)
        assert obj["per_vertex"] == {}
        assert obj["gamma1"] == obj["gamma2"] == []

    def run_c4_pipeline(self, tmp_path, capsys, bags):
        g = tmp_path / "c4.json"
        g.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
        td = tmp_path / "td.json"
        td.write_text(json.dumps({"bags": bags, "tree_edges": [[0, 1]]}))
        a = tmp_path / "a.json"
        a.write_text("[1, 2, 1, 2]")
        b = tmp_path / "b.json"
        b.write_text("[2, 1, 2, 1]")
        return self.run(
            capsys, "pipeline", "--graph", str(g), "--td", str(td),
            "--alpha", str(a), "--beta", str(b), "--t", "5",
        )

    def test_pipeline_end_to_end(self, tmp_path, capsys):
        code, stdout, _ = self.run_c4_pipeline(tmp_path, capsys, [[0, 1, 2], [0, 2, 3]])
        assert code == 0
        obj = json.loads(stdout)
        assert obj["bridge_status"] == "oracle"
        assert obj["composed"]["start"] == [1, 2, 1, 2]

    def test_pipeline_writes_an_empty_bridge_as_a_walk(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self.run(capsys, "gen", "--family", "ktree", "--n", "5", "--k", "2", "--seed", "3",
                 "--out", str(inst))
        code, stdout, _ = self.run(
            capsys, "pipeline", "--graph", str(inst), "--td", str(inst), "--t", "5",
            "--bridge", "oracle", "--alpha", "[1,2,3,3,1]", "--beta", "[5,4,3,3,5]",
        )
        assert code == 0
        obj = json.loads(stdout)
        assert obj["bridge_status"] == "oracle"
        assert obj["bridge"] == {"palette": 5, "start": [1, 2, 3, 3, 1], "steps": []}
        assert obj["composed"]["steps"] == [[4, 5], [1, 4], [0, 5]]

    @pytest.mark.parametrize("bad", [4, -1])
    def test_pipeline_rejects_bag_vertex_out_of_range(self, tmp_path, capsys, bad):
        code, stdout, err = self.run_c4_pipeline(
            tmp_path, capsys, [[0, 1, 2], [0, 2, 3, bad]]
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: ValueError: bag 1 holds vertex {bad}, outside 0..3\n"

    def test_bench_csv_and_summary(self, tmp_path, capsys):
        summary_file = tmp_path / "summary.json"
        code, stdout, _ = self.run(
            capsys, "bench", "--family", "ktree", "--n-list", "6,8", "--k", "2",
            "--t-rule", "2d+1", "--trials", "4", "--seed", "1",
            "--summary-out", str(summary_file),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("schema_version,trial,family")
        summary = json.loads(summary_file.read_text())
        assert summary["violations"] == 0

    def test_bench_json_summary_to_stderr(self, capsys):
        code, stdout, err = self.run(
            capsys, "bench", "--n-list", "6", "--trials", "2", "--format", "json"
        )
        assert code == 0
        rows = json.loads(stdout)
        assert len(rows) == 2 and rows[0]["n"] == 6
        summary = json.loads(err)
        assert summary["violations"] == 0

    @pytest.mark.parametrize(
        "command, value",
        [
            ("peo", "json"),
            ("recolor", "json"),
            ("oracle", "json"),
            ("pipeline", "json"),
            ("gen", "csv"),
            ("analyze", "text"),
        ],
    )
    def test_unread_format_value_rejected(self, tmp_path, capsys, command, value):
        inst = tmp_path / "inst.json"
        code, _, _ = self.run(capsys, "gen", "--n", "6", "--k", "2", "--out", str(inst))
        assert code == 0
        inst, c = str(inst), "[1, 2, 3, 1, 2, 3]"
        seq = tmp_path / "s.json"
        seq.write_text(json.dumps({"palette": 5, "start": [1, 2, 3, 1, 2, 3], "steps": []}))
        argv = {
            "peo": ["--graph", inst],
            "recolor": ["--graph", inst, "--t", "5", "--alpha", c, "--beta", c],
            "oracle": ["connected", "--graph", inst, "--t", "3"],
            "pipeline": ["--graph", inst, "--td", inst, "--alpha", c, "--beta", c, "--t", "5"],
            "gen": ["--n", "6"],
            "analyze": ["--graph", inst, "--seq", str(seq)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--format", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_vertex_count_bound_is_bad_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rio, "MAX_VERTICES", 10)
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 11, "edges": []}))
        for argv in (["peo", "--graph", str(g)], ["gen", "--n", "11"]):
            code, stdout, err = self.run(capsys, *argv)
            assert code == 2
            assert stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_sided_adjacency_is_bad_input(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "adj": [[1], [0, 2], []]}))
        code, stdout, err = self.run(capsys, "peo", "--graph", str(g))
        assert code == 2
        assert stdout == ""
        assert err == (
            "error: InvalidParams: 'adj' lists 2 as a neighbor of 1 but not 1 of 2\n"
        )

    def test_bad_input_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code, _, err = self.run(capsys, "peo", "--graph", missing)
        assert code == 2
        assert "error" in err
