"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run as bench
from verify import check_walk, replay
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(name, trace=False, patch=None, seed=3):
    buf = io.StringIO()
    result = bench.run(name, seed, 0.05, trace, scale="tiny", patch=patch, out=buf)
    return result, buf.getvalue()


def _digest(text):
    return next(line for line in text.splitlines() if line.startswith("digest "))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    result, text = _run(name, trace)
    lines = text.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = ({m: u for m, (u, _) in bench.PER_LAYER.items()} if trace
             else bench.END_TO_END)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    for m, unit in units.items():
        line = next(l for l in lines if l.startswith(f"metric {m} "))
        assert line.split()[3] == unit
        assert isinstance(result["metrics"][m]["value"], float)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {m: u for m, (u, _) in bench.PER_LAYER.items()})


def test_replay_names_the_first_bad_step():
    adj = [{1}, {0, 2}, {1}]  # path 0-1-2
    start = (1, 2, 1)
    assert replay(adj, start, 3, [(1, 3), (0, 2)]) == ([2, 3, 1], None)
    assert "monochromatic" in replay(adj, start, 3, [(1, 1)])[1]
    assert "null step" in replay(adj, start, 3, [(0, 1)])[1]
    assert "outside 1..3" in replay(adj, start, 3, [(0, 4)])[1]
    assert "out of range" in replay(adj, start, 3, [(-1, 3)])[1]
    assert "start has monochromatic" in replay(adj, (1, 1, 2), 3, [])[1]
    assert check_walk(adj, start, 3, [(1, 3)], (1, 3, 1)) is None
    assert "does not end" in check_walk(adj, start, 3, [(1, 3)], (1, 2, 1))


def test_a_walk_with_one_corrupted_step_is_a_failed_op():
    def corrupt(R, tracer):
        inner = R.treewidth.expand_sequence

        def expand(*args, **kwargs):
            s = inner(*args, **kwargs)
            if not s.steps:
                return s
            v, _ = s.steps[0]
            steps = (s.steps[0]._replace(new_color=s.start[v]), *s.steps[1:])
            return dataclasses.replace(s, steps=steps)

        R.treewidth.expand_sequence = expand

    result, text = _run("treewidth-pipeline", patch=corrupt)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "null step" in text
    clean, _ = _run("treewidth-pipeline")
    assert clean["correct"] and clean["failed"] == 0


def test_a_removed_wrapper_binding_is_reported_not_read_as_zero():
    def unwrap(R, tracer):
        R.treewidth.best_choice_sequence = R.treewidth.best_choice_sequence.__wrapped__

    result, text = _run("treewidth-pipeline", trace=True, patch=unwrap)
    assert not result["correct"]
    assert "missing span: engine.best_choice_sequence" in text
    assert "unwrapped binding: recolor.treewidth.best_choice_sequence" in text


def test_held_naughty_trials_are_probed_and_each_failure_reported():
    R = bench.import_library()
    wl = WORKLOADS["degenerate-sweep"]("tiny")
    probes = len(wl.naughty_held_ks) * len(wl.rules) * len(wl.sizes)
    R.experiment.run_trial = lambda cfg, i, seed: SimpleNamespace(
        n=cfg.n_values[i], error="NotAClique: (1, 2)" if cfg.naughty else "", violations=1)
    found = wl.known_defects(R, 3)
    assert len(found) == probes
    assert all(f.startswith("naughty trial k=3 ") and "NotAClique" in f for f in found)
    R.experiment.run_trial = lambda cfg, i, seed: SimpleNamespace(
        n=cfg.n_values[i], error="", violations=0)
    assert wl.known_defects(R, 3) == []


def test_walks_repeat_exactly_for_a_seed():
    _, first = _run("chordal-solve")
    _, again = _run("chordal-solve")
    _, traced = _run("chordal-solve", trace=True)
    _, other = _run("chordal-solve", seed=4)
    assert _digest(first) == _digest(again) == _digest(traced)
    assert _digest(first) != _digest(other)


def _command(cwd, *extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-exact", "--seed", "2",
         "--seconds", "0.1", "--trace", "0", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_command_runs_from_the_checkout_root():
    proc = _command(HERE.parent, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
