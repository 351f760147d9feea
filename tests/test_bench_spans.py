"""The benchmark's traced runs find every span they expect.

`perfbench/run.py --trace 1` wraps every public library function at each
binding and fails on a missing span or an unwrapped binding, so a library
change that renames, inlines or stops calling a traced function breaks
the benchmark's per-layer metrics.  The perfbench suite itself is not part
of these tests; this runs all four traced workloads on tiny inputs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload",
    ["chordal-solve", "treewidth-pipeline", "degenerate-sweep", "oracle-exact"],
)
def test_traced_run_finds_every_span(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "missing span" not in out
    assert "unwrapped binding" not in out
