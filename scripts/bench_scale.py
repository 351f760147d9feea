"""Scale benchmark of the recolor library: each stage's time, memory and
collector work from n = 10^3 to 10^6, written as one JSON file.

    python3 scripts/bench_scale.py OUT.json [--repeats 3] [--max-n 1000000]
        [--src DIR]
    python3 scripts/bench_scale.py --cell FAMILY:N [--repeats 3] [--src DIR]

Two families of cells, each cell one size:

- chordal, n = 10^3, 10^4, 10^5, 10^6: `gen_chordal(n, 3, SEED)` (gen),
  `mcs_peo` (order), two `gen_random_coloring` draws at t=7 (colorings),
  `best_choice_sequence` (construct), `apply_sequence` (replay),
  `analyze_sequence` (analyze), whose report must pass, then the graph
  and the walk written as the CLI writes them, `json.dumps(obj,
  indent=1)` of `io.graph_to_json` and `io.sequence_to_json` (write),
  and read back with `io.read_graph` and `io.read_sequence` (read),
  which must give the same graph and walk;
- pipeline, n = 10^3, 10^4, 10^5: `gen_partial_ktree(n, 2, SEED, 0.7)`
  (gen), two colorings at t=5 along the k-tree's vertex order
  (colorings) and `run_pipeline(bridge="none")` at t=5 (pipeline),
  whose two halves, replayed untimed on the graph, must end at gamma1
  and gamma2.

Each cell runs in a fresh interpreter that imports the library from
`--src` (default: `src/` next to this script's directory), runs the
cell `--repeats` times, then once more under `tracemalloc`.  Per stage it
records the median time of the repeats, the median `gc.get_stats()`
collections per generation, `ru_maxrss` after the stage in the first
repeat, the tracemalloc peak while the stage ran (all memory traced at
that moment, not only the stage's own), and, for the stage that builds a
walk, the sha256 of its steps in the format of perfbench's `walk_digest`.
A walk whose digest differs between repeats fails the cell.  The file
also records the Python version, the commit of `--src`, `src_tree` (git's
tree id of the package's .py files as they were read, which
`git rev-parse COMMIT:src/recolor` prints for any commit holding the
measured code), the number of usable processors, and, per family and
stage, the log-log slope of time against n from 10^3 to 10^5 and, for
chordal, from 10^5 to 10^6.

`--cell FAMILY:N` (for example `chordal:100000`) runs that one cell in
this interpreter and prints its JSON to stdout instead of writing a
file; a cell exits non-zero if one of the checks above fails.

The committed results are named `BENCH_<tag>.json`.  `--max-n` drops
the larger cells; the 10^6 cell holds about 1 GB of RSS in its timed
repeats, more under tracemalloc.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = {
    "chordal": (10**3, 10**4, 10**5, 10**6),
    "pipeline": (10**3, 10**4, 10**5),
}
SLOPES = ((10**3, 10**5), (10**5, 10**6))
SEED = 1  # of every cell's graph; the colorings use SEED + 1 and SEED + 2


def walk_digest(*walks) -> str:
    """sha256 of the step tuples of one or more walks, in order (the
    format of perfbench's `walk_digest`)."""
    h = hashlib.sha256()
    for w in walks:
        h.update(" ".join(f"{v}:{c}" for v, c in w).encode())
        h.update(b"|")
    return h.hexdigest()


class Stages:
    """Times the stages of one repeat; with `memory`, reads the
    tracemalloc peak of each instead."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.rows: dict[str, dict] = {}

    @contextmanager
    def __call__(self, name: str):
        if self.memory:
            tracemalloc.reset_peak()
        collections = [s["collections"] for s in gc.get_stats()]
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        row = self.rows[name] = {}
        if self.memory:
            row["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            return
        row["s"] = seconds
        row["gc"] = [s["collections"] - c for s, c in zip(gc.get_stats(), collections)]
        row["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def digest(self, name: str, *walks) -> None:
        self.rows[name]["digest"] = walk_digest(*walks)


def run_chordal(R, n: int, stage: Stages) -> None:
    t = 7
    with stage("gen"):
        g = R.gen_chordal(n, 3, SEED).graph
    with stage("order"):
        peo = R.mcs_peo(g)
    with stage("colorings"):
        alpha = R.gen_random_coloring(g, peo, t, SEED + 1)
        beta = R.gen_random_coloring(g, peo, t, SEED + 2)
    with stage("construct"):
        s = R.best_choice_sequence(g, peo, alpha, beta)
    stage.digest("construct", s.steps)
    with stage("replay"):
        end = R.apply_sequence(g, s)
    with stage("analyze"):
        report = R.analyze_sequence(g, peo, s)
    if end.colors != beta.colors or not report.passed:
        raise SystemExit(f"chordal n={n}: the walk does not replay to beta or fails analysis")
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp, "graph.json"), Path(tmp, "walk.json")
        with stage("write"):
            for path, obj in zip(files, (R.io.graph_to_json(g), R.io.sequence_to_json(s))):
                path.write_text(json.dumps(obj, indent=1) + "\n")
        with stage("read"):
            read = R.io.read_graph(files[0]), R.io.read_sequence(files[1])
    if read != (g, s):
        raise SystemExit(f"chordal n={n}: the graph or the walk read back differs from the one written")


def run_pipeline(R, n: int, stage: Stages) -> None:
    t = 5
    with stage("gen"):
        g, td = R.gen_partial_ktree(n, 2, SEED, 0.7)
    with stage("colorings"):
        # vertex ids follow the k-tree construction: at most 2 earlier neighbours each
        ordering = R.EliminationOrdering(g, range(n))
        alpha = R.gen_random_coloring(g, ordering, t, SEED + 1)
        beta = R.gen_random_coloring(g, ordering, t, SEED + 2)
    with stage("pipeline"):
        res = R.run_pipeline(g, td, alpha, beta, t, bridge="none")
    stage.digest("pipeline", res.alpha_side.steps, res.beta_side.steps)
    # expand_sequence trusts the quotient walk and no bridge replays the halves
    ends = R.apply_sequence(g, res.alpha_side), R.apply_sequence(g, res.beta_side)
    if ends != (res.gamma1, res.gamma2):
        raise SystemExit(f"pipeline n={n}: a half does not replay to its gamma")


def run_cell(src: str, family: str, n: int, repeats: int) -> dict:
    """One cell in this process: `repeats` timed runs, one traced run."""
    sys.path.insert(0, src)
    import recolor as R
    import recolor.io  # noqa: F401  (R.io, for the write and read stages)

    run = {"chordal": run_chordal, "pipeline": run_pipeline}[family]
    timed = []
    for _ in range(repeats):
        gc.collect()
        stage = Stages()
        run(R, n, stage)
        timed.append(stage.rows)
    gc.collect()
    traced = Stages(memory=True)
    tracemalloc.start()
    try:
        run(R, n, traced)
    finally:
        tracemalloc.stop()
    stages = {}
    for name, first in timed[0].items():
        rows = [rows[name] for rows in timed]
        if any(r.get("digest") != first.get("digest") for r in rows):
            raise SystemExit(f"{family} n={n}: stage {name} built different walks")
        stages[name] = {
            "s": statistics.median(r["s"] for r in rows),
            "s_runs": [r["s"] for r in rows],
            "gc_collections": [statistics.median(r["gc"][i] for r in rows) for i in range(3)],
            "maxrss_mb": first["maxrss_mb"],
            "tracemalloc_peak_mb": traced.rows[name]["tracemalloc_peak_mb"],
        }
        if "digest" in first:
            stages[name]["digest"] = first["digest"]
    return {"family": family, "n": n, "repeats": repeats, "stages": stages}


def commit_of(src: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def tree_of(package: Path) -> str:
    """git's tree id of the package's .py files (mode 100644), computed
    from the files on disk, so a tree measured before it was committed
    names the id its commit will hold."""
    entries = b""
    for f in sorted(package.glob("*.py")):
        data = f.read_bytes()
        blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
        entries += b"100644 " + f.name.encode() + b"\0" + blob
    return hashlib.sha1(b"tree %d\0" % len(entries) + entries).hexdigest()


def slopes(cells: list[dict]) -> dict:
    """Per family and stage, the log-log slope of the median time between
    each pair of sizes in SLOPES that both ran."""
    times: dict = {}
    for c in cells:
        for name, stage in c["stages"].items():
            times.setdefault(c["family"], {}).setdefault(name, {})[c["n"]] = stage["s"]
    out: dict = {}
    for family, stages in times.items():
        for name, by_n in stages.items():
            for lo, hi in SLOPES:
                if lo in by_n and hi in by_n:
                    slope = math.log(by_n[hi] / by_n[lo]) / math.log(hi / lo)
                    out.setdefault(family, {}).setdefault(name, {})[f"{lo}-{hi}"] = round(slope, 3)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="output JSON file")
    p.add_argument("--repeats", type=int, default=3, help="timed repeats per cell")
    p.add_argument("--max-n", type=int, default=10**6, help="skip cells above this n")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding the recolor package")
    p.add_argument(
        "--cell", metavar="FAMILY:N", help="run one cell in this process and print its JSON"
    )
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    if args.cell:
        family, n = args.cell.split(":")
        print(json.dumps(run_cell(args.src, family, int(n), args.repeats)))
        return 0
    if not args.out:
        p.error("name the output file")
    out = Path(args.out)
    cells = []
    for family, sizes in GRID.items():
        for n in sizes:
            if n > args.max_n:
                continue
            cmd = [
                sys.executable, __file__, "--cell", f"{family}:{n}",
                "--repeats", str(args.repeats), "--src", args.src,
            ]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{family} n={n}: cell failed (exit {done.returncode})", file=sys.stderr)
                return 1
            cell = json.loads(done.stdout.splitlines()[-1])
            cells.append(cell)
            line = "  ".join(f"{k} {v['s']:.3f}s" for k, v in cell["stages"].items())
            print(f"{family:8} n={n:<8} {line}", flush=True)
    result = {
        "schema_version": 1,
        "python": platform.python_version(),
        "commit": commit_of(Path(args.src)),
        "src_tree": tree_of(Path(args.src) / "recolor"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "seed": SEED,
        "repeats": args.repeats,
        "cells": cells,
        "slopes": slopes(cells),
    }
    out.write_text(json.dumps(result, indent=1) + "\n")
    for family, stages in result["slopes"].items():
        for name, by_range in stages.items():
            print(f"slope {family:8} {name:9} " + "  ".join(f"{k}: {v}" for k, v in by_range.items()))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
