"""Benchmark of the recolor library: one workload, one seed, one run.

    python3 perfbench/run.py --workload chordal-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The run generates its inputs from the seed, times closed-loop
ops for `--seconds` seconds of op time (whole rounds, and at least one
pass over the inputs), checks every output with the benchmark's own
verifier, and prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
every public function of the library's layers is wrapped (see `spans`)
and the metrics are per layer; the spans are saved under `.perfbench_out/`.
Per-layer times are self times (span time minus child spans) in seconds
per op; calls and counters are per op over the first pass.

Exit status: 0 when every output checked out, 1 when some op failed or a
traced run lost spans, 2 when the run could not start (for example,
without `src/recolor`); no JSON line is printed then.

`--scale tiny` runs the same workloads on tiny inputs, for a smoke test.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import IDLE_OP, SETUP_OP, NullTracer, Tracer
from verify import walk_digest
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "recolor"
LAYERS = ("graphs", "generators", "engine", "analysis", "oracle", "treewidth", "experiment", "io")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "time_vs_n_exponent": "slope",
    "walk_steps_per_vertex": "steps/vertex",
    "max_recolorings_per_vertex": "recolorings",
    "peak_rss_mb": "MB",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, value from the trace summary S and the traced run T)
PER_LAYER = {
    "graphs.mcs_peo_s": ("s/op", lambda S, T: S.seconds("graphs.mcs_peo")),
    "graphs.mcs_peo_calls": ("calls/op", lambda S, T: S.per_op("graphs.mcs_peo")),
    "graphs.degeneracy_s": ("s/op", lambda S, T: S.seconds("graphs.degeneracy")),
    "graphs.greedy_color_s": ("s/op", lambda S, T: S.seconds("graphs.greedy_color")),
    "graphs.is_proper_calls": ("calls/op", lambda S, T: S.per_op("graphs.is_proper")),
    "graphs.is_proper_s": ("s/op", lambda S, T: S.seconds("graphs.is_proper")),
    "generators.gen_s": ("s/op", lambda S, T: S.layer_seconds("generators")),
    "engine.construct_s": ("s/op", lambda S, T: S.seconds("engine.best_choice_sequence")),
    "engine.splice_s": ("s/op", lambda S, T: S.seconds("engine.local_best_choice")),
    "engine.splice_calls": ("calls/op", lambda S, T: S.per_op("engine.local_best_choice")),
    "engine.choice_calls": ("calls/op", lambda S, T: S.per_op("engine.select_best_choice")),
    "engine.rule1_blocked": ("count/op", lambda S, T: S.counter("engine.rule1_blocked")),
    "engine.rule1_blocked_ratio": ("ratio", lambda S, T: _ratio(
        S.counter("engine.rule1_blocked"), S.per_op("engine.select_best_choice"))),
    "engine.replay_s": ("s/op", lambda S, T: S.seconds("engine.apply_sequence")),
    "engine.steps_replayed": ("steps/op", lambda S, T: S.counter("engine.steps_replayed")),
    "analysis.analyze_s": ("s/op", lambda S, T: S.seconds("analysis.analyze_sequence")),
    "analysis.naughty_s": ("s/op", lambda S, T: S.seconds("analysis.naughty_recolorings")),
    "analysis.naughty_calls": ("calls/op", lambda S, T: S.per_op("analysis.naughty_recolorings")),
    "analysis.violations": ("count/op", lambda S, T: S.counter("analysis.violations")),
    "oracle.distance_s": ("s/op", lambda S, T: S.seconds("oracle.rt_distance")),
    "oracle.path_s": ("s/op", lambda S, T: S.seconds("oracle.rt_path")),
    "oracle.calls": ("calls/op", lambda S, T: sum(
        S.per_op(n) for n in S.calls if n.startswith("oracle."))),
    "treewidth.validate_s": ("s/op", lambda S, T: S.seconds("treewidth.validate_decomposition")),
    "treewidth.validate_calls_per_op": ("calls/op", lambda S, T: S.per_op(
        "treewidth.validate_decomposition")),
    "treewidth.merge_s": ("s/op", lambda S, T: S.seconds("treewidth.merge_by_coloring")),
    "treewidth.merge_calls": ("calls/op", lambda S, T: S.per_op("treewidth.merge_by_coloring")),
    "treewidth.quotient_ratio": ("ratio", lambda S, T: _ratio(
        S.counter("treewidth.n_quotient"), S.counter("treewidth.n_original"))),
    "treewidth.expand_s": ("s/op", lambda S, T: S.seconds("treewidth.expand_sequence")),
    "treewidth.pipeline_self_s": ("s/op", lambda S, T: S.seconds("treewidth.run_pipeline")),
    "experiment.trial_self_s": ("s/op", lambda S, T: S.seconds("experiment.run_trial")),
    "experiment.trial_errors": ("count/op", lambda S, T: S.counter("experiment.trial_errors")),
    "experiment.held_naughty_errors": ("count", lambda S, T: T.held_faults),
    "io.serialize_s": ("s/op", lambda S, T: S.layer_seconds("io")),
    "trace.overhead_ratio": ("ratio", lambda S, T: T.overhead),
}
# share of traced op time spent in each layer's own code; "bench" is the
# op code of the benchmark itself
for _layer in (*LAYERS, "bench"):
    PER_LAYER[f"{_layer}.self_share"] = (
        "share", lambda S, T, _l=_layer: _ratio(S.layer_op_seconds(_l), S.op_seconds()))


class SetupError(Exception):
    """The run cannot start; no result is printed."""


def import_library() -> SimpleNamespace:
    """Import the library from `src/` afresh and return its layers."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {src}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{l: importlib.import_module(f"{PACKAGE}.{l}") for l in LAYERS})


class Phase:
    """Outcome of a run of ops: times, failures, and first-pass exact data."""

    def __init__(self):
        self.times: list[tuple[int, int, float]] = []  # (key, size, seconds)
        self.failed = 0
        self.faults: list[str] = []
        self.first_pass_ops: set[int] = set()
        self.walk_steps = 0
        self.walk_n = 0
        self.maxima: list[int] = []
        self.digests: dict[int, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)

    def digest(self) -> str:
        return walk_digest([(k, d) for k, d in sorted(self.digests.items())])


def timed_phase(wl: Workload, R, rounds, seconds: float, tr) -> Phase:
    """Run whole rounds until `seconds` of op time have passed and every
    round has run once; check each op's output outside the timed part."""
    ph = Phase()
    measured = 0.0
    r = 0
    while r < len(rounds) or measured < seconds:
        for item in rounds[r % len(rounds)]:
            op_id = len(ph.times)
            tr.op = op_id
            fault = None
            with tr.span("bench.op"):
                start = time.perf_counter()
                try:
                    out = wl.op(R, item, tr)
                except Exception as e:  # an op that raises is a failed op
                    fault = f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - start
            tr.op = IDLE_OP
            measured += dt
            ph.times.append((item.key, item.size, dt))
            if fault is None:
                chk = wl.check(item, out)
                fault = chk.fault
                digest = walk_digest(*chk.walks)
                if r < len(rounds):
                    ph.first_pass_ops.add(op_id)
                    ph.digests[item.key] = digest
                    if chk.steps is not None:
                        ph.walk_steps += chk.steps
                        ph.walk_n += chk.n
                        ph.maxima.append(chk.max_count)
                elif fault is None and ph.digests.get(item.key) != digest:
                    fault = "output differs from the first run of the same input"
            if fault is not None:
                ph.failed += 1
                if len(ph.faults) < 5:
                    ph.faults.append(f"input {item.key} (n={item.size}): {fault}")
        r += 1
    return ph


def _slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def end_to_end(ph: Phase, setup_times: list[float]) -> dict[str, float]:
    times = [dt for _, _, dt in ph.times]
    by_size: dict[int, list[float]] = {}
    for _, size, dt in ph.times:
        by_size.setdefault(size, []).append(dt)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "ops_per_s": len(times) / sum(times),
        "time_vs_n_exponent": _slope(
            [(n, statistics.median(v)) for n, v in sorted(by_size.items())]),
        # over the first-pass ops that returned a walk; 0 only when none did
        "walk_steps_per_vertex": ph.walk_steps / ph.walk_n if ph.walk_n else 0.0,
        "max_recolorings_per_vertex": statistics.fmean(ph.maxima) if ph.maxima else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _overhead(traced: Phase, untraced: list[Phase], keys: set[int]) -> float:
    """Traced over untraced op time of the inputs `keys`, each input's time
    being the median of its runs."""
    def total(phases):
        by_key: dict[int, list[float]] = {}
        for ph in phases:
            for key, _, dt in ph.times:
                if key in keys:
                    by_key.setdefault(key, []).append(dt)
        return sum(map(statistics.median, by_key.values()))
    return total([traced]) / total(untraced)


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        patch=None, out=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object.

    `patch(R, tracer)`, when given, is called on the imported layers just
    before the timed ops; tests use it to break the library on purpose.
    """
    wl = WORKLOADS[name](scale)
    setup_times = []
    for _ in range(wl.setup_repeats):
        inputs = None
        gc.collect()  # so that no earlier set-up's garbage is collected in the timing
        start = time.perf_counter()
        R = import_library()
        inputs = wl.setup(R, seed)
        setup_times.append(time.perf_counter() - start)
    rounds = wl.reference(R, inputs)
    pool_ops = sum(map(len, rounds))

    def say(*parts):
        print(*parts, file=out)

    say(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} scale {scale}")
    say(f"python {platform.python_version()} nproc {os.cpu_count()} pool {pool_ops} ops "
        f"in {len(rounds)} rounds")
    held = wl.known_defects(R, seed)
    if held:
        say(f"known defect: {len(held)} held-out probe trials fail, first: {held[0]}")
    problems = []
    if not trace:
        undo = wl.bind(R)
        try:
            if patch is not None:
                patch(R, None)
            ph = timed_phase(wl, R, rounds, seconds, NullTracer())
        finally:
            undo()
        values = end_to_end(ph, setup_times)
        units = END_TO_END
    else:
        # untraced runs of the first round, after a warm-up and on both
        # sides of the traced phase, for the tracing overhead
        def untraced_round():
            undo = wl.bind(R)
            try:
                return timed_phase(wl, R, rounds[:1], 0.0, NullTracer())
            finally:
                undo()

        untraced_round()
        untraced = [untraced_round()]
        tracer = Tracer()
        tracer.install(PACKAGE, LAYERS)
        try:
            tracer.op = SETUP_OP
            inputs = wl.setup(R, seed)
            tracer.op = IDLE_OP
            rounds = wl.reference(R, inputs)
            undo = wl.bind(R)
            try:
                if patch is not None:
                    patch(R, tracer)
                ph = timed_phase(wl, R, rounds, seconds, tracer)
            finally:
                undo()
            unwrapped = tracer.unwrapped(PACKAGE)
        finally:
            tracer.uninstall()
        untraced.append(untraced_round())
        S = tracer.summarize(ph.first_pass_ops, ph.attempted, pool_ops)
        T = SimpleNamespace(
            overhead=_overhead(ph, untraced, {item.key for item in rounds[0]}),
            held_faults=len(held),
        )
        values = {m: float(f(S, T)) for m, (_, f) in PER_LAYER.items()}
        units = {m: u for m, (u, _) in PER_LAYER.items()}
        missing = [s for s in wl.expected_spans if s not in S.seen]
        problems += [f"missing span: {s}" for s in missing]
        problems += [f"unwrapped binding: {b}" for b in unwrapped]
        path = tracer.write(ROOT / ".perfbench_out", name)
        say(f"spans {tracer.span_count} written to {path.relative_to(ROOT)}")
        shares = sorted(((values[f"{l}.self_share"], l) for l in (*LAYERS, "bench")),
                        reverse=True)
        say("self-time share " + ", ".join(f"{l} {v:.3f}" for v, l in shares if v > 0))

    say(f"digest sha256:{ph.digest()} over the {len(ph.first_pass_ops)} ops of the first pass")
    say(f"ops {ph.attempted} failed {ph.failed} failed_op_ratio {ph.failed / ph.attempted}")
    for fault in ph.faults:
        say(f"failed op: {fault}")
    for p in problems:
        say(p)
    for m, v in values.items():
        extra = f" (samples {ph.attempted})" if m in ("op_p50_s", "op_p90_s") else ""
        say(f"metric {m} {v} {units[m]}{extra}")
    result = {
        "correct": ph.failed == 0 and not problems,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    say(json.dumps(result))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    a = p.parse_args(argv)
    try:
        result = run(a.workload, a.seed, a.seconds, bool(a.trace), a.scale)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
