"""Batch experiment runner.

A config describes a family of random instances and how many to run; each
trial generates an instance and two endpoint colorings, builds the
recoloring sequence between them, replays it for validity and runs the
structural checks.  Rows and a summary are returned in memory and can be
written as CSV/JSON.

Outputs are reproducible: a given config (including its seed) produces
byte-identical files.  Wall-clock timings are still measured per trial,
but they are kept out of the default CSV precisely so the bytes stay
stable; pass timings=True to include them.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import re
import time
from dataclasses import dataclass, fields
from typing import Sequence

from .analysis import analyze_sequence
from .engine import best_choice_sequence
from .errors import InvalidParams
from .generators import FAMILIES, gen_instance, gen_random_coloring
from .graphs import EliminationOrdering, Graph
from .oracle import DEFAULT_STATE_CAP, rt_distance

SCHEMA_VERSION = 1


def resolve_t_rule(rule: str | int, d: int) -> int:
    """Palette size from a rule like "2d+1", "d+2" or a plain integer."""
    if isinstance(rule, int):
        return rule
    text = rule.strip().replace(" ", "")
    if text.isdigit():
        return int(text)
    m = re.fullmatch(r"(\d*)d([+-]\d+)?", text)
    if not m:
        raise InvalidParams(f"unrecognized palette rule {rule!r}")
    a = int(m.group(1)) if m.group(1) else 1
    b = int(m.group(2)) if m.group(2) else 0
    return a * d + b


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "ktree"
    n_values: Sequence[int] = (20,)
    k: int = 2
    t_rule: str | int = "2d+1"
    trials: int = 10
    seed: int = 0
    causation: bool = True
    naughty: bool = False
    oracle_cross_check: bool = False
    state_cap: int = DEFAULT_STATE_CAP

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        if self.trials < 1:
            raise InvalidParams("trials must be at least 1")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise InvalidParams("n values must be positive")
        if self.k < 1:
            raise InvalidParams("k must be at least 1")
        t = resolve_t_rule(self.t_rule, self.k)
        if t < 2:
            raise InvalidParams(f"palette rule {self.t_rule!r} gives t={t} < 2")


@dataclass
class ExperimentRow:
    trial: int
    family: str
    n: int
    k: int
    d: int
    t: int
    length: int = 0
    max_count: int = 0
    violations: int = 0
    tight: int = 0
    saved: int = 0
    rotating: int = 0
    naughty_max: int | None = None
    rule1_blocked: int = 0
    oracle_distance: int | None = None
    error: str = ""
    wall_time_s: float = 0.0


ROW_FIELDS = [
    "schema_version",
    *(f.name for f in fields(ExperimentRow) if f.name != "wall_time_s"),
]


def run_trial(cfg: ExperimentConfig, trial: int, trial_seed: int) -> ExperimentRow:
    n = cfg.n_values[trial % len(cfg.n_values)]
    start = time.monotonic()
    g, ordering, td, d = gen_instance(cfg.family, n, cfg.k, trial_seed)
    t = resolve_t_rule(cfg.t_rule, max(d, 1))
    alpha = gen_random_coloring(g, ordering, t, trial_seed * 2 + 1)
    beta = gen_random_coloring(g, ordering, t, trial_seed * 2 + 2)
    stats: dict = {}
    row = ExperimentRow(trial, cfg.family, n, cfg.k, d, t)
    try:
        # best_choice_sequence replays the walk and checks that it ends at beta
        s = best_choice_sequence(g, ordering, alpha, beta, stats)
        cliques = None
        if cfg.naughty and d >= 2:
            cliques = _sample_cliques(g, ordering, d)
        report = analyze_sequence(
            g, ordering, s, causation=cfg.causation, naughty_cliques=cliques
        )
        row.length = report.length
        row.max_count = report.max_count
        row.violations = len(report.violations)
        row.tight = report.stats["tight"]
        row.saved = report.stats["saved"]
        row.rotating = report.stats["rotating"]
        row.naughty_max = report.stats.get("naughty_max")
        if cfg.oracle_cross_check:
            row.oracle_distance = dist = rt_distance(g, t, alpha, beta, cfg.state_cap)
            if dist is None or row.length < dist:
                row.violations += 1
                row.error = f"length {row.length} below shortest distance {dist}"
    except Exception as e:  # recorded, not raised: one bad trial should not sink a batch
        row.error = f"{type(e).__name__}: {e}"
        row.violations += 1
    row.rule1_blocked = stats.get("rule1_blocked", 0)
    row.wall_time_s = time.monotonic() - start
    return row


def _sample_cliques(
    g: Graph, ordering: EliminationOrdering, d: int, limit: int = 200
) -> list[tuple[int, ...]]:
    """(d-1)-cliques to scan: the (d-1)-subsets of back-neighborhoods that
    are cliques (a degeneracy ordering's back-neighborhoods need not be),
    deduplicated, capped for large graphs."""
    from itertools import combinations

    seen: set[tuple[int, ...]] = set()
    for v in range(g.n):
        b = ordering.back_nbrs[v]
        if len(b) >= d - 1:
            for c in combinations(b, d - 1):
                if all(y in g.adj[x] for x, y in combinations(c, 2)):
                    seen.add(c)
                    if len(seen) >= limit:
                        return sorted(seen)
    return sorted(seen)


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[list[ExperimentRow], dict]:
    """Run all trials sequentially and return (rows, summary)."""
    cfg.validate()
    import random as _random

    master = _random.Random(cfg.seed)
    trial_seeds = [master.randrange(2**31) for _ in range(cfg.trials)]
    rows = [run_trial(cfg, i, trial_seeds[i]) for i in range(cfg.trials)]
    total_violations = sum(r.violations for r in rows)
    max_count = max((r.max_count for r in rows), default=0)
    ratios = [r.length / r.n for r in rows if not r.error]
    lengths = [(r.n, r.length) for r in rows if not r.error]
    slope = _fit_slope(lengths)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "family": cfg.family,
        "k": cfg.k,
        "t_rule": str(cfg.t_rule),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "violations": total_violations,
        "errors": sum(1 for r in rows if r.error),
        "max_per_vertex_count": max_count,
        "max_length_over_n": max(ratios, default=0.0),
        "mean_length_over_n": sum(ratios) / len(ratios) if ratios else 0.0,
        "length_vs_n_slope": slope,
        "rule1_blocked_total": sum(r.rule1_blocked for r in rows),
    }
    return rows, summary


def _fit_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of length against n."""
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def _record(r: ExperimentRow) -> dict:
    """The ROW_FIELDS of one row, in order; absent values stay None."""
    return {
        f: SCHEMA_VERSION if f == "schema_version" else getattr(r, f)
        for f in ROW_FIELDS
    }


def rows_to_csv(rows: list[ExperimentRow], timings: bool = False) -> str:
    """Render rows as CSV.  Timings are opt-in to keep the bytes reproducible."""
    buf = _stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")  # writes None as an empty field
    w.writerow(ROW_FIELDS + (["wall_time_s"] if timings else []))
    for r in rows:
        rec = _record(r)
        if timings:
            rec["wall_time_s"] = f"{r.wall_time_s:.6f}"
        w.writerow(rec.values())
    return buf.getvalue()


def rows_to_json(rows: list[ExperimentRow], timings: bool = False) -> str:
    out = []
    for r in rows:
        rec = _record(r)
        if timings:
            rec["wall_time_s"] = round(r.wall_time_s, 6)
        out.append(rec)
    return json.dumps(out, indent=1) + "\n"
