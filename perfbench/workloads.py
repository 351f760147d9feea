"""The four workloads: how each generates its inputs, runs one op, and
checks the op's output with the code in `verify`.

Every workload is a closed loop with one client: an op starts when the
previous one has returned.  Inputs are grouped into rounds; a round holds
one op per input class (size, palette rule, query kind), so any run of
whole rounds keeps the classes balanced.  One pass over all rounds is the
workload's pool; the walk metrics and the digest are taken over the first
pass, so they repeat exactly for a seed.

Set-up is split in two: `setup` calls the library to generate the inputs
(with the library's import, this is what `setup_s` times), and `reference`
then does the benchmark's own work on them, such as the search that picks
the oracle targets.

Library functions are looked up through the module namespace `R` at call
time, so traced runs reach the wrappers.
"""

from __future__ import annotations

import inspect
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from verify import bfs_discovery, check_walk, max_per_vertex


@dataclass
class Item:
    key: int  # position in the pool
    size: int  # vertex count, for the time-vs-n fit
    data: Any


@dataclass
class Checked:
    """What the verifier found in one op's output."""

    walks: tuple  # step lists, in op order, for the digest
    n: int
    steps: int | None  # walk length, when the op returns a walk
    max_count: int | None  # most recolorings of one vertex in that walk
    fault: str | None


class Workload:
    name = ""
    setup_repeats = 15
    expected_spans: tuple[str, ...] = ()
    scales: dict[str, dict] = {}

    def __init__(self, scale: str = "full"):
        self.__dict__.update(self.scales[scale])

    def seeds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        return lambda: rng.randrange(2**31)

    def setup(self, R, seed: int):
        """Generate the inputs with the library; timed as set-up."""
        raise NotImplementedError

    def reference(self, R, inputs) -> list[list[Item]]:
        """Turn the generated inputs into rounds of items; not timed."""
        return inputs

    def known_defects(self, R, seed: int) -> list[str]:
        """Probe inputs held out of the workload because of a known defect
        of the library; one line per probe that still fails.  Not timed,
        not counted as ops."""
        return []

    def bind(self, R):
        """Hook the library for the run; returns the undo."""
        return lambda: None

    def op(self, R, item: Item, tr):
        raise NotImplementedError

    def check(self, item: Item, out) -> Checked:
        raise NotImplementedError


def _rounds(items_by_round) -> list[list[Item]]:
    rounds, key = [], 0
    for group in items_by_round:
        rnd = []
        for size, data in group:
            rnd.append(Item(key, size, data))
            key += 1
        rounds.append(rnd)
    return rounds


class ChordalSolve(Workload):
    """`recolor recolor` + `recolor analyze` on chordal graphs, d=3, t=2d+1."""

    name = "chordal-solve"
    d = 3
    expected_spans = (
        "generators.gen_chordal", "generators.gen_random_coloring",
        "graphs.mcs_peo", "graphs.certify_perfect", "graphs.is_proper",
        "engine.best_choice_sequence", "engine.local_best_choice",
        "engine.select_best_choice", "engine.apply_sequence",
        "analysis.analyze_sequence", "analysis.per_vertex_counts",
        "io.sequence_to_json", "io.serialize",
    )
    scales = {
        "full": {"sizes": (1000, 2000, 4000), "per_size": 3},
        "tiny": {"sizes": (30, 60), "per_size": 1},
    }

    def setup(self, R, seed):
        draw = self.seeds(seed)
        t = 2 * self.d + 1
        groups = []
        for _ in range(self.per_size):
            group = []
            for n in self.sizes:
                g, ordering = R.generators.gen_chordal(n, self.d, draw())
                alpha = R.generators.gen_random_coloring(g, ordering, t, draw())
                beta = R.generators.gen_random_coloring(g, ordering, t, draw())
                group.append((n, (g, alpha, beta)))
            groups.append(group)
        return _rounds(groups)

    def op(self, R, item, tr):
        g, alpha, beta = item.data
        peo = R.graphs.mcs_peo(g)
        stats: dict = {}
        s = R.engine.best_choice_sequence(g, peo, alpha, beta, stats)
        end = R.engine.apply_sequence(g, s)
        report = R.analysis.analyze_sequence(g, peo, s)
        with tr.span("io.serialize"):
            text = json.dumps(R.io.sequence_to_json(s))
        return s, end, report, text, stats

    def check(self, item, out):
        g, alpha, beta = item.data
        s, end, report, text, stats = out
        steps = s.steps
        fault = None
        if s.start.colors != alpha.colors or s.palette_size != alpha.palette_size:
            fault = "walk does not start at alpha with alpha's palette"
        fault = fault or check_walk(g.adj, alpha.colors, alpha.palette_size, steps, beta.colors)
        most = max_per_vertex(steps)
        if fault is None:
            if end.colors != beta.colors:
                fault = "apply_sequence does not end at beta"
            elif report.violations:
                v = report.violations[0]
                fault = f"analysis reports {len(report.violations)} violations, first {v.check} at {v.vertex}"
            elif report.length != len(steps) or report.max_count != most:
                fault = "analysis report disagrees with the walk"
            elif not isinstance(stats.get("rule1_blocked", 0), int):
                fault = "stats dict holds no rule1_blocked count"
            else:
                obj = json.loads(text)
                if (obj.get("start") != list(alpha.colors)
                        or obj.get("steps") != [[v, c] for v, c in steps]):
                    fault = "serialized sequence differs from the walk"
        return Checked((steps,), g.n, len(steps), most, fault)


class DegenerateSweep(Workload):
    """`recolor bench` trials on partial k-trees ordered by degeneracy."""

    name = "degenerate-sweep"
    rules = {"2d+1": lambda d: 2 * d + 1, "d+2": lambda d: d + 2}
    expected_spans = (
        "experiment.run_trial", "experiment.resolve_t_rule",
        "generators.gen_partial_ktree", "generators.gen_ktree",
        "generators.gen_random_coloring", "graphs.degeneracy", "graphs.is_proper",
        "engine.best_choice_sequence", "engine.local_best_choice",
        "engine.select_best_choice", "engine.apply_sequence",
        "analysis.analyze_sequence", "analysis.naughty_recolorings",
    )
    # The naughty scan is held out of the k=3 cells: naughty-clique
    # sampling takes (d-1)-subsets of degeneracy back-neighbourhoods, which
    # on a partial 3-tree are not cliques, so such a trial ends in
    # NotAClique.  `known_defects` runs the held cells every run and
    # reports each trial that still fails.
    naughty_held_ks = (3,)
    scales = {
        "full": {"sizes": (50, 100, 200, 400), "ks": (2, 3), "per_size": 4},
        "tiny": {"sizes": (20, 40), "ks": (2, 3), "per_size": 1},
    }

    def _plan(self, R, k, rule, trials, seed, naughty):
        cfg = R.experiment.ExperimentConfig(
            family="partial-ktree", n_values=self.sizes, k=k, t_rule=rule,
            trials=trials, seed=seed, naughty=naughty, causation=True,
        )
        cfg.validate()
        # the trial seeds that run_experiment derives from cfg.seed
        master = random.Random(cfg.seed)
        return cfg, [master.randrange(2**31) for _ in range(trials)]

    def setup(self, R, seed):
        trials = len(self.sizes) * self.per_size
        plans = [self._plan(R, k, rule, trials, seed, k not in self.naughty_held_ks)
                 for k in self.ks for rule in self.rules]
        width = len(self.sizes)
        groups = []
        for j in range(self.per_size):
            groups.append([
                (cfg.n_values[i % width], (cfg, i, seeds[i]))
                for cfg, seeds in plans
                for i in range(j * width, (j + 1) * width)
            ])
        return _rounds(groups)

    def known_defects(self, R, seed):
        faults = []
        for k in self.naughty_held_ks:
            for rule in self.rules:
                cfg, seeds = self._plan(R, k, rule, len(self.sizes), seed, True)
                for i, trial_seed in enumerate(seeds):
                    row = R.experiment.run_trial(cfg, i, trial_seed)
                    if row.error or row.violations:
                        faults.append(f"naughty trial k={k} t_rule={rule} n={row.n}: "
                                      f"{row.error or f'{row.violations} violations'}")
        return faults

    def bind(self, R):
        """Keep the walk each trial builds, so the verifier can replay it."""
        inner = R.experiment.best_choice_sequence
        sig = inspect.signature(inner)

        def keep(*args, **kwargs):
            s = inner(*args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            self._walk = (a["g"], a["alpha"], a["beta"], s)
            return s

        R.experiment.best_choice_sequence = keep
        return lambda: setattr(R.experiment, "best_choice_sequence", inner)

    def op(self, R, item, tr):
        self._walk = None
        cfg, trial, trial_seed = item.data
        return R.experiment.run_trial(cfg, trial, trial_seed), self._walk

    def check(self, item, out):
        cfg, _, _ = item.data
        row, walk = out
        if row.error or row.violations:
            return Checked((), item.size, None, None,
                           f"trial reports {row.violations} violations: {row.error}")
        if walk is None:
            return Checked((), item.size, None, None, "trial built no walk")
        g, alpha, beta, s = walk
        steps = s.steps
        t = self.rules[cfg.t_rule](max(row.d, 1))
        most = max_per_vertex(steps)
        fault = None
        if g.n != item.size or row.n != item.size or not 1 <= row.d <= cfg.k:
            fault = f"trial on n={row.n}, d={row.d}; expected n={item.size}, d <= {cfg.k}"
        elif row.t != t or alpha.palette_size != t:
            fault = f"palette {row.t}, rule {cfg.t_rule} gives {t}"
        elif s.start.colors != alpha.colors:
            fault = "walk does not start at alpha"
        fault = fault or check_walk(g.adj, alpha.colors, t, steps, beta.colors)
        if fault is None and (row.length != len(steps) or row.max_count != most):
            fault = "trial row disagrees with the walk"
        return Checked((steps,), g.n, len(steps), most, fault)


class TreewidthPipeline(Workload):
    """`run_pipeline(bridge="none")` on partial 2-trees, t=5."""

    name = "treewidth-pipeline"
    width = 2
    t = 5
    keep_prob = 0.7
    expected_spans = (
        "generators.gen_partial_ktree", "generators.gen_random_coloring",
        "treewidth.run_pipeline", "treewidth.validate_decomposition",
        "treewidth.merge_by_coloring", "treewidth.expand_sequence",
        "treewidth.project_coloring", "graphs.mcs_peo", "graphs.greedy_color",
        "graphs.is_proper", "engine.best_choice_sequence",
        "engine.local_best_choice", "engine.apply_sequence",
    )
    scales = {
        "full": {"sizes": (500, 1000, 2000), "per_size": 3},
        "tiny": {"sizes": (20, 40), "per_size": 1},
    }

    def setup(self, R, seed):
        draw = self.seeds(seed)
        groups = []
        for _ in range(self.per_size):
            group = []
            for n in self.sizes:
                g, td = R.generators.gen_partial_ktree(n, self.width, draw(), self.keep_prob)
                # vertex ids follow the k-tree construction, so this order
                # gives every vertex at most `width` earlier neighbours
                ordering = R.graphs.EliminationOrdering.from_order(g, range(n))
                alpha = R.generators.gen_random_coloring(g, ordering, self.t, draw())
                beta = R.generators.gen_random_coloring(g, ordering, self.t, draw())
                group.append((n, (g, td, alpha, beta)))
            groups.append(group)
        return _rounds(groups)

    def op(self, R, item, tr):
        g, td, alpha, beta = item.data
        return R.treewidth.run_pipeline(g, td, alpha, beta, self.t, bridge="none")

    def check(self, item, out):
        g, td, alpha, beta = item.data
        res = out
        walks = (res.alpha_side.steps, res.beta_side.steps)
        counts = Counter(v for w in walks for v, _ in w)
        fault = None
        if res.bridge is not None or res.composed is not None:
            fault = "bridge='none' returned a bridge"
        for side, start, gamma in ((res.alpha_side, alpha, res.gamma1),
                                   (res.beta_side, beta, res.gamma2)):
            if fault is None and side.start.colors != start.colors:
                fault = "half walk does not start at its endpoint coloring"
            fault = fault or check_walk(g.adj, start.colors, self.t, side.steps, gamma.colors)
            fault = fault or check_walk(g.adj, gamma.colors, self.width + 1, (), gamma.colors)
        if fault is None and res.per_vertex != {v: counts.get(v, 0) for v in range(g.n)}:
            fault = "per_vertex counts disagree with the walks"
        return Checked(walks, g.n, sum(map(len, walks)), max(counts.values(), default=0), fault)


class OracleExact(Workload):
    """`rt_distance` and `rt_path` between colorings of 2-trees and partial
    2-trees, t=5, with targets at set shares of a search budget."""

    name = "oracle-exact"
    width = 2
    t = 5
    keep_prob = 0.7
    # A target is the first state discovered once this share of an
    # expansion budget has been spent, so the search work per query hardly
    # depends on the draw, while early stopping still varies across queries.
    shares = (0.25, 0.5, 0.75, 1.0)
    expected_spans = (
        "generators.gen_ktree", "generators.gen_partial_ktree",
        "generators.gen_random_coloring", "oracle.rt_distance", "oracle.rt_path",
        "graphs.is_proper",
    )
    scales = {
        "full": {"sizes": (7, 8, 9), "per_size": 2},
        "tiny": {"sizes": (5, 6), "per_size": 1},
    }

    def setup(self, R, seed):
        draw = self.seeds(seed)
        gens = R.generators
        groups = []
        for _ in range(self.per_size):
            group = []
            for family in ("ktree", "partial-ktree"):
                for n in self.sizes:
                    if family == "ktree":
                        g = gens.gen_ktree(n, self.width, draw()).graph
                    else:
                        g = gens.gen_partial_ktree(n, self.width, draw(), self.keep_prob).graph
                    ordering = R.graphs.EliminationOrdering.from_order(g, range(n))
                    group.append((g, gens.gen_random_coloring(g, ordering, self.t, draw())))
            groups.append(group)
        return groups

    def reference(self, R, inputs):
        groups = []
        for generated in inputs:
            group = []
            for g, alpha in generated:
                n = g.n
                # the budget is half the proper t-colorings of a 2-tree on
                # n vertices, so a 2-tree search still discovers new states
                budget = self.t * (self.t - 1) * (self.t - 2) ** (n - 2) // 2
                order, dist, before = bfs_discovery(g.adj, self.t, alpha.colors, budget)
                for share in self.shares:
                    k = math.ceil(share * budget) - 1
                    target = order[min(before[min(k, len(before) - 1)], len(order) - 1)]
                    beta = R.graphs.Coloring(target, self.t)
                    for kind in ("distance", "path"):
                        group.append((n, (kind, g, alpha, beta, dist[target])))
            groups.append(group)
        return _rounds(groups)

    def op(self, R, item, tr):
        kind, g, alpha, beta, _ = item.data
        query = R.oracle.rt_distance if kind == "distance" else R.oracle.rt_path
        return query(g, self.t, alpha, beta)

    def check(self, item, out):
        kind, g, alpha, beta, expected = item.data
        if kind == "distance":
            fault = None if out == expected else f"rt_distance {out}, reference {expected}"
            return Checked(([("distance", out)],), g.n, None, None, fault)
        if out is None:
            return Checked((), g.n, None, None, "rt_path found no walk")
        steps = out.steps
        fault = None
        if len(steps) != expected:
            fault = f"rt_path has {len(steps)} steps, reference distance {expected}"
        elif out.start.colors != alpha.colors:
            fault = "rt_path does not start at alpha"
        fault = fault or check_walk(g.adj, alpha.colors, self.t, steps, beta.colors)
        return Checked((steps,), g.n, len(steps), max_per_vertex(steps), fault)


WORKLOADS = {w.name: w for w in (ChordalSolve, DegenerateSweep, TreewidthPipeline, OracleExact)}
