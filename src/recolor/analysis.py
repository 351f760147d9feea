"""Structural analysis of recoloring sequences.

`analyze_sequence` is the one entry point for the paper's invariants of
a walk (causation, revisit spacing, the save budget and tight palette
coverage): it runs them all in one pass and decides which of them apply
at the walk's palette.  Everything here is a pure function of the
sequence, so stored sequences can be re-analyzed without the graph state
that produced them.  Indices in a violation are positions inside the
restriction it is defined over, not inside the full sequence.

Conventions for a vertex v with earlier-neighbor set B, d = |B|:
  * restriction to B ∪ {v}: the subsequence of steps recoloring those
    vertices, with the start coloring kept whole for replaying colors.
    Positions of v's own steps in it start at 0 for its first step;
  * a recoloring of v is "tight" when exactly d steps separate it from
    the next recoloring of v inside that restriction; the last
    recoloring of v is never tight;
  * a step recoloring a member of B is "saved" when it provably cannot
    force an extra recoloring of v: v untouched up to it, or untouched
    from it on, or untouched in the d steps just before it (window
    clamped at the start);
  * the budget inequality bounds v's recoloring count by
    1 + ceil((kappa - r) / d), kappa counting the recolorings of B and r
    the saved ones among them (by 1 when B is empty).

Cost.  One stable sort of the walk's positions by vertex gives each
vertex's step positions as a slice.  A vertex recolored at most once has
all of B's steps saved (r = kappa, so its bound is 1): it is never in
violation and is never visited, and C-level sums over all vertices count
its r.  Only a vertex recolored twice or more gets its restriction R, by
sorting the d+1 sorted slices (O(|R| log d)), and one pass over the gaps
between its recolorings yields each gap's tight test, causation test,
spacing test and share of r, and each tight gap's coverage test; its
color history serves causation and rotation.  Coverage reads a
back-neighbour's color before a step by bisecting that neighbour's
slice at the step's position, so no restriction is replayed.  A clique scan
lists the new colors and which steps are forced once, then reads each
step's windows as slices.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, compress
from operator import eq, itemgetter, mul, sub
from typing import Iterable, Sequence

from .errors import NotAClique
from .graphs import EliminationOrdering, Graph, _check_covers, _check_of
from .engine import RecoloringSequence


def per_vertex_counts(s: RecoloringSequence) -> dict[int, int]:
    """How many times each vertex (including untouched ones) is recolored."""
    counts = dict.fromkeys(range(len(s.start)), 0)
    for v, _ in s.steps:
        counts[v] += 1
    return counts


# ---------------------------------------------------------------------------
# per-vertex checks over the restriction to B ∪ {v}


@dataclass(frozen=True)
class Violation:
    check: str
    vertex: int | None
    indices: tuple[int, ...]
    note: str


def _clique_ids(clique_x: Iterable[int], n: int) -> list[int]:
    """X's distinct ids, ascending; ValueError names one outside 0..n-1,
    and a non-integer id is a TypeError."""
    xs = sorted(set(map(operator.index, clique_x)))
    for x in xs:
        if not 0 <= x < n:
            raise ValueError(f"clique vertex {x} outside 0..{n - 1}")
    return xs


def naughty_recolorings(
    s: RecoloringSequence, g: Graph, clique_x: Iterable[int]
) -> list[int]:
    """Positions, inside the restriction to a clique X, of steps that are
    both color-avoiding and causation-free, where d = |X| + 1:

      1. at least three palette colors appear neither among X's colors
         just before the step nor among the next 3d+4 steps' new colors;
      2. none of the following 3d-4 steps is forced by its successor
         (successor's new color equals that step's vertex's old color).

    Windows are clamped at the tail.  X's colors are replayed from s.start.
    """
    _check_covers(g, "walk", len(s.start))
    xs = _clique_ids(clique_x, g.n)
    for x, y in combinations(xs, 2):
        if y not in g.adj[x]:
            raise NotAClique(xs, (x, y))
    d = len(xs) + 1
    w1 = 3 * d + 4
    w2 = 3 * d - 4
    t = s.palette_size
    keep = set(xs)
    rsteps = [st for st in s.steps if st.vertex in keep]
    new = [c for _, c in rsteps]
    cur = {x: s.start[x] for x in xs}
    pre_colors: list[frozenset[int]] = []
    pre_own: list[int] = []
    for w, c in rsteps:
        pre_colors.append(frozenset(cur.values()))
        pre_own.append(cur[w])
        cur[w] = c
    forced = list(map(eq, new[1:], pre_own))  # step j is forced by step j+1
    palette = set(range(1, t + 1))
    return [
        i
        for i, pre in enumerate(pre_colors)
        if len(palette - pre - set(new[i + 1 : i + w1 + 1])) >= 3
        and not any(forced[i + 1 : i + w2 + 1])
    ]


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    palette: int
    max_back_degree: int
    length: int
    per_vertex: dict[int, int]
    max_count: int
    violations: list[Violation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "palette": self.palette,
            "max_back_degree": self.max_back_degree,
            "length": self.length,
            "max_count": self.max_count,
            "per_vertex": {str(v): c for v, c in sorted(self.per_vertex.items())},
            "passed": self.passed,
            "violations": [
                {**vars(w), "indices": list(w.indices)} for w in self.violations
            ],
            "stats": self.stats,
        }


def analyze_sequence(
    g: Graph,
    ordering: EliminationOrdering,
    s: RecoloringSequence,
    causation: bool = True,
    naughty_cliques: Sequence[Iterable[int]] | None = None,
) -> AnalysisReport:
    """Run every applicable structural check over one sequence.

    Checks whose guarantee needs palette headroom (spacing, the save
    budget) are applied per vertex only when t >= 2d+1 for that vertex's
    back-degree d, so reported violations are genuine at any palette.
    The palette-coverage check runs on the max-back-degree vertices when
    the palette is exactly 2d+1 for them.  An ordering of another graph
    (`graphs._check_of`) raises ValueError.
    """
    _check_of(g, ordering)
    _check_covers(g, "walk", len(s.start))
    backs = ordering.back_nbrs
    counts = per_vertex_counts(s)
    dmax = ordering.max_back_degree
    t = s.palette_size
    steps = s.steps
    violations: list[Violation] = []
    tight_total = 0
    rotating_total = 0
    cl = list(counts.values())  # by vertex id
    # v's step positions are by_vertex[offsets[v]:offsets[v + 1]]
    by_vertex = sorted(range(len(steps)), key=list(map(itemgetter(0), steps)).__getitem__)
    offsets = list(accumulate(cl, initial=0))

    def restriction(members: Iterable[int]) -> list[int]:
        """The walk positions of the members' steps, in walk order: one
        sort merges their slices."""
        runs = (by_vertex[offsets[w] : offsets[w + 1]] for w in members)
        return sorted(chain.from_iterable(runs))

    # The spacing and budget guarantees need t >= 2d+1 for v's d.  Count
    # r = kappa, all of B's steps, for each such v: w's steps are in the B
    # of each later neighbour of w, less the B's with t <= 2d.  The loop
    # corrects r for the vertices recolored twice.
    later = map(sub, map(len, g.adj), map(len, backs))
    cramped = compress(backs, map(((t + 1) // 2).__le__, map(len, backs)))
    saved_total = sum(map(mul, cl, later)) - sum(sum(map(cl.__getitem__, b)) for b in cramped)
    palette = set(range(1, t + 1))
    for v in compress(range(g.n), map((1).__lt__, cl)):
        back = backs[v]
        d = len(back)
        room = t > 2 * d
        covers = d == dmax and t == 2 * d + 1
        rpos = restriction((*back, v))
        rsteps = list(map(steps.__getitem__, rpos))
        m = len(rsteps)
        pos = [i for i, st in enumerate(rsteps) if st.vertex == v]
        last = pos[-1]
        hist = [s.start[v], *(rsteps[p].new_color for p in pos)]  # x_0, x_1, ...
        # saved: B's steps before v's first recoloring and after its last,
        # and in each gap between two of them all but the first d
        r = pos[0] + m - 1 - last
        spaced = []
        uncovered = []
        for p, q, before in zip(pos, pos[1:], hist):
            gap = q - p - 1
            if gap == d:  # tight: exactly d steps to v's next recoloring
                tight_total += 1
                # coverage: at t = 2d+1 a tight recoloring of a max-back-degree
                # vertex sees the whole palette (v's color before and after,
                # B's colors before, the d intervening new colors), unless its
                # follower is R's last step, a free choice
                if covers and q != m - 1:
                    seen = {before, *map(itemgetter(1), rsteps[p:q])}
                    for u in back:
                        lo = offsets[u]
                        i = bisect_left(by_vertex, rpos[p], lo, offsets[u + 1])
                        seen.add(steps[by_vertex[i - 1]][1] if i > lo else s.start[u])
                    if seen != palette:
                        uncovered.append(
                            Violation(
                                "tight-coverage", v, (p,),
                                f"colors {sorted(palette - seen)} unused around a tight recoloring",
                            )
                        )
            elif gap > d:
                r += gap - d
            # causation: every recoloring of v but its last is immediately
            # followed by an earlier neighbor taking v's old color (a step
            # of the restriction that is not v's recolors a member of B)
            if causation and (gap == 0 or rsteps[p + 1].new_color != before):
                violations.append(
                    Violation(
                        "causation", v, (p,),
                        "non-final recoloring not forced by the following step",
                    )
                )
            # spacing: v is never recolored twice in a row, and a revisit
            # after fewer than d intervening steps may only be v's last
            if gap == 0:
                spaced.append(
                    Violation("revisit-spacing", v, (p, q), "vertex recolored twice in a row")
                )
            elif gap < d and q != last:
                spaced.append(
                    Violation(
                        "revisit-spacing", v, (p, q),
                        f"revisit after only {gap} steps before a later recoloring",
                    )
                )
        if room:
            violations.extend(spaced)
            # budget: v's recolorings number at most 1 + ceil((kappa - r) / d)
            kappa = m - len(pos)
            saved_total += r - kappa
            bound = 1 + (-((r - kappa) // d) if d else 0)
            if len(pos) > bound:
                note = f"{len(pos)} recolorings exceed bound {bound} (kappa={kappa}, r={r}, d={d})"
                violations.append(Violation("save-inequality", v, (), note))
        violations.extend(uncovered)
        # rotating: the recoloring to x_j is rotating iff x_{j+2} = x_{j-1};
        # one lacking two successors never is
        rotating_total += sum(map(eq, hist[3:], hist))
    stats = {
        "tight": tight_total,
        "saved": saved_total,
        "rotating": rotating_total,
    }
    if naughty_cliques is not None:
        naughty_counts = []
        for x in naughty_cliques:
            xs = _clique_ids(x, g.n)
            rx = RecoloringSequence(tuple(map(steps.__getitem__, restriction(xs))), s.start)
            naughty_counts.append(len(naughty_recolorings(rx, g, xs)))
        stats["naughty_max"] = max(naughty_counts, default=0)
        stats["naughty_cliques"] = len(naughty_counts)
    return AnalysisReport(
        n=g.n,
        palette=t,
        max_back_degree=dmax,
        length=len(steps),
        per_vertex=counts,
        max_count=max(counts.values(), default=0),
        violations=violations,
        stats=stats,
    )
