"""Reference implementation of `analyze_sequence`: the detectors over
v's restriction to back(v) ∪ {v} as they were before the library built
every restriction in one pass over the walk.  The library's report is
differential-tested against this one.

Here each restriction is rebuilt for one vertex at a time: the steps of
every member are collected by index, merged by sorting, and copied into
new step objects; each detector then finds v's own positions again.
`analyze_sequence` keeps the one palette-coverage rule the library has
(max-back-degree vertices, palette exactly 2d+1), and scans each clique
with `_naughty`, which filters the whole walk and re-reads every step's
windows step by step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence

from recolor import (
    AnalysisReport,
    Coloring,
    EliminationOrdering,
    Graph,
    RecoloringSequence,
    RecoloringStep,
    Violation,
    per_vertex_counts,
)
from recolor.analysis import _clique_ids
from recolor.errors import NotAClique
from recolor.graphs import _check_covers


def _steps_by_vertex(s: RecoloringSequence) -> dict[int, list[tuple[int, int]]]:
    by: dict[int, list[tuple[int, int]]] = {}
    for i, (v, c) in enumerate(s.steps):
        by.setdefault(v, []).append((i, c))
    return by


def _restriction_steps(
    by: dict[int, list[tuple[int, int]]], members: Iterable[int]
) -> list[RecoloringStep]:
    merged: list[tuple[int, int, int]] = []
    for v in members:
        merged.extend((i, v, c) for i, c in by.get(v, ()))
    merged.sort()
    return [RecoloringStep(v, c) for _, v, c in merged]


def _v_positions(rsteps: Sequence[RecoloringStep], v: int) -> list[int]:
    return [i for i, st in enumerate(rsteps) if st.vertex == v]


def _tight(rsteps: Sequence[RecoloringStep], v: int, d: int) -> list[int]:
    pos = _v_positions(rsteps, v)
    return [pos[j] for j in range(len(pos) - 1) if pos[j + 1] - pos[j] - 1 == d]




def _saved(rsteps: Sequence[RecoloringStep], v: int, d: int) -> list[int]:
    pos = _v_positions(rsteps, v)
    saved = []
    for i, st in enumerate(rsteps):
        if st.vertex == v:
            continue
        before = bisect_right(pos, i)  # recolorings of v at positions <= i
        if before == 0:
            saved.append(i)
            continue
        if pos[-1] < i:
            saved.append(i)
            continue
        lo = max(0, i - d)
        k = bisect_left(pos, lo)
        if k >= len(pos) or pos[k] >= i:
            saved.append(i)
    return saved




class _Budget(NamedTuple):
    passed: bool
    count_v: int
    kappa: int  # total recolorings of earlier neighbors
    r: int  # saved among them
    d: int
    bound: int


def _save_inequality(rsteps: Sequence[RecoloringStep], v: int, d: int) -> _Budget:
    count_v = sum(1 for st in rsteps if st.vertex == v)
    kappa = len(rsteps) - count_v
    if d == 0:
        return _Budget(count_v <= 1, count_v, kappa, 0, 0, 1)
    r = len(_saved(rsteps, v, d))
    bound = 1 + -((-(kappa - r)) // d)  # 1 + ceil((kappa - r) / d)
    return _Budget(count_v <= bound, count_v, kappa, r, d, bound)




def _revisit_spacing(
    rsteps: Sequence[RecoloringStep], v: int, d: int
) -> list[Violation]:
    pos = _v_positions(rsteps, v)
    out = []
    for j in range(len(pos) - 1):
        gap = pos[j + 1] - pos[j] - 1
        if gap == 0:
            out.append(
                Violation(
                    "revisit-spacing", v, (pos[j], pos[j + 1]),
                    "vertex recolored twice in a row",
                )
            )
        elif gap <= d - 1 and pos[j + 1] != pos[-1]:
            out.append(
                Violation(
                    "revisit-spacing", v, (pos[j], pos[j + 1]),
                    f"revisit after only {gap} steps before a later recoloring",
                )
            )
    return out




def _causation(
    rsteps: Sequence[RecoloringStep], start: Coloring, v: int, bset: frozenset[int]
) -> list[Violation]:
    pos = _v_positions(rsteps, v)
    out = []
    color = start[v]
    for j, p in enumerate(pos):
        if j < len(pos) - 1:
            nxt = rsteps[p + 1] if p + 1 < len(rsteps) else None
            if nxt is None or nxt.vertex not in bset or nxt.new_color != color:
                out.append(
                    Violation(
                        "causation", v, (p,),
                        "non-final recoloring not forced by the following step",
                    )
                )
        color = rsteps[p].new_color
    return out




def _tight_palette_coverage(
    rsteps: Sequence[RecoloringStep],
    start: Coloring,
    v: int,
    back: Sequence[int],
    t: int,
) -> list[Violation]:
    d = len(back)
    pos = _v_positions(rsteps, v)
    m = len(rsteps)
    want = {
        pos[j]
        for j in range(len(pos) - 1)
        if pos[j + 1] - pos[j] - 1 == d and pos[j + 1] != m - 1
    }
    if not want:
        return []
    full = set(range(1, t + 1))
    cur = {w: start[w] for w in (*back, v)}
    out = []
    snapshots: dict[int, tuple[int, list[int]]] = {}
    for i, (w, c) in enumerate(rsteps):
        if i in want:
            snapshots[i] = (cur[v], [cur[u] for u in back])
        cur[w] = c
    for p in sorted(want):
        c0, cs = snapshots[p]
        gap_new = [rsteps[k].new_color for k in range(p + 1, p + 1 + d)]
        covered = {c0, rsteps[p].new_color, *cs, *gap_new}
        if covered != full:
            missing = sorted(full - covered)
            out.append(
                Violation(
                    "tight-coverage", v, (p,),
                    f"colors {missing} unused around a tight recoloring",
                )
            )
    return out




def _rotating(own: Sequence[tuple[int, int]], start_color: int) -> list[int]:
    hist = [start_color] + [c for _, c in own]
    return [own[j - 1][0] for j in range(1, len(own) - 1) if hist[j + 2] == hist[j - 1]]


def _naughty(s: RecoloringSequence, g: Graph, clique_x: Iterable[int]) -> list[int]:
    """`naughty_recolorings` as a scan that re-reads each step's two
    windows step by step, with the library's id and clique checks."""
    _check_covers(g, "walk", len(s.start))
    xs = _clique_ids(clique_x, g.n)
    for i, x in enumerate(xs):
        for y in xs[i + 1 :]:
            if y not in g.adj[x]:
                raise NotAClique(xs, (x, y))
    d = len(xs) + 1
    rsteps = [st for st in s.steps if st.vertex in xs]
    m = len(rsteps)
    cur = {x: s.start[x] for x in xs}
    pre_colors = []
    pre_own = []
    for w, c in rsteps:
        pre_colors.append(set(cur.values()))
        pre_own.append(cur[w])
        cur[w] = c
    out = []
    for i in range(m):
        window_new = {rsteps[k].new_color for k in range(i + 1, min(m, i + 3 * d + 5))}
        free = set(range(1, s.palette_size + 1)) - pre_colors[i] - window_new
        if len(free) < 3:
            continue
        for j in range(i + 1, min(m - 2, i + 3 * d - 4) + 1):
            if rsteps[j + 1].new_color == pre_own[j]:
                break
        else:
            out.append(i)
    return out


def analyze_sequence(
    g: Graph,
    ordering: EliminationOrdering,
    s: RecoloringSequence,
    causation: bool = True,
    naughty_cliques: Sequence[Iterable[int]] | None = None,
) -> AnalysisReport:
    by = _steps_by_vertex(s)
    counts = per_vertex_counts(s)
    dmax = ordering.max_back_degree
    t = s.palette_size
    violations: list[Violation] = []
    tight_total = 0
    saved_total = 0
    rotating_total = 0
    for v in range(g.n):
        back = ordering.back_nbrs[v]
        d = len(back)
        rsteps = _restriction_steps(by, (*back, v))
        tight_total += len(_tight(rsteps, v, d))
        if causation:
            violations.extend(_causation(rsteps, s.start, v, frozenset(back)))
        if t >= 2 * d + 1:
            violations.extend(_revisit_spacing(rsteps, v, d))
            res = _save_inequality(rsteps, v, d)
            saved_total += res.r
            if not res.passed:
                violations.append(
                    Violation(
                        "save-inequality", v, (),
                        f"{res.count_v} recolorings exceed bound {res.bound} "
                        f"(kappa={res.kappa}, r={res.r}, d={res.d})",
                    )
                )
        do_cover = d == dmax and t == 2 * dmax + 1
        if do_cover and t == 2 * d + 1:
            violations.extend(_tight_palette_coverage(rsteps, s.start, v, back, t))
        rotating_total += len(_rotating(by.get(v, ()), s.start[v]))
    stats = {
        "tight": tight_total,
        "saved": saved_total,
        "rotating": rotating_total,
    }
    if naughty_cliques is not None:
        naughty_counts = [len(_naughty(s, g, x)) for x in naughty_cliques]
        stats["naughty_max"] = max(naughty_counts, default=0)
        stats["naughty_cliques"] = len(naughty_counts)
    return AnalysisReport(
        n=g.n,
        palette=t,
        max_back_degree=dmax,
        length=len(s.steps),
        per_vertex=counts,
        max_count=max(counts.values(), default=0),
        violations=violations,
        stats=stats,
    )
