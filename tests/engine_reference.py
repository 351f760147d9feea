"""Reference implementations of `select_best_choice`, `local_best_choice`
and `best_choice_sequence`, kept as the tuple-rescanning splice the
library's order-maintained walk is differential-tested against.

`local_best_choice` scans the whole sequence for u's neighbour steps and
copies it into a new tuple, so folding a graph in costs O(n * L).
`select_best_choice` finds rule 3's color through a dict of first
occurrences, so the reference splice does not share the library's rules.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from recolor import (
    Coloring,
    EliminationOrdering,
    EmptyValidSet,
    Graph,
    ImproperEndpoint,
    ImproperInput,
    RecoloringSequence,
    RecoloringStep,
    apply_sequence,
    is_proper,
)


def select_best_choice(
    target: int,
    valid: Iterable[int],
    future: Sequence[int],
    stats: dict | None = None,
) -> int:
    """Three rules, first match wins: the target, when valid and absent
    from `future`; the smallest valid color absent from `future`; the valid
    color whose first occurrence in `future` is latest.  `stats` counts
    under "rule1_blocked" each target absent from `future` but not valid."""
    vset = set(valid)
    if not vset:
        raise EmptyValidSet(-1)
    fset = set(future)
    if target not in fset:
        if target in vset:
            return target
        if stats is not None:
            stats["rule1_blocked"] = stats.get("rule1_blocked", 0) + 1
    fresh = vset - fset
    if fresh:
        return min(fresh)
    first_occ: dict[int, int] = {}
    for i, c in enumerate(future):
        if c not in first_occ:
            first_occ[c] = i
    return max(vset, key=lambda c: first_occ[c])


def local_best_choice(
    g: Graph,
    u: int,
    nbrs: Iterable[int],
    s: RecoloringSequence,
    alpha_u: int,
    beta_u: int,
    stats: dict | None = None,
) -> RecoloringSequence:
    """Splice vertex u into a sequence that never touches u.

    `nbrs` are u's neighbors in the graph the base sequence lives on.
    Whenever a step of s recolors one of them to u's current color, a step
    moving u to a best-choice color is inserted immediately before it; a
    final step to beta_u is appended iff u does not already sit there.

    The base sequence's start is reused with u's entry set to alpha_u.
    """
    t = s.palette_size
    nbr_set = frozenset(nbrs)
    if not nbr_set <= g.adj[u]:
        raise ValueError(f"nbrs must be neighbors of {u}")
    steps = s.steps
    nbr_pos = [i for i, st in enumerate(steps) if st.vertex in nbr_set]
    nbr_colors = [steps[i].new_color for i in nbr_pos]

    cur = {w: s.start[w] for w in nbr_set}
    u_color = alpha_u
    out: list[RecoloringStep] = []
    prev = 0
    palette = range(1, t + 1)
    for j, i in enumerate(nbr_pos):
        w, c = steps[i]
        if c == u_color:
            taken = set(cur.values())
            taken.add(u_color)
            valid = [x for x in palette if x not in taken]
            if not valid:
                raise EmptyValidSet(u, i)
            x = select_best_choice(beta_u, valid, nbr_colors[j:], stats)
            out.extend(steps[prev:i])
            out.append(RecoloringStep(u, x))
            prev = i
            u_color = x
        cur[w] = c
    out.extend(steps[prev:])
    if u_color != beta_u:
        out.append(RecoloringStep(u, beta_u))
    start = s.start
    if start[u] != alpha_u:
        start = Coloring(start.colors[:u] + (alpha_u,) + start.colors[u + 1 :], t)
    return RecoloringSequence(tuple(out), start)


def best_choice_sequence(
    g: Graph,
    ordering: EliminationOrdering,
    alpha: Coloring,
    beta: Coloring,
    stats: dict | None = None,
) -> RecoloringSequence:
    """Build a valid recoloring sequence from alpha to beta on g.

    Vertices are folded in along `ordering`, each spliced against its
    earlier neighbors.  With palette size at least (max back-degree + 2)
    the valid set can never empty out, so construction always succeeds;
    the result is validated before returning and ends exactly at beta.
    """
    if alpha.palette_size != beta.palette_size:
        raise ValueError("alpha and beta must share a palette")
    if not is_proper(g, alpha):
        raise ImproperInput("alpha is not proper")
    if not is_proper(g, beta):
        raise ImproperInput("beta is not proper")
    s = RecoloringSequence((), alpha)
    for v in ordering.order:
        s = local_best_choice(
            g, v, ordering.back_nbrs[v], s, alpha[v], beta[v], stats
        )
    end = apply_sequence(g, s)
    if end.colors != beta.colors:
        raise ImproperEndpoint("constructed sequence does not end at beta")
    return s
