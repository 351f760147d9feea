"""Construction and replay of single-vertex recoloring sequences.

A sequence is a list of (vertex, new color) steps applied to a start
coloring.  Valid sequences change the named vertex's color at every step
and keep the coloring proper throughout.

`best_choice_sequence` builds a sequence from alpha to beta by folding the
vertices of an elimination ordering: each vertex is spliced into the
sequence built for the earlier vertices, getting recolored out of the way
just before an earlier neighbor would take its color.  The replacement
color is picked by a three-rule selection that prefers the vertex's final
color and otherwise postpones the next forced move as long as possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EmptyValidSet,
    ImproperEndpoint,
    ImproperInput,
    ImproperIntermediate,
    NullStep,
    PaletteViolation,
)
from .graphs import Coloring, EliminationOrdering, Graph, is_proper


class RecoloringStep(NamedTuple):
    vertex: int
    new_color: int


@dataclass(frozen=True)
class RecoloringSequence:
    """Steps plus the coloring they apply to and the palette size."""

    steps: tuple[RecoloringStep, ...]
    start: Coloring
    palette_size: int

    def __len__(self) -> int:
        return len(self.steps)


def apply_sequence(g: Graph, s: RecoloringSequence) -> Coloring:
    """Replay s on g, validating every step, and return the final coloring.

    Raises NullStep when a step repeats the current color,
    ImproperIntermediate when a step creates a monochromatic edge,
    PaletteViolation when a step's color falls outside the palette, and
    ValueError when a step's vertex falls outside 0..n-1.
    """
    n = g.n
    t = s.palette_size
    if not is_proper(g, s.start.with_palette(t)):
        raise ImproperInput("start coloring is not proper")
    colors = list(s.start.colors)
    adj = g.adj
    for i, (v, c) in enumerate(s.steps):
        if not 0 <= v < n:
            raise ValueError(f"step {i} recolors vertex {v}, outside 0..{n - 1}")
        if c < 1 or c > t:
            raise PaletteViolation(v, c, t)
        if colors[v] == c:
            raise NullStep(i, v, c)
        for u in adj[v]:
            if colors[u] == c:
                raise ImproperIntermediate(i, (v, u), c)
        colors[v] = c
    return Coloring(colors, t)


def reverse_sequence(s: RecoloringSequence) -> RecoloringSequence:
    """The step-by-step undo of s: reversed order, each step restoring the
    color the vertex had just before that step in the forward replay.

    The input is assumed valid; the result applies from the forward end
    coloring back to s.start.
    """
    colors = list(s.start.colors)
    pre = []
    for v, c in s.steps:
        pre.append(colors[v])
        colors[v] = c
    rev = [
        RecoloringStep(v, pc)
        for (v, _), pc in zip(reversed(s.steps), reversed(pre))
    ]
    return RecoloringSequence(tuple(rev), Coloring(colors, s.palette_size), s.palette_size)


def select_best_choice(
    target: int,
    valid: Iterable[int],
    future: Sequence[int],
    stats: dict | None = None,
) -> int:
    """Pick a replacement color given the valid set and the upcoming new
    colors of the triggering neighbor step and the neighbor steps after it.

    Three rules, first match wins:
      1. the target color, when it is valid and absent from `future`;
      2. the smallest valid color absent from `future`;
      3. the valid color whose first occurrence in `future` is latest.

    Rule 1 additionally requires validity: a target merely absent from
    `future` may still sit on a neighbor right now.  `stats` (optional)
    counts how often that extra requirement alone rejected rule 1, under
    key "rule1_blocked".
    """
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
    start = s.start if s.start[u] == alpha_u else s.start.with_color(u, alpha_u)
    return RecoloringSequence(tuple(out), start, t)


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
    s = RecoloringSequence((), alpha, alpha.palette_size)
    for v in ordering.order:
        s = local_best_choice(
            g, v, ordering.back_nbrs[v], s, alpha[v], beta[v], stats
        )
    end = apply_sequence(g, s)
    if end.colors != beta.colors:
        raise ImproperEndpoint("constructed sequence does not end at beta")
    return s
