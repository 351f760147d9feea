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

The walk under construction is a doubly linked list of steps with
integer order labels, held as parallel int lists (`_Walk`) that also
chain each vertex's nodes; `local_best_choice` splices one vertex into
it in place.  A vertex's restriction R is the steps of its earlier
neighbors.  When none of them takes the vertex's start color, the
vertex never moves before its final step, and its splice costs
O(d + |R|) with no sort.  Otherwise R is one sort of the neighbors'
chains by label, and each spliced step is linked in before its
triggering node.  A closed label gap relabels the smallest sparse
enough window around it, not the whole list.  Folding in all vertices
costs O((n + L) log L) for the list, where L is the walk's
length, plus O(|R| log d) to sort the restriction R of each vertex that
must move (the sort merges the d sorted chains) and O(|R|) per color
choice made against it: O((n + L) log L + sum of |R|) when back-degrees
and choices per vertex are bounded.  The tuple of steps is built once,
at the end, in one C-level pass (`_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptyValidSet,
    ImproperEndpoint,
    ImproperInput,
    ImproperIntermediate,
    NullStep,
    PaletteViolation,
)
from .graphs import Coloring, EliminationOrdering, Graph, _check_of, is_proper


class RecoloringStep(NamedTuple):
    vertex: int
    new_color: int


@dataclass(frozen=True)
class RecoloringSequence:
    """Steps plus the coloring they apply to; the walk's palette is the
    start coloring's.  Each step is held as a RecoloringStep of two ints
    (a plain pair is converted; a float or string is a TypeError), and
    its vertex lies in 0..len(start)-1 (ValueError otherwise)."""

    steps: tuple[RecoloringStep, ...]
    start: Coloring

    def __post_init__(self):
        n = len(self.start)
        steps = tuple(self.steps)
        exact = True  # every step a RecoloringStep of two ints: keep the tuple
        for i, step in enumerate(steps):
            v, c = step
            if type(step) is not RecoloringStep or type(v) is not int or type(c) is not int:
                v, c = index(v), index(c)
                exact = False
            if not 0 <= v < n:
                raise ValueError(f"step {i} recolors vertex {v}, outside 0..{n - 1}")
        if not exact:
            steps = tuple([RecoloringStep(index(v), index(c)) for v, c in steps])
        object.__setattr__(self, "steps", steps)

    @property
    def palette_size(self) -> int:
        return self.start.palette_size

    def __len__(self) -> int:
        return len(self.steps)


def apply_sequence(g: Graph, s: RecoloringSequence) -> Coloring:
    """Replay s on g, validating every step, and return the final coloring.

    Raises NullStep when a step repeats the current color,
    ImproperIntermediate when a step creates a monochromatic edge,
    and PaletteViolation when a step's color falls outside the palette.
    """
    t = s.palette_size
    if not is_proper(g, s.start):
        raise ImproperInput("start coloring is not proper")
    colors = list(s.start.colors)
    adj = g.adj
    for i, (v, c) in enumerate(s.steps):
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
    return RecoloringSequence(tuple(rev), Coloring(colors, s.palette_size))


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
    # every valid color occurs in `future`, and first occurrences are distinct
    return max(vset, key=future.index)


_HEAD, _TAIL = 0, 1  # the sentinel node ids of every `_Walk`

# A window of 2**i labels may be relabelled only while it holds at most
# (2 / _DENSITY) ** i steps; 1 < _DENSITY < 2 trades label bits against
# relabelling work.
_DENSITY = 1.5
# Label distance of a step appended at the end of a walk from its
# predecessor: room for steps inserted before it later.
_SPACING = 1 << 24


def _steps(pairs: Iterable[tuple[int, int]]) -> tuple[RecoloringStep, ...]:
    """RecoloringSteps of trusted (vertex, color) int pairs, in one C-level pass."""
    return tuple(map(tuple.__new__, repeat(RecoloringStep), pairs))


class _Walk:
    """A recoloring sequence under construction: steps in a doubly linked
    list whose integer labels increase along it, so a step can be linked
    in anywhere and two steps compared in walk order by label alone.

    A node is an index into the int lists `vertex`, `color`, `label`,
    `prev` and `next`, so a step builds no object; nodes 0 and 1 are the
    head and tail sentinels.  A step appended at the end gets its
    predecessor's label plus _SPACING, and one inserted before a step the
    midpoint of the labels around it.  When no label is free there, the
    smallest aligned window of 2**i labels around it holding at most
    (2 / _DENSITY) ** i steps is relabelled evenly (Bender et al., ESA 2002, "Two simplified algorithms
    for maintaining order in a list"), which they show costs O(log L)
    amortized relabels per insertion.  v's nodes form a chain, newest
    first: `first[v]`, then `same[node]` for each, 0 (the head) ending
    it.  `stats`, when given, is the dict the color choices count into
    (see `select_best_choice`).
    """

    tail = _TAIL

    def __init__(self, start: Coloring, stats: dict | None = None):
        self.start = start
        self.stats = stats
        self.vertex = [-1, -1]
        self.color = [0, 0]
        self.label = [-1, -1]  # the head's is below every step's (all >= 0)
        self.prev = [-1, _HEAD]
        self.next = [_TAIL, -1]
        self.first = [0] * len(start)
        self.same = [0, 0]
        self.relabelled = 0  # nodes relabelled so far, for the cost bound

    def __iter__(self) -> Iterator[int]:
        nxt = self.next
        x = nxt[_HEAD]
        while x != _TAIL:
            yield x
            x = nxt[x]

    def sequence(self) -> RecoloringSequence:
        nodes = list(self)
        vertex, color = self.vertex.__getitem__, self.color.__getitem__
        return RecoloringSequence(_steps(zip(map(vertex, nodes), map(color, nodes))), self.start)

    def insert_before(self, y: int, vertex: int, color: int) -> None:
        prev, nxt, label = self.prev, self.next, self.label
        x = prev[y]
        z = len(label)
        self.vertex.append(vertex)
        self.color.append(color)
        prev.append(x)
        nxt.append(y)
        nxt[x] = prev[y] = z
        if y == _TAIL:
            label.append(label[x] + _SPACING)
        elif label[y] - label[x] >= 2:
            label.append((label[x] + label[y]) // 2)
        else:
            # anchor the window at a real neighbour's label
            label.append(label[y] if x == _HEAD else label[x])
            self._relabel(z)
        self.same.append(self.first[vertex])
        self.first[vertex] = z

    def _relabel(self, z: int) -> None:
        """Spread labels evenly over the smallest window around z's label
        that is sparse enough; z shares its label with a neighbour."""
        prev, nxt, label = self.prev, self.next, self.label
        first = last = z
        count = 1
        i = 0
        while True:
            i += 1
            size = 1 << i
            base = label[z] >> i << i
            while prev[first] != _HEAD and label[prev[first]] >= base:
                first = prev[first]
                count += 1
            while nxt[last] != _TAIL and label[nxt[last]] < base + size:
                last = nxt[last]
                count += 1
            if count <= (2 / _DENSITY) ** i:
                break
        self.relabelled += count
        node = first
        for j in range(count):
            label[node] = base + j * size // count
            node = nxt[node]


def local_best_choice(
    g: Graph,
    u: int,
    nbrs: Iterable[int],
    walk: _Walk,
    beta_u: int,
) -> None:
    """Splice vertex u, in place, into a walk that never touches u.

    `nbrs` are u's neighbors in the graph the walk lives on.  Whenever a
    step of the walk recolors one of them to u's current color, a step
    moving u to a best-choice color is inserted immediately before it; a
    final step to beta_u is appended iff u does not already sit there.
    u starts at its color in the walk's start coloring.

    When no neighbor step takes u's start color, u never moves before
    its final step, which is then appended in O(d + |R|), d = len(nbrs)
    and R the neighbors' steps, with no sort.  Otherwise `_splice` sorts
    R and makes the color choices.
    """
    start = walk.start.colors
    n = len(start)
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} outside 0..{n - 1}")
    if n != g.n:
        raise ValueError(f"walk covers {n} vertices, graph has {g.n}")
    nbrs = tuple(nbrs)
    if not g.adj[u].issuperset(nbrs):
        raise ValueError(f"nbrs must be neighbors of {u}")
    first, same, color = walk.first, walk.same, walk.color
    u_color = start[u]
    for w in nbrs:
        x = first[w]
        while x:
            if color[x] == u_color:
                _splice(u, nbrs, walk, beta_u)
                return
            x = same[x]
    if u_color != beta_u:
        walk.insert_before(_TAIL, u, beta_u)


def _splice(u: int, nbrs: tuple[int, ...], walk: _Walk, beta_u: int) -> None:
    """`local_best_choice` for a u that some neighbor step forces to move."""
    t = walk.start.palette_size
    nbr_set = frozenset(nbrs)
    first, same = walk.first, walk.same
    restriction = []
    for w in nbr_set:
        x = first[w]
        while x:
            restriction.append(x)
            x = same[x]
    restriction.sort(key=walk.label.__getitem__)  # Timsort reverses each chain
    nbr_colors = list(map(walk.color.__getitem__, restriction))

    start = walk.start.colors
    cur = {w: start[w] for w in nbr_set}
    u_color = start[u]
    inserted = 0
    palette = range(1, t + 1)
    vertex = walk.vertex
    for j, node in enumerate(restriction):
        c = nbr_colors[j]
        if c == u_color:
            taken = set(cur.values())
            taken.add(u_color)
            valid = [x for x in palette if x not in taken]
            if not valid:
                raise EmptyValidSet(u, list(walk).index(node) - inserted)
            x = select_best_choice(beta_u, valid, nbr_colors[j:], walk.stats)
            walk.insert_before(node, u, x)
            inserted += 1
            u_color = x
        cur[vertex[node]] = c
    if u_color != beta_u:
        walk.insert_before(_TAIL, u, beta_u)


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
    `stats`, when given, counts the color choices' rule-1 blocks (see
    `select_best_choice`).
    """
    if alpha.palette_size != beta.palette_size:
        raise ValueError("alpha and beta must share a palette")
    _check_of(g, ordering)
    if not is_proper(g, alpha):
        raise ImproperInput("alpha is not proper")
    if not is_proper(g, beta):
        raise ImproperInput("beta is not proper")
    walk = _Walk(alpha, stats)
    back, final = ordering.back_nbrs, beta.colors
    for v in ordering.order:
        local_best_choice(g, v, back[v], walk, final[v])
    s = walk.sequence()
    end = apply_sequence(g, s)
    if end.colors != beta.colors:
        raise ImproperEndpoint("constructed sequence does not end at beta")
    return s
