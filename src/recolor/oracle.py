"""Exhaustive answers over the space of proper colorings.

States are the proper t-colorings of a graph; two states are adjacent when
they differ on exactly one vertex.  Everything here enumerates or searches
that space directly, so it only works at desk scale: every call first
rejects t < 1 and checks t**n against a state cap, refusing beyond it.

Used as ground truth for distances, connectivity and diameter, and as the
middle leg of the treewidth pipeline.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator

from .errors import ImproperInput, InvalidParams, StateCapExceeded
from .graphs import Coloring, Graph, is_proper
from .engine import RecoloringSequence, RecoloringStep

DEFAULT_STATE_CAP = 2_000_000


def _check_cap(g: Graph, t: int, state_cap: int) -> None:
    if t < 1:
        raise InvalidParams(f"palette t must be at least 1, got {t}")
    # t**n has n*log10(t) digits: multiply only until the cap is passed
    size = 1
    for _ in range(g.n):
        if size > state_cap:
            break
        size *= t
    if size > state_cap:
        raise StateCapExceeded(t, g.n, state_cap)


def enumerate_colorings(
    g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP
) -> int:
    """Exact number of proper t-colorings, by backtracking."""
    return sum(1 for _ in iter_colorings(g, t, state_cap))


def iter_colorings(
    g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield every proper t-coloring as a tuple, in lexicographic order."""
    _check_cap(g, t, state_cap)
    n = g.n
    if n == 0:
        yield ()
        return
    adj = g.adj
    colors = [0] * n
    back = [tuple(u for u in adj[v] if u < v) for v in range(n)]
    v = 0
    c = 1
    while True:
        while c <= t:
            if all(colors[u] != c for u in back[v]):
                break
            c += 1
        if c > t:
            v -= 1
            if v < 0:
                return
            c = colors[v] + 1
            continue
        colors[v] = c
        if v == n - 1:
            yield tuple(colors)
            c += 1
        else:
            v += 1
            c = 1


class _Space:
    """Integer encoding of colorings (base t) plus the BFS over moves.

    Every discovered state enters the queue as a tuple as well; the visited
    and distance maps are keyed by the integer code, which is smaller and
    faster to hash than the tuple (n=9, t=5, 43,740 states: 0.77 s and a
    5.7 MB tracemalloc peak, against 0.84 s and 8.6 MB keyed by tuple).
    """

    def __init__(self, g: Graph, t: int):
        self.g = g
        self.t = t
        self.pw = [t**v for v in range(g.n)]

    def encode(self, state: tuple[int, ...]) -> int:
        return sum((c - 1) * p for c, p in zip(state, self.pw))

    def bfs(
        self,
        source: tuple[int, ...],
        target_code: int | None = None,
        parents: dict | None = None,
    ) -> dict[int, int]:
        """Distances (by state code) from source.

        Stops as soon as `target_code` is reached.  `parents`, when given,
        is filled with child -> (parent code, vertex, color).  Neighbor
        states are tried vertex-ascending, color-ascending, so the search
        tree is deterministic.
        """
        g, t, pw = self.g, self.t, self.pw
        n = g.n
        adj = g.adj
        src_code = self.encode(source)
        dist = {src_code: 0}
        if target_code is not None and src_code == target_code:
            return dist
        queue = deque([(src_code, source)])
        while queue:
            code, state = queue.popleft()
            d1 = dist[code] + 1
            for v in range(n):
                cv = state[v]
                pv = pw[v]
                taken = {state[u] for u in adj[v]}
                base = code - (cv - 1) * pv
                for c in range(1, t + 1):
                    if c == cv or c in taken:
                        continue
                    ncode = base + (c - 1) * pv
                    if ncode in dist:
                        continue
                    dist[ncode] = d1
                    if parents is not None:
                        parents[ncode] = (code, v, c)
                    if ncode == target_code:
                        return dist
                    queue.append((ncode, state[:v] + (c,) + state[v + 1 :]))
        return dist


def _as_state(g: Graph, t: int, coloring: Coloring) -> tuple[int, ...]:
    if coloring.palette_size != t:
        coloring = coloring.with_palette(t)
    if not is_proper(g, coloring):
        raise ImproperInput("coloring is not proper")
    return coloring.colors


def rt_distance(
    g: Graph,
    t: int,
    a: Coloring,
    b: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Length of a shortest recoloring walk from a to b, or None when b is
    unreachable from a."""
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    sp = _Space(g, t)
    dist = sp.bfs(src, target_code=sp.encode(dst))
    return dist.get(sp.encode(dst))


def rt_path(
    g: Graph,
    t: int,
    a: Coloring,
    b: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> RecoloringSequence | None:
    """A shortest walk from a to b as a recoloring sequence, or None."""
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    sp = _Space(g, t)
    dst_code = sp.encode(dst)
    parents: dict = {}
    dist = sp.bfs(src, target_code=dst_code, parents=parents)
    if dst_code not in dist:
        return None
    steps = []
    cur = dst_code
    src_code = sp.encode(src)
    while cur != src_code:
        prev, v, c = parents[cur]
        steps.append(RecoloringStep(v, c))
        cur = prev
    steps.reverse()
    return RecoloringSequence(tuple(steps), Coloring(src, t))


def rt_connected(g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every proper t-coloring reaches every other.

    A graph with no proper t-coloring at all yields False as well; call
    `enumerate_colorings` to tell the two apart.
    """
    total = 0
    first = None
    for state in iter_colorings(g, t, state_cap):
        if first is None:
            first = state
        total += 1
    if first is None:
        return False
    dist = _Space(g, t).bfs(first)
    return len(dist) == total


def rt_diameter(g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP) -> int | float:
    """Largest shortest-path distance over all pairs of proper t-colorings.

    Returns math.inf when the space is disconnected or empty.  Runs a BFS
    from every state, so keep instances tiny.
    """
    states = list(iter_colorings(g, t, state_cap))
    if not states:
        return math.inf
    total = len(states)
    sp = _Space(g, t)
    diam = 0
    for s in states:
        dist = sp.bfs(s)
        if len(dist) < total:
            return math.inf
        ecc = max(dist.values())
        diam = max(diam, ecc)
    return diam


def frozen_states(
    g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP
) -> list[tuple[int, ...]]:
    """Proper t-colorings with no recoloring move at all."""
    out = []
    for state in iter_colorings(g, t, state_cap):
        movable = False
        for v in range(g.n):
            taken = {state[u] for u in g.adj[v]}
            if any(c != state[v] and c not in taken for c in range(1, t + 1)):
                movable = True
                break
        if not movable:
            out.append(state)
    return out
