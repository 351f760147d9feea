"""Exhaustive answers over the space of proper colorings.

States are the proper t-colorings of a graph; two states are adjacent when
they differ on exactly one vertex.  Everything here enumerates or searches
that space directly, so it only works at desk scale: every call first
rejects t < 1 and checks t**n against a state cap, refusing beyond it;
`rt_diameter`, which searches from every state, also refuses past
isqrt(cap) states.

Every search grows its layers with one move loop, `_Space.grow`: it lists
the states one move out of a layer, and can stop at the first state the
other end of a two-ended search has reached.

Used as ground truth for distances, connectivity and diameter, and as the
middle leg of the treewidth pipeline.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterator

from .errors import ImproperInput, InvalidParams, OracleInfeasible, StateCapExceeded
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
    """Integer encoding of colorings (base t) plus layered BFS over moves.

    A search state is only its integer code.  `grow` is the one move loop:
    it decodes a state's colors once when it expands that state, reads the
    colors of each vertex and its neighbours through a precomputed getter,
    and tries that vertex's colors from an ascending (color, code offset)
    table.  Measured on the 43,740 proper 5-colorings of the 9-vertex
    2-tree `gen_ktree(9, 2, 3)` (Python 3.11 on a shared 2-core Xeon): a
    full BFS takes 0.18 s, against 0.29 s for a generator that yielded
    each move, and peaks at 5.1 MB under tracemalloc; `rt_path` to the
    farthest state (13 steps) peaks at 2.6 MB.
    """

    def __init__(self, g: Graph, t: int):
        self.g = g
        self.t = t
        self.pw = pw = [t**v for v in range(g.n)]
        # Per vertex: a getter for the color digits of v and its neighbours
        # (v twice when it has none, so that it returns a tuple), v, its
        # place value, and (digit, code offset) for each color, ascending.
        self.moves = [
            (itemgetter(v, *g.adj[v]) if g.adj[v] else itemgetter(v, v),
             v, p, tuple((c, c * p) for c in range(t)))
            for v, p in enumerate(pw)
        ]

    def encode(self, state: tuple[int, ...]) -> int:
        return sum((c - 1) * p for c, p in zip(state, self.pw))

    def grow(
        self, layer: list[int], dist: dict[int, int], d: int, other: dict | None = None
    ) -> list[int]:
        """The codes one move out of `layer` that are not yet in `dist`,
        each entered there at distance d, in the order they are found.

        Moves are tried state by state in layer order and, per state,
        vertex-ascending, color-ascending, so every search is deterministic.
        With `other`, stops at the first code found in it, which is then
        the last code returned.
        """
        t, pw, moves = self.t, self.pw, self.moves
        found = []
        for code in layer:
            state = [code // p % t for p in pw]
            for closed, v, p, colors in moves:
                taken = closed(state)
                base = code - state[v] * p
                for c, offset in colors:
                    if c in taken:
                        continue
                    ncode = base + offset
                    if ncode in dist:
                        continue
                    dist[ncode] = d
                    found.append(ncode)
                    if other is not None and ncode in other:
                        return found
        return found

    def bfs(self, source: tuple[int, ...]) -> dict[int, int]:
        """Distances (by state code) from source to its whole component."""
        layer = [self.encode(source)]
        dist = {layer[0]: 0}
        d = 0
        while layer:
            d += 1
            layer = self.grow(layer, dist, d)
        return dist

    def meet(
        self, src: tuple[int, ...], dst: tuple[int, ...], whole_layer: bool
    ) -> tuple[dict[int, int], dict[int, int], list[int]] | None:
        """Two-ended BFS: grow by one whole layer the side whose frontier is
        smaller (src's on a tie) until it reaches a state the other side
        has already reached.

        Returns None when one side runs out first, else the distance maps
        from src and from dst and the codes of the meeting states.  Every
        meeting state lies on a shortest walk.  The search stops at the
        first one, or with `whole_layer` finishes its layer; the meeting
        states are then all the states at that distance from src on a
        shortest walk, and both maps hold whole layers only.
        """
        a, b = self.encode(src), self.encode(dst)
        dist = ({a: 0}, {b: 0})
        if a == b:
            return dist[0], dist[1], [a]
        frontier = [[a], [b]]
        level = [0, 0]
        meeting: list[int] = []
        while not meeting:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            if not frontier[side]:
                return None
            other = dist[1 - side]
            level[side] += 1
            layer = frontier[side] = self.grow(
                frontier[side], dist[side], level[side], None if whole_layer else other
            )
            # without whole_layer, only the last code can be a meeting state
            meeting = [code for code in (layer if whole_layer else layer[-1:]) if code in other]
        return dist[0], dist[1], meeting

    def distance(self, src: tuple[int, ...], dst: tuple[int, ...]) -> int | None:
        found = self.meet(src, dst, whole_layer=False)
        if found is None:
            return None
        from_src, from_dst, meeting = found
        return from_src[meeting[0]] + from_dst[meeting[0]]

    def path(
        self, src: tuple[int, ...], dst: tuple[int, ...]
    ) -> list[RecoloringStep] | None:
        """The shortest walk from src to dst that is smallest in (vertex,
        color) order step by step, or None when dst is unreachable."""
        found = self.meet(src, dst, whole_layer=True)
        if found is None:
            return None
        from_src, from_dst, layer = found
        mid = from_src[layer[0]]
        total = mid + from_dst[layer[0]]
        # Going back from the meeting states toward src, keep each layer's
        # states with a move into the layer kept after it: exactly the
        # states on a shortest walk.  Give each its distance to dst, so
        # that from_dst covers every state on a shortest walk.
        for i in range(mid - 1, 0, -1):
            layer = [u for u in self.grow(layer, {}, 0) if from_src.get(u) == i]
            for u in layer:
                from_dst[u] = total - i
        # From src, take each time the first move that gets one closer to
        # dst, and read the move off the one digit the two codes differ in.
        t, pw = self.t, self.pw
        steps = []
        code = self.encode(src)
        for left in range(total - 1, -1, -1):
            nxt = next(u for u in self.grow([code], {}, 0) if from_dst.get(u) == left)
            v = next(v for v, p in enumerate(pw) if nxt // p % t != code // p % t)
            steps.append(RecoloringStep(v, nxt // pw[v] % t + 1))
            code = nxt
        return steps


def _as_state(g: Graph, t: int, coloring: Coloring) -> tuple[int, ...]:
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
    unreachable from a.  Searches from both ends."""
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    return _Space(g, t).distance(src, dst)


def rt_path(
    g: Graph,
    t: int,
    a: Coloring,
    b: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> RecoloringSequence | None:
    """A shortest walk from a to b as a recoloring sequence, or None.

    Searches from both ends.  Of all shortest walks it returns the first
    in (vertex, color) order, step by step: the one a forward BFS that
    tries moves in that order finds.
    """
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    steps = _Space(g, t).path(src, dst)
    if steps is None:
        return None
    return RecoloringSequence(tuple(steps), Coloring(src, t))


def rt_connected(g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every proper t-coloring reaches every other.

    A graph with no proper t-coloring at all yields False as well; call
    `enumerate_colorings` to tell the two apart.
    """
    first = next(iter_colorings(g, t, state_cap), None)
    if first is None:
        return False
    return len(_Space(g, t).bfs(first)) == enumerate_colorings(g, t, state_cap)


def rt_diameter(g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP) -> int | float:
    """Largest shortest-path distance over all pairs of proper t-colorings.

    Returns math.inf when the space is disconnected or empty.  Runs a BFS
    from every state, so the work grows with the square of the number of
    states: past isqrt(state_cap) states it raises OracleInfeasible.
    """
    limit = math.isqrt(max(state_cap, 0))
    states = []
    for s in iter_colorings(g, t, state_cap):
        if len(states) == limit:
            raise OracleInfeasible(
                f"more than {limit} colorings: all-pairs search exceeds cap {state_cap}"
            )
        states.append(s)
    if not states:
        return math.inf
    total = len(states)
    sp = _Space(g, t)
    diam = 0
    for s in states:
        dist = sp.bfs(s)
        if len(dist) < total:
            return math.inf
        diam = max(diam, max(dist.values()))
    return diam


def frozen_states(
    g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP
) -> list[tuple[int, ...]]:
    """Proper t-colorings with no recoloring move at all."""
    _check_cap(g, t, state_cap)  # before _Space computes t**v for every v
    sp = _Space(g, t)
    frozen = []
    for s in iter_colorings(g, t, state_cap):
        seen: dict[int, int] = {}
        # each code grow enters is then in `other`, so it stops at the first move
        if not sp.grow([sp.encode(s)], seen, 0, other=seen):
            frozen.append(s)
    return frozen
