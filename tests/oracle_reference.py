"""Reference versions of the oracle queries, kept as the one-ended BFS and
the per-vertex move scan the library's code-only search is
differential-tested against.

The search runs forward from the start until it discovers the target,
trying moves vertex-ascending, color-ascending; `rt_path` follows the
recorded parents back from the target.  `rt_connected` and `rt_diameter`
run the same BFS to exhaustion, and `frozen_states` scans each coloring's
vertices for a free color.
"""

from __future__ import annotations

import math
from collections import deque

from recolor import Coloring, Graph, RecoloringSequence, RecoloringStep, iter_colorings
from recolor.oracle import DEFAULT_STATE_CAP, _as_state, _check_cap, _Space


def bfs(
    sp: _Space,
    source: tuple[int, ...],
    target_code: int | None = None,
    parents: dict | None = None,
) -> dict[int, int]:
    """Distances (by state code) from source, stopping as soon as
    `target_code` is reached; `parents`, when given, is filled with
    child -> (parent code, vertex, color)."""
    g, t, pw = sp.g, sp.t, sp.pw
    n = g.n
    adj = g.adj
    src_code = sp.encode(source)
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


def rt_distance(
    g: Graph, t: int, a: Coloring, b: Coloring, state_cap: int = DEFAULT_STATE_CAP
) -> int | None:
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    sp = _Space(g, t)
    dist = bfs(sp, src, target_code=sp.encode(dst))
    return dist.get(sp.encode(dst))


def rt_path(
    g: Graph, t: int, a: Coloring, b: Coloring, state_cap: int = DEFAULT_STATE_CAP
) -> RecoloringSequence | None:
    _check_cap(g, t, state_cap)
    src = _as_state(g, t, a)
    dst = _as_state(g, t, b)
    sp = _Space(g, t)
    dst_code = sp.encode(dst)
    parents: dict = {}
    dist = bfs(sp, src, target_code=dst_code, parents=parents)
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


def rt_connected(g: Graph, t: int) -> bool:
    states = list(iter_colorings(g, t))
    return bool(states) and len(bfs(_Space(g, t), states[0])) == len(states)


def rt_diameter(g: Graph, t: int) -> int | float:
    states = list(iter_colorings(g, t))
    sp = _Space(g, t)
    diam = 0
    for s in states:
        dist = bfs(sp, s)
        if len(dist) < len(states):
            return math.inf
        diam = max(diam, max(dist.values()))
    return diam if states else math.inf


def frozen_states(
    g: Graph, t: int, state_cap: int = DEFAULT_STATE_CAP
) -> list[tuple[int, ...]]:
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
