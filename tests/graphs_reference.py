"""Reference implementations of `mcs_peo`, `degeneracy`, `greedy_color`,
`gen_random_coloring` and the shared peel `_peel`, kept as the separate
loops the library's shared ones are differential-tested against.

`mcs_peo` rescans every vertex for the one with the most picked
neighbours (smallest id on ties), O(n^2); `degeneracy` peels with its own
lazy heap of (degree, id) tuples; `_peel` is one lazy heap of key * n + v
integers, the reference for the library's bucket queue; the two colorings
each run their own loop along the ordering.
"""

from __future__ import annotations

import heapq
import random

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    PaletteExhausted,
    RecolorError,
    certify_perfect,
)


def mcs_peo(g: Graph) -> EliminationOrdering:
    n = g.n
    weight = [0] * n
    picked = [False] * n
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not picked[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        picked[best] = True
        order.append(best)
        for u in g.adj[best]:
            if not picked[u]:
                weight[u] += 1
    return certify_perfect(g, EliminationOrdering(g, order))


def degeneracy(g: Graph) -> tuple[int, EliminationOrdering]:
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    peel = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        peel.append(v)
        d = max(d, dv)
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    order = list(reversed(peel))
    ordering = EliminationOrdering(g, order)
    if ordering.max_back_degree != d:
        raise RecolorError(
            f"peeling found degeneracy {d}, ordering has {ordering.max_back_degree}"
        )
    return d, ordering


def greedy_color(g: Graph, ordering: EliminationOrdering, palette: int) -> Coloring:
    colors = [0] * g.n
    for v in ordering.order:
        used = {colors[u] for u in ordering.back_nbrs[v]}
        c = 1
        while c in used:
            c += 1
        if c > palette:
            raise PaletteExhausted(v, palette)
        colors[v] = c
    return Coloring(colors, palette)


def gen_random_coloring(
    g: Graph, ordering: EliminationOrdering, t: int, seed: int
) -> Coloring:
    rng = random.Random(seed)
    colors = [0] * g.n
    for v in ordering.order:
        used = {colors[u] for u in ordering.back_nbrs[v]}
        free = [c for c in range(1, t + 1) if c not in used]
        if not free:
            raise PaletteExhausted(v, t)
        colors[v] = rng.choice(free)
    return Coloring(colors, t)


def _peel(g: Graph, key: list[int]) -> tuple[list[int], int]:
    """Take every vertex once, always the least (key, id) among the untaken;
    each take lowers every untaken neighbor's key (updated in place) by one.
    Returns the order of takes and the largest key at a take, at least 0.

    A heap entry is the one integer key * n + v: as 0 <= v < n, integers
    order exactly as (key, v) pairs do, negative keys included, and
    divmod by n gives both back.
    """
    n = g.n
    adj = g.adj
    heap = [k * n + v for v, k in enumerate(key)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    taken = [False] * n
    order = []
    top = 0
    while heap:
        k, v = divmod(pop(heap), n)
        if k != key[v]:
            continue
        taken[v] = True
        order.append(v)
        if k > top:
            top = k
        for u in adj[v]:
            if not taken[u]:
                key[u] -= 1
                push(heap, key[u] * n + u)
    return order, top
