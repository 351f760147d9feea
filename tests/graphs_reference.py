"""Reference implementations of `mcs_peo`, `degeneracy`, `greedy_color`
and `gen_random_coloring`, kept as the separate loops the library's shared
ones are differential-tested against.

`mcs_peo` rescans every vertex for the one with the most picked
neighbours (smallest id on ties), O(n^2); `degeneracy` peels with its own
lazy heap; the two colorings each run their own loop along the ordering.
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
