"""Checks on the library's outputs that use none of the library's code.

Walks are replayed with a loop of their own rather than `apply_sequence`,
reference distances come from a breadth-first search of their own rather
than the oracle, and step lists are digested so that two runs can be
compared exactly.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, Sequence


def replay(adj: Sequence[Iterable[int]], start: Sequence[int], t: int,
           steps: Iterable[Sequence[int]]) -> tuple[list[int], str | None]:
    """Replay `steps` from `start` on the graph with adjacency `adj`.

    Returns (final colors, None) when the start coloring is proper and
    every step names a vertex of the graph, a color of 1..t, a change of
    color and no monochromatic edge; otherwise the colors reached so far
    and a description of the first fault.
    """
    colors = list(start)
    n = len(colors)
    if n != len(adj):
        return colors, f"start colors {n} vertices, graph has {len(adj)}"
    for v, c in enumerate(colors):
        if not 1 <= c <= t:
            return colors, f"start gives vertex {v} color {c} outside 1..{t}"
    for v in range(n):
        for u in adj[v]:
            if colors[u] == colors[v]:
                return colors, f"start has monochromatic edge ({v},{u})"
    for i, (v, c) in enumerate(steps):
        if not 0 <= v < n:
            return colors, f"step {i}: vertex {v} out of range"
        if not 1 <= c <= t:
            return colors, f"step {i}: color {c} outside 1..{t}"
        if colors[v] == c:
            return colors, f"step {i}: null step on vertex {v}"
        for u in adj[v]:
            if colors[u] == c:
                return colors, f"step {i}: edge ({v},{u}) monochromatic in color {c}"
        colors[v] = c
    return colors, None


def check_walk(adj, start, t, steps, end) -> str | None:
    """Replay a walk and require that it ends at the colors `end`."""
    final, fault = replay(adj, start, t, steps)
    if fault is None and tuple(final) != tuple(end):
        fault = "walk does not end at the expected coloring"
    return fault


def max_per_vertex(steps: Iterable[Sequence[int]]) -> int:
    """Largest number of times a single vertex is recolored."""
    counts = Counter(v for v, _ in steps)
    return max(counts.values(), default=0)


def bfs_discovery(adj: Sequence[Iterable[int]], t: int, source: tuple[int, ...],
                  expansions: int) -> tuple[list[tuple[int, ...]], dict, list[int]]:
    """Breadth-first search over proper t-colorings from `source`, stopped
    after `expansions` states have been expanded.

    Returns the states in discovery order, their distances, and for each
    expansion the number of states discovered before it began.  Moves are
    tried vertex-ascending, then color-ascending, from states taken
    first-in first-out; a search in this order that stops on discovering
    a target has expanded about as many states as it took here to reach
    that target.
    """
    n = len(source)
    order = [source]
    dist = {source: 0}
    before: list[int] = []
    while len(before) < min(expansions, len(order)):
        state = order[len(before)]
        before.append(len(order))
        d1 = dist[state] + 1
        for v in range(n):
            cv = state[v]
            taken = {state[u] for u in adj[v]}
            for c in range(1, t + 1):
                if c == cv or c in taken:
                    continue
                nxt = state[:v] + (c,) + state[v + 1:]
                if nxt not in dist:
                    dist[nxt] = d1
                    order.append(nxt)
    return order, dist, before


def walk_digest(*walks: Iterable[Sequence[int]]) -> str:
    """sha256 of the step tuples of one or more walks, in order."""
    h = hashlib.sha256()
    for w in walks:
        h.update(" ".join(f"{v}:{c}" for v, c in w).encode())
        h.update(b"|")
    return h.hexdigest()
