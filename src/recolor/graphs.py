"""Core graph types: graphs, colorings, elimination orderings.

Vertices are the integers 0..n-1.  Colors are 1-based, drawn from a palette
{1..t}.  All three types are frozen dataclasses, immutable once built;
operations return new values instead of mutating.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import NotChordal, PaletteExhausted, PaletteViolation, RecolorError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are deduplicated; self-loops are rejected.  Adjacency is stored
    as a tuple of frozensets so instances can be shared freely.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        ids = list(range(n))  # ids[x] is x as an int: True reads as 1
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(ids[v])
            adj[v].add(ids[u])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(map(frozenset, adj)))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Coloring:
    """Assignment of a 1-based color to every vertex, with a palette size t.

    The constructor only checks shape (integers, all positive; a float or
    string color or palette size is a TypeError); whether every color
    actually fits inside the palette is checked by `is_proper`, so a
    palette violation can be reported separately from an improper edge.
    """

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        t = operator.index(self.palette_size)
        if t < 1:
            raise ValueError("palette size must be at least 1")
        cols = tuple(map(operator.index, self.colors))
        if cols and min(cols) < 1:
            v = next(v for v, c in enumerate(cols) if c < 1)
            raise ValueError(f"vertex {v} has non-positive color {cols[v]}")
        object.__setattr__(self, "colors", cols)
        object.__setattr__(self, "palette_size", t)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)

    def with_palette(self, t: int) -> "Coloring":
        return self if t == self.palette_size else Coloring(self.colors, t)

    def __repr__(self) -> str:
        return f"Coloring({list(self.colors)}, t={self.palette_size})"


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic under `coloring`.

    Raises PaletteViolation if some vertex uses a color outside
    {1..palette_size}; that is an error, not mere improperness.
    """
    t = coloring.palette_size
    cols = coloring.colors
    _check_covers(g, "coloring", len(cols))
    if cols and max(cols) > t:
        v = next(v for v, c in enumerate(cols) if c > t)
        raise PaletteViolation(v, cols[v], t)
    for nbrs, c in zip(g.adj, cols):  # each edge is seen from both ends
        for v in nbrs:
            if cols[v] == c:
                return False
    return True


@dataclass(frozen=True)
class EliminationOrdering:
    """A vertex ordering of a graph, with its back-neighborhoods.

    Built as EliminationOrdering(graph, order): order[i] is the i-th
    vertex (an integer; a float or string id is a TypeError), and
    back_nbrs[v], derived from the graph, is the ascending tuple of v's
    neighbors that appear earlier.  `perfect`, also read off the graph,
    says whether every back-neighborhood is a clique.  Equality and
    hashing are those of (order, back_nbrs).
    """

    graph: Graph = field(compare=False, repr=False)
    order: tuple[int, ...]
    back_nbrs: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        adj = self.graph.adj
        n = len(adj)
        order = tuple(map(operator.index, self.order))
        # indexing needs n ids in 0..n-1; n distinct ones are all of them
        if len(order) != n or (order and not 0 <= min(order) <= max(order) < n):
            raise ValueError("order must be a permutation of 0..n-1")
        back: list[tuple[int, ...]] = [()] * n
        earlier: set[int] = set()
        for v in order:
            back[v] = tuple(sorted(adj[v].intersection(earlier)))
            earlier.add(v)
        if len(earlier) != n:
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "back_nbrs", tuple(back))

    @classmethod
    def from_order(cls, g: Graph, order: Sequence[int]) -> "EliminationOrdering":
        return cls(g, order)  # the constructor under its older name

    @property
    def max_back_degree(self) -> int:
        return max(map(len, self.back_nbrs), default=0)

    @property
    def perfect(self) -> bool:
        return next(self._gaps(), None) is None

    def _gaps(self) -> Iterator[tuple[int, int, int]]:
        """Yield (v, a, b) for each non-adjacent pair a < b in back_nbrs[v],
        by vertex id, then in the order of combinations(back_nbrs[v], 2)."""
        adj = self.graph.adj
        for v, back in enumerate(self.back_nbrs):
            for a, b in combinations(back, 2):
                if b not in adj[a]:
                    yield v, a, b


def _check_covers(g: Graph, what: str, n: int) -> None:
    if n != g.n:
        raise ValueError(f"{what} covers {n} vertices, graph has {g.n}")


def _check_of(g: Graph, ordering: EliminationOrdering) -> None:
    """Raise ValueError unless the ordering was built from g or a graph
    equal to it."""
    h = ordering.graph
    if h is g or h == g:
        return
    _check_covers(g, "ordering", h.n)
    raise ValueError("ordering was built for another graph")


def certify_perfect(g: Graph, ordering: EliminationOrdering) -> EliminationOrdering:
    """Check that every back-neighborhood is a clique.

    Returns the ordering itself on success; raises NotChordal with the
    first witness vertex and missing edge otherwise.  An ordering of
    another graph (see `_check_of`) raises ValueError.
    """
    _check_of(g, ordering)
    for v, a, b in ordering._gaps():
        raise NotChordal(v, (a, b))
    return ordering


def _peel(g: Graph, key: list[int]) -> tuple[list[int], int]:
    """Take every vertex once, always the least (key, id) among the untaken;
    each take lowers every untaken neighbor's key (updated in place) by one.
    Returns the order of takes and the largest key at a take, at least 0.

    A bucket queue: a min-heap of ids per key and `lo`, the lowest bucket
    that may hold an untaken vertex.  A key drops at most deg(v) times, so
    max(key) - min(key) + max degree + 1 buckets hold every key, whatever n.
    A lowered key pushes its vertex again; the stale entry fails the key
    test when popped.  O((n + m) log n) for keys starting at 0 or the degree.
    """
    n = g.n
    if not n:
        return [], 0
    adj = g.adj
    least = min(key)
    low = least - max(map(len, adj))  # the lowest key a vertex can reach
    buckets: list[list[int]] = [[] for _ in range(max(key) - low + 1)]
    for v, k in enumerate(key):
        buckets[k - low].append(v)  # ascending ids: each bucket is a heap
    pop, push = heapq.heappop, heapq.heappush
    taken = [False] * n
    order = []
    top = 0
    lo = least - low
    for _ in range(n):
        while True:
            bucket = buckets[lo]
            if bucket:
                v = pop(bucket)
                if key[v] == lo + low:
                    break
            else:
                lo += 1
        taken[v] = True
        order.append(v)
        if key[v] > top:
            top = key[v]
        for u in adj[v]:
            if not taken[u]:
                key[u] -= 1
                b = key[u] - low
                push(buckets[b], u)
                if b < lo:
                    lo = b
    return order, top


def mcs_peo(g: Graph) -> EliminationOrdering:
    """Perfect elimination ordering via maximum cardinality search.

    Vertices are picked one by one, always a vertex with the most already
    picked neighbors (ties broken by smallest id), in O((n + m) log n): a
    peel whose keys start at 0.  On a chordal graph the order has clique
    back-neighborhoods, which is certified before returning; when
    certification fails the graph is not chordal and NotChordal is raised.
    """
    order, _ = _peel(g, [0] * g.n)
    return certify_perfect(g, EliminationOrdering(g, order))


def degeneracy(g: Graph) -> tuple[int, EliminationOrdering]:
    """Exact degeneracy and a witnessing ordering.

    Vertices are peeled in min-degree order, smallest id on ties, in
    O((n + m) log n); the reversed peeling is returned, so every vertex
    has at most d earlier neighbors and some vertex has exactly d.
    """
    peel, d = _peel(g, [g.degree(v) for v in range(g.n)])
    ordering = EliminationOrdering(g, peel[::-1])
    if ordering.max_back_degree != d:
        raise RecolorError(
            f"peeling found degeneracy {d}, ordering has {ordering.max_back_degree}"
        )
    return d, ordering


def _color_along(g: Graph, ordering: EliminationOrdering, palette: int, pick) -> Coloring:
    """Color each vertex along the ordering with pick(free), `free` being the
    ascending colors of 1..palette unused by its earlier neighbors.  Raises
    PaletteExhausted when `free` is empty, and ValueError when the ordering
    is one of another graph.
    """
    _check_of(g, ordering)
    colors = [0] * len(ordering.order)
    color_of = colors.__getitem__
    back = ordering.back_nbrs
    palette_colors = frozenset(range(1, palette + 1))
    for v in ordering.order:
        free = sorted(palette_colors.difference(map(color_of, back[v])))
        if not free:
            raise PaletteExhausted(v, palette)
        colors[v] = pick(free)
    return Coloring(colors, palette)


def greedy_color(g: Graph, ordering: EliminationOrdering, palette: int) -> Coloring:
    """Color along the ordering, always the smallest color free of earlier
    neighbors.  Raises PaletteExhausted when no color in 1..palette is free.
    """
    return _color_along(g, ordering, palette, min)
