"""Seeded random instance generators.

All generators take an integer seed and are deterministic for a given
(seed, parameters) pair; randomness comes from a private random.Random.
"""

from __future__ import annotations

import random
from itertools import combinations, repeat
from operator import index
from typing import NamedTuple

from .errors import InvalidParams
from .graphs import Coloring, EliminationOrdering, Graph, _color_along, degeneracy
from .treewidth import TreeDecomposition


class KTreeInstance(NamedTuple):
    graph: Graph
    decomposition: TreeDecomposition
    ordering: EliminationOrdering


def gen_ktree(n: int, k: int, seed: int) -> KTreeInstance:
    """Random k-tree: start from K_{k+1}, then attach each new vertex to a
    uniformly random existing k-clique.

    Every (k+1)-clique becomes a bag; each new bag hangs off a bag
    containing its attachment clique, giving a width-k decomposition.
    The construction order is returned as the elimination ordering: each
    vertex's earlier neighbors are exactly its attachment clique, so all
    back-neighborhoods are cliques of size at most k.
    """
    if k < 0 or n < k + 1:
        raise InvalidParams(f"need n >= k+1 >= 1, got n={n}, k={k}")
    rng = random.Random(seed)
    base = tuple(range(k + 1))
    edges = [(u, v) for u, v in combinations(base, 2)]
    bags: list[frozenset[int]] = [frozenset(base)]
    tree_edges: list[tuple[int, int]] = []
    # every k-clique of the graph so far, with a bag index containing it
    cliques: list[tuple[tuple[int, ...], int]] = [
        (c, 0) for c in combinations(base, k)
    ]
    for v in range(k + 1, n):
        clique, parent_bag = cliques[rng.randrange(len(cliques))]
        edges.extend(zip(clique, repeat(v)))
        new_bag = frozenset(clique) | {v}
        bags.append(new_bag)
        bag_idx = len(bags) - 1
        tree_edges.append((parent_bag, bag_idx))
        if k >= 1:
            for sub in combinations(clique, k - 1):
                cliques.append(((*sub, v), bag_idx))  # v exceeds every earlier id
    g = Graph(n, edges)
    ordering = EliminationOrdering(g, range(n))
    td = TreeDecomposition(tuple(bags), tuple(tree_edges))
    return KTreeInstance(g, td, ordering)


class ChordalInstance(NamedTuple):
    graph: Graph
    ordering: EliminationOrdering


def gen_chordal(n: int, d: int, seed: int) -> ChordalInstance:
    """Random connected chordal graph of degeneracy at most d.

    Builds like a k-tree but each new vertex attaches to a random-size
    (1..d) sub-clique of a random existing clique, so bag sizes vary and
    the result is not necessarily a k-tree.
    """
    if d < 1 or n < 1:
        raise InvalidParams(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = random.Random(seed)
    m0 = min(d + 1, n)
    edges = [(u, v) for u, v in combinations(range(m0), 2)]
    cliques: list[tuple[int, ...]] = [
        c for r in range(1, m0 + 1) for c in combinations(range(m0), r)
    ]
    for v in range(m0, n):
        cl = cliques[rng.randrange(len(cliques))]
        q = rng.randint(1, min(d, len(cl)))
        attach = tuple(sorted(rng.sample(cl, q)))
        edges.extend(zip(attach, repeat(v)))
        # the sub-cliques holding v, ascending as v exceeds every earlier id
        cliques.extend((*c, v) for r in range(q + 1) for c in combinations(attach, r))
    g = Graph(n, edges)
    ordering = EliminationOrdering(g, range(n))
    return ChordalInstance(g, ordering)


class PartialKTreeInstance(NamedTuple):
    graph: Graph
    decomposition: TreeDecomposition


def gen_partial_ktree(
    n: int, k: int, seed: int, keep_prob: float | None = None
) -> PartialKTreeInstance:
    """Random subgraph of a random k-tree, with the parent decomposition.

    Each edge survives independently with probability keep_prob (drawn
    from [0.5, 0.9] when not given).  The k-tree's decomposition remains
    valid for the subgraph.  A keep_prob outside [0, 1] raises InvalidParams,
    and a seed that is not an integer TypeError.
    """
    if keep_prob is not None and not 0 <= keep_prob <= 1:
        raise InvalidParams(f"keep_prob must lie in [0, 1], got {keep_prob}")
    try:
        seed = index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    g, td, _ = gen_ktree(n, k, seed)
    rng = random.Random(seed ^ 0x5EED)
    p = keep_prob if keep_prob is not None else rng.uniform(0.5, 0.9)
    kept = [(u, v) for u, v in g.edges() if rng.random() < p]
    return PartialKTreeInstance(Graph(n, kept), td)


FAMILIES = ("ktree", "chordal", "partial-ktree")


def gen_instance(family: str, n: int, k: int, seed: int):
    """One instance of a named family: (graph, ordering, decomposition or
    None, d), d being the ordering's max back-degree.

    k is the width for "ktree" and "partial-ktree" and the degeneracy cap
    for "chordal"; a partial k-tree is ordered by degeneracy.
    """
    if family == "ktree":
        g, td, ordering = gen_ktree(n, k, seed)
        return g, ordering, td, ordering.max_back_degree
    if family == "chordal":
        g, ordering = gen_chordal(n, k, seed)
        return g, ordering, None, ordering.max_back_degree
    if family == "partial-ktree":
        g, td = gen_partial_ktree(n, k, seed)
        d, ordering = degeneracy(g)
        return g, ordering, td, d
    raise InvalidParams(f"unknown family {family!r}")


def gen_random_coloring(
    g: Graph, ordering: EliminationOrdering, t: int, seed: int
) -> Coloring:
    """Uniformly random choice among free colors, vertex by vertex along
    the ordering.  Raises PaletteExhausted when some vertex has no free
    color left."""
    return _color_along(g, ordering, t, random.Random(seed).choice)
