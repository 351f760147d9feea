"""Reference implementations of `validate_decomposition` and
`merge_by_coloring`, kept as the straightforward rescanning versions the
library's linear ones are differential-tested against.

The merge repeats a fixpoint loop: scan bags in index order, merge the
lowest-id same-color pair of classes in the first bag that has one, and
start over, until no bag holds two classes of one color; it returns the
fibers it finds next to the result.  Validation scans every bag for each
edge and runs a BFS over the bag tree for each vertex.
"""

from __future__ import annotations

from collections import deque

from recolor import (
    Coloring,
    DisconnectedTrace,
    Graph,
    ImproperInput,
    MergeMap,
    MergeResult,
    RecolorError,
    TreeDecomposition,
    UncoveredEdge,
    UncoveredVertex,
    is_proper,
)
from recolor.treewidth import _check_tree


def validate_decomposition(g: Graph, td: TreeDecomposition) -> int:
    _check_tree(td)
    covered: set[int] = set()
    for b in td.bags:
        covered |= b
    for v in range(g.n):
        if v not in covered:
            raise UncoveredVertex(v)
    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags):
            raise UncoveredEdge((u, v))
    k = len(td.bags)
    nbr: list[list[int]] = [[] for _ in range(k)]
    for i, j in td.tree_edges:
        nbr[i].append(j)
        nbr[j].append(i)
    for v in range(g.n):
        holding = [i for i, b in enumerate(td.bags) if v in b]
        if not holding:
            continue
        seen = {holding[0]}
        queue = deque([holding[0]])
        hold = set(holding)
        while queue:
            i = queue.popleft()
            for j in nbr[i]:
                if j in hold and j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != len(holding):
            raise DisconnectedTrace(v)
    return td.width


def merge_by_coloring(
    g: Graph, td: TreeDecomposition, alpha: Coloring
) -> tuple[MergeResult, tuple[tuple[int, ...], ...]]:
    """The merge, plus each quotient vertex's members in ascending order."""
    validate_decomposition(g, td)
    if not is_proper(g, alpha):
        raise ImproperInput("alpha is not proper")
    n = g.n
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    def bag_classes(b: frozenset[int]) -> list[int]:
        return sorted({find(v) for v in b})

    while True:
        pair = None
        for b in td.bags:
            classes = bag_classes(b)
            by_color: dict[int, list[int]] = {}
            for cl in classes:
                by_color.setdefault(alpha[cl], []).append(cl)
            best = None
            for members in by_color.values():
                if len(members) >= 2:
                    cand = (members[0], members[1])
                    if best is None or cand < best:
                        best = cand
            if best is not None:
                pair = best
                break
        if pair is None:
            break
        a, b2 = pair
        root[b2] = a  # classes keep their smallest original id as root
    reps = sorted({find(v) for v in range(n)})
    index = {rep: i for i, rep in enumerate(reps)}
    pi = tuple(index[find(v)] for v in range(n))
    # each class's members, read off the union-find rather than off pi
    fibers = tuple(tuple(v for v in range(n) if find(v) == rep) for rep in reps)

    edges = set()
    for u, v in g.edges():
        pu, pv = pi[u], pi[v]
        if pu != pv:
            edges.add((min(pu, pv), max(pu, pv)))
    new_bags = []
    for b in td.bags:
        q = sorted({pi[v] for v in b})
        new_bags.append(frozenset(q))
        for i in range(len(q)):
            for j in range(i + 1, len(q)):
                edges.add((q[i], q[j]))
    g2 = Graph(len(reps), edges)
    alpha2 = Coloring([alpha[rep] for rep in reps], alpha.palette_size)
    td2 = TreeDecomposition(tuple(new_bags), td.tree_edges)
    if not is_proper(g2, alpha2):
        raise RecolorError("projected coloring became improper; input was inconsistent")
    return MergeResult(g2, MergeMap(pi), alpha2, td2), fibers
