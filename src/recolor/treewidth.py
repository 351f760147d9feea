"""Tree decompositions and the same-color merge construction.

`merge_by_coloring` collapses vertices that share a color and a bag
under a given proper coloring, in one union pass over the bags whose
result does not depend on bag order, then saturates every (quotient) bag
into a clique.  The result is a chordal graph whose degeneracy is at
most the decomposition width, together with the projection map back to
the original vertices.  Because the preimage of every quotient vertex is an
independent set, walks on the quotient expand step-for-fiber into walks
on the original graph.

`validate_decomposition` is one BFS over the bag tree plus O(Σ|B| + m)
membership tests: each vertex's top bag is found in BFS order, and an edge
is covered when the deeper of its ends' top bags holds both.  It lists the
pairs of every bag only to name the first uncovered edge, so a valid input
builds no pair set.

`run_pipeline` strings two such quotients together: recolor alpha-merged
and beta-merged instances toward small greedy colorings, expand both to
the original graph, and (optionally) connect the two small colorings by
an exhaustive-search walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import index
from typing import NamedTuple

from .errors import (
    DisconnectedTrace,
    ImproperEndpoint,
    ImproperInput,
    OracleInfeasible,
    UncoveredEdge,
    UncoveredVertex,
)
from .graphs import Coloring, Graph, greedy_color, is_proper, mcs_peo
from .engine import (
    RecoloringSequence,
    _steps,
    apply_sequence,
    best_choice_sequence,
    reverse_sequence,
)
from . import oracle as _oracle


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags of vertices arranged on a tree (edges over bag indices).  Any
    iterables are accepted and stored as a tuple of frozensets and a tuple
    of pairs, all of ints (`True` reads as 1; a float is a TypeError)."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        bags = tuple(map(frozenset, self.bags))
        if not {int}.issuperset(map(type, chain.from_iterable(bags))):
            bags = tuple([frozenset(map(index, b)) for b in bags])
        edges = tuple(map(tuple, self.tree_edges))
        if not {int}.issuperset(map(type, chain.from_iterable(edges))):
            edges = tuple([tuple(map(index, e)) for e in edges])
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "tree_edges", edges)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _check_tree(td: TreeDecomposition) -> list[tuple[int, int]]:
    """Raise ValueError unless the tree edges form a tree over the bags;
    return its BFS from bag 0 as (bag, parent) pairs, the root's parent -1."""
    k = len(td.bags)
    if k == 0:
        raise ValueError("a decomposition needs at least one bag")
    if len(td.tree_edges) != k - 1:
        raise ValueError("tree_edges must form a tree over the bags")
    nbr: list[list[int]] = [[] for _ in range(k)]
    for i, j in td.tree_edges:
        if not (0 <= i < k and 0 <= j < k) or i == j:
            raise ValueError(f"bad tree edge ({i},{j})")
        nbr[i].append(j)
        nbr[j].append(i)
    seen = [False] * k
    seen[0] = True
    walk = [(0, -1)]
    for i, _ in walk:  # the loop also visits the pairs it appends
        for j in nbr[i]:
            if not seen[j]:
                seen[j] = True
                walk.append((j, i))
    if len(walk) != k:
        raise ValueError("tree_edges must form a tree over the bags")
    return walk


def validate_decomposition(g: Graph, td: TreeDecomposition) -> int:
    """Verify the three decomposition conditions and return the width.

    Raises UncoveredVertex, UncoveredEdge or DisconnectedTrace with a
    witness; malformed bag trees and bag vertex ids outside 0..n-1 raise
    ValueError.
    """
    walk = _check_tree(td)
    n = g.n
    bags = td.bags
    held = frozenset().union(*bags)
    if held and (min(held) < 0 or max(held) >= n):
        i, v = next((i, v) for i, b in enumerate(bags) for v in b if not 0 <= v < n)
        raise ValueError(f"bag {i} holds vertex {v}, outside 0..{n - 1}")
    # Each connected piece of the bags holding v has one top bag, whose
    # parent lacks v; top[v] is the first one met, `again` gets the others.
    top: list[frozenset[int] | None] = [None] * n
    again = []
    for i, p in walk:
        b = bags[i]
        for v in b - bags[p] if p >= 0 else b:
            if top[v] is None:
                top[v] = b
            else:
                again.append(v)
    if None in top:
        raise UncoveredVertex(top.index(None))
    # When both traces are connected, the deeper of their top bags holds
    # both ends of a covered edge; only if that test fails somewhere are
    # the pairs of every bag listed, to name the first uncovered edge.
    if not all(
        u in top[v] for u, (nbrs, b) in enumerate(zip(g.adj, top)) for v in nbrs - b
    ):
        pairs: set[tuple[int, int]] = set()
        for b in bags:
            pairs.update(combinations(sorted(b), 2))
        for e in g.edges():
            if e not in pairs:
                raise UncoveredEdge(e)
    if again:
        raise DisconnectedTrace(min(again))
    return td.width


@dataclass(frozen=True)
class MergeMap:
    """Projection pi from original vertices onto quotient vertices 0..q-1.
    `fibers[i]`, the preimage of i as an ascending tuple, is built from pi at
    construction; a negative id or a member-less quotient vertex is refused."""

    pi: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.pi, default=0) < 0:
            raise ValueError(f"pi maps a vertex to {min(self.pi)}, a negative id")
        fibers: list[list[int]] = [[] for _ in range(max(self.pi, default=-1) + 1)]
        for v, q in enumerate(self.pi):
            fibers[q].append(v)
        if not all(fibers):
            raise ValueError(f"quotient vertex {fibers.index([])} has no members")
        object.__setattr__(self, "fibers", tuple(map(tuple, fibers)))

    @property
    def n_original(self) -> int:
        return len(self.pi)

    @property
    def n_quotient(self) -> int:
        return len(self.fibers)


class MergeResult(NamedTuple):
    graph: Graph
    merge_map: MergeMap
    coloring: Coloring
    decomposition: TreeDecomposition


def merge_by_coloring(g: Graph, td: TreeDecomposition, alpha: Coloring) -> MergeResult:
    """Collapse same-colored vertices sharing a bag, then saturate bags.

    One pass over the bags unites each bag's vertices of one color.  Later
    unions only coarsen classes, so no bag ends up holding two classes of
    one color, and for any bag order the classes are the transitive
    closure of "same color, common bag": the finest partition in which no
    bag holds two classes of one color.  The quotient is relabeled densely
    by smallest original member and each quotient bag completed into a
    clique.  The projected coloring stays proper because only non-adjacent
    same-colored vertices ever merge.
    """
    validate_decomposition(g, td)
    return _merge(g, td, alpha)


def _merge(g: Graph, td: TreeDecomposition, alpha: Coloring) -> MergeResult:
    """`merge_by_coloring` on a decomposition already validated for g."""
    if not is_proper(g, alpha):
        raise ImproperInput("coloring is not proper")
    n = g.n
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    cols = alpha.colors
    for b in td.bags:
        first: dict[int, int] = {}  # color -> a vertex of that color in b
        for v in b:
            w = first.setdefault(cols[v], v)
            if w != v:
                a, c = find(v), find(w)
                if a != c:
                    root[max(a, c)] = min(a, c)  # a class's root stays its smallest id
    # A link points to a smaller member of its class, so an ascending scan
    # numbers a root (its class's least member) before any member after it.
    pi = [0] * n
    reps = []
    for v, r in enumerate(root):
        if r == v:
            pi[v] = len(reps)
            reps.append(v)
        else:
            pi[v] = pi[r]

    # Validation put every edge of g in a bag, so the bag cliques below
    # already hold the projection of every edge; Graph drops repeats.
    project = pi.__getitem__
    new_bags = tuple([frozenset(map(project, b)) for b in td.bags])
    g2 = Graph(len(reps), chain.from_iterable(map(combinations, new_bags, repeat(2))))
    alpha2 = Coloring([cols[rep] for rep in reps], alpha.palette_size)
    td2 = TreeDecomposition(new_bags, td.tree_edges)
    return MergeResult(g2, MergeMap(tuple(pi)), alpha2, td2)


def project_coloring(mm: MergeMap, gamma2: Coloring) -> Coloring:
    """Pull a quotient coloring back to the original vertices."""
    if len(gamma2) != mm.n_quotient:
        raise ValueError(f"coloring covers {len(gamma2)} vertices, quotient has {mm.n_quotient}")
    return Coloring([gamma2.colors[q] for q in mm.pi], gamma2.palette_size)


def expand_sequence(mm: MergeMap, s2: RecoloringSequence) -> RecoloringSequence:
    """Turn a walk on the quotient into a walk on the original graph by
    recoloring each fiber member in ascending order.  The quotient walk is
    assumed valid; fibers are independent sets, so the expanded walk is
    then proper at every intermediate point."""
    start = project_coloring(mm, s2.start)  # checks the walk's size first
    steps = _steps((u, c) for v, c in s2.steps for u in mm.fibers[v])
    return RecoloringSequence(steps, start)


@dataclass(frozen=True)
class PipelineResult:
    """Everything produced by `run_pipeline`.

    alpha_side goes alpha -> gamma1 on the original graph; beta_side goes
    beta -> gamma2.  When the oracle bridge ran, `bridge` holds the gamma1
    -> gamma2 walk and `composed` the full alpha -> beta sequence (beta
    side reversed), both possibly empty; otherwise both are None.
    """

    alpha_side: RecoloringSequence
    beta_side: RecoloringSequence
    gamma1: Coloring
    gamma2: Coloring
    bridge: RecoloringSequence | None
    composed: RecoloringSequence | None
    per_vertex: dict[int, int]

    @property
    def bridge_status(self) -> str:
        return "unavailable" if self.bridge is None else "oracle"

    def to_json_dict(self) -> dict:
        from .io import sequence_to_json

        return {
            "schema_version": 1,
            "bridge_status": self.bridge_status,
            "gamma1": list(self.gamma1.colors),
            "gamma2": list(self.gamma2.colors),
            "alpha_side": sequence_to_json(self.alpha_side),
            "beta_side": sequence_to_json(self.beta_side),
            "bridge": None if self.bridge is None else sequence_to_json(self.bridge),
            "composed": None if self.composed is None else sequence_to_json(self.composed),
            "per_vertex": {str(v): c for v, c in sorted(self.per_vertex.items())},
        }


def _half_sequence(
    merged: MergeResult, k: int, t: int
) -> tuple[RecoloringSequence, Coloring]:
    """Recolor a quotient toward a greedy (k+1)-coloring on palette t, and
    expand back.  Returns the expanded walk and its final (projected)
    coloring."""
    g2, mm, col2, _ = merged
    peo = mcs_peo(g2)
    gamma_small = greedy_color(g2, peo, k + 1).with_palette(t)
    s2 = best_choice_sequence(g2, peo, col2, gamma_small)
    # best_choice_sequence replayed s2 on the quotient and checked its ends
    expanded = expand_sequence(mm, s2)
    return expanded, project_coloring(mm, gamma_small)


def run_pipeline(
    g: Graph,
    td: TreeDecomposition,
    alpha: Coloring,
    beta: Coloring,
    t: int,
    bridge: str = "oracle",
    state_cap: int = _oracle.DEFAULT_STATE_CAP,
) -> PipelineResult:
    """Plan an alpha -> beta recoloring on a graph of treewidth k given a
    width-k decomposition and palette t >= 2k+1.

    Both endpoint colorings are pushed, through their own same-color
    quotients, to greedy (k+1)-colorings gamma1 and gamma2.  With
    bridge="oracle" the two are joined by a shortest walk found by
    exhaustive search (OracleInfeasible if t**n exceeds the cap) and the
    full composition is validated to end exactly at beta (ImproperEndpoint
    otherwise); with bridge="none" the two half-walks are returned on their
    own.  The bridge name, t >= 2k+1 and the oracle's cap are checked
    before anything is merged.
    """
    if bridge not in ("oracle", "none"):
        raise ValueError(f"unknown bridge {bridge!r}")
    k = max(td.width, 0)  # an empty instance has width -1; its halves are empty
    if t < 2 * k + 1:
        validate_decomposition(g, td)  # the width of a malformed one means nothing
        raise ValueError(f"palette {t} too small for width {k}; need >= {2 * k + 1}")
    if bridge == "oracle":
        _oracle._check_cap(g, t, state_cap)
    alpha = alpha.with_palette(t)
    beta = beta.with_palette(t)
    # each merge checks its coloring is proper; the first validates td
    alpha_merged = merge_by_coloring(g, td, alpha)
    beta_merged = _merge(g, td, beta)
    alpha_side, gamma1 = _half_sequence(alpha_merged, k, t)
    beta_side, gamma2 = _half_sequence(beta_merged, k, t)

    if bridge == "none":
        mid = composed = None
        steps = alpha_side.steps + beta_side.steps
    else:
        mid = _oracle.rt_path(g, t, gamma1, gamma2, state_cap)
        if mid is None:
            raise OracleInfeasible("no walk between the two greedy colorings")
        composed_steps = (
            alpha_side.steps + mid.steps + reverse_sequence(beta_side).steps
        )
        composed = RecoloringSequence(composed_steps, alpha)
        end = apply_sequence(g, composed)
        if end.colors != beta.colors:
            raise ImproperEndpoint("composed sequence does not end at beta")
        steps = composed.steps
    per_vertex = {v: 0 for v in range(g.n)}
    for st in steps:
        per_vertex[st.vertex] += 1
    return PipelineResult(
        alpha_side, beta_side, gamma1, gamma2,
        mid, composed, per_vertex,
    )
