"""Readers and writers for the on-disk formats.

Graphs travel either as plain text ("n m" header then one "u v" line per
edge, 0-based) or as JSON {"n": ..., "adj": [[...], ...]}, each edge
listed at both ends.  Colorings are JSON arrays of 1-based colors.
Decompositions are {"bags": [[...], ...], "tree_edges": [[i, j], ...]}.
Sequences are {"palette": t, "start": [...], "steps": [[vertex, color],
...]}.

`read_graph` sniffs the format and also accepts a generator bundle (a
JSON object with a "graph" key), so files written by `recolor gen` can be
fed straight back into the other subcommands.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidParams
from .graphs import Coloring, EliminationOrdering, Graph
from .engine import RecoloringSequence, RecoloringStep
from .treewidth import TreeDecomposition

# Graph(n) allocates n adjacency sets before any edge is read.
MAX_VERTICES = 10**6


def _int(x) -> int:
    """x, as JSON ids and colors are read: InvalidParams for anything but a
    JSON integer, a string, a float or a boolean included."""
    if type(x) is not int:
        raise InvalidParams(f"expected an integer, got {x!r}")
    return x


def _vertex_count(n: int) -> int:
    if n > MAX_VERTICES:
        raise InvalidParams(f"n = {n} exceeds the limit of {MAX_VERTICES} vertices")
    return n


def _array(obj, what: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise InvalidParams(f"{what} must be a JSON array")
    return obj


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise InvalidParams(f"{what} must be a JSON object")
    return obj


def _ints(obj, what: str) -> list[int]:
    return [_int(x) for x in _array(obj, what)]


def _pairs(obj, what: str) -> list[tuple[int, int]]:
    pairs = [_ints(p, f"each of {what}") for p in _array(obj, what)]
    if any(len(p) != 2 for p in pairs):
        raise InvalidParams(f"each of {what} must be a pair")
    return [(a, b) for a, b in pairs]


def _load(text: str, key: str | None = None):
    """Parse JSON text; a JSON object holding `key` (a bundle written by
    `recolor gen`) stands for its value under that key."""
    obj = json.loads(text)
    if key is not None and isinstance(obj, dict) and key in obj:
        return obj[key]
    return obj


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    tokens = text.split()
    for token in tokens:
        # int() alone would also take "+2", "1_0" and non-ASCII digits
        if not (token.isascii() and token.removeprefix("-").isdigit()):
            raise InvalidParams(f"graph text: {token!r} is not a decimal integer")
    nums = list(map(int, tokens))
    if len(nums) < 2:
        raise InvalidParams("graph text needs an 'n m' header")
    n, m = _vertex_count(nums[0]), nums[1]
    ends = nums[2:]
    if len(ends) != 2 * m:
        raise InvalidParams(f"expected {m} edges, found {len(ends) // 2}")
    return Graph(n, zip(ends[::2], ends[1::2]))


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "adj": [sorted(s) for s in g.adj]}


def graph_from_json(obj: dict) -> Graph:
    n = _vertex_count(_int(_object(obj, "graph JSON")["n"]))
    if "adj" in obj:
        adj = [_ints(nbrs, "each of 'adj'") for nbrs in _array(obj["adj"], "'adj'")]
        if len(adj) != n:
            raise InvalidParams(f"'adj' holds {len(adj)} lists, expected n = {n}")
        edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs]
        # ids outside 0..n-1 are left for Graph to reject
        listed = [set(nbrs) for nbrs in adj]
        for u, v in edges:
            if 0 <= v < n and u not in listed[v]:
                raise InvalidParams(
                    f"'adj' lists {v} as a neighbor of {u} but not {u} of {v}"
                )
    elif "edges" in obj:
        edges = _pairs(obj["edges"], "'edges'")
    else:
        raise InvalidParams("graph JSON needs 'adj' or 'edges'")
    return Graph(n, edges)


def read_graph(path: str | Path) -> Graph:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return graph_from_json(_load(text, "graph"))
    return graph_from_text(text)


def coloring_from_json(obj: list, palette: int) -> Coloring:
    return Coloring(_ints(obj, "a coloring file"), palette)


def read_coloring(path: str | Path, palette: int) -> Coloring:
    return coloring_from_json(_load(Path(path).read_text()), palette)


def decomposition_to_json(td: TreeDecomposition) -> dict:
    return {
        "bags": [sorted(b) for b in td.bags],
        "tree_edges": [list(e) for e in td.tree_edges],
    }


def decomposition_from_json(obj: dict) -> TreeDecomposition:
    obj = _object(obj, "decomposition JSON")
    bags = [_ints(b, "each of 'bags'") for b in _array(obj["bags"], "'bags'")]
    return TreeDecomposition(bags, _pairs(obj["tree_edges"], "'tree_edges'"))


def read_decomposition(path: str | Path) -> TreeDecomposition:
    return decomposition_from_json(_load(Path(path).read_text(), "decomposition"))


def ordering_to_json(ordering: EliminationOrdering) -> dict:
    return {"order": list(ordering.order), "perfect": ordering.perfect}


def read_ordering(path: str | Path, g: Graph) -> EliminationOrdering:
    obj = _load(Path(path).read_text(), "ordering")
    order = obj["order"] if isinstance(obj, dict) else obj
    return EliminationOrdering(g, _ints(order, "an ordering"))


def sequence_to_json(s: RecoloringSequence) -> dict:
    return {
        "palette": s.palette_size,
        "start": list(s.start.colors),
        "steps": [[st.vertex, st.new_color] for st in s.steps],
    }


def sequence_from_json(obj: dict) -> RecoloringSequence:
    palette = _int(_object(obj, "sequence JSON")["palette"])
    start = Coloring(_ints(obj["start"], "'start'"), palette)
    steps = tuple(RecoloringStep(v, c) for v, c in _pairs(obj["steps"], "'steps'"))
    return RecoloringSequence(steps, start)


def read_sequence(path: str | Path) -> RecoloringSequence:
    return sequence_from_json(_load(Path(path).read_text()))
