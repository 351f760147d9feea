"""Differential tests: the linear merge and validation against the
rescanning reference versions kept in `treewidth_reference`."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor import (
    DisconnectedTrace,
    Graph,
    RecolorError,
    TreeDecomposition,
    UncoveredEdge,
    degeneracy,
    gen_partial_ktree,
    gen_random_coloring,
    merge_by_coloring,
    validate_decomposition,
)

import treewidth_reference as ref


@st.composite
def merge_cases(draw, max_n=16):
    """A partial k-tree (k = 1..4), its decomposition and a proper
    coloring on a palette of d+1 .. 2k+1 colors, so merges are common."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g, td = gen_partial_ktree(n, k, seed)
    d, ordering = degeneracy(g)
    t = draw(st.integers(min_value=d + 1, max_value=2 * k + 1))
    alpha = gen_random_coloring(g, ordering, t, seed + 1)
    return g, td, alpha


def merged(res):
    return (
        res.merge_map,
        res.graph.n,
        sorted(res.graph.edges()),
        res.coloring,
        res.decomposition,
    )


def outcome(validate, g, td):
    try:
        return validate(g, td)
    except (RecolorError, ValueError) as e:
        return type(e), str(e)


@given(merge_cases())
@settings(max_examples=200, deadline=None)
def test_merge_matches_reference(case):
    g, td, alpha = case
    res = merge_by_coloring(g, td, alpha)
    expected, fibers = ref.merge_by_coloring(g, td, alpha)
    assert merged(res) == merged(expected)
    assert res.merge_map.fibers == fibers


def permuted(td, perm):
    """td with bag perm[i] moved to index i and the tree edges re-indexed."""
    new_index = {old: new for new, old in enumerate(perm)}
    return TreeDecomposition(
        tuple(td.bags[old] for old in perm),
        tuple((new_index[i], new_index[j]) for i, j in td.tree_edges),
    )


@given(merge_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_merge_ignores_bag_order(case, data):
    g, td, alpha = case
    perm = data.draw(st.permutations(range(len(td.bags))))
    shuffled = permuted(td, perm)
    res = merge_by_coloring(g, td, alpha)
    res_p = merge_by_coloring(g, shuffled, alpha)
    assert res_p.merge_map == res.merge_map
    assert sorted(res_p.graph.edges()) == sorted(res.graph.edges())
    assert res_p.coloring == res.coloring
    assert res_p.decomposition.bags == tuple(res.decomposition.bags[old] for old in perm)


@st.composite
def corrupted_decompositions(draw):
    """A valid instance with one to three members dropped from or added
    to bags, or tree edges rewired."""
    g, td, _ = draw(merge_cases(max_n=12))
    bags = [set(b) for b in td.bags]
    tree_edges = list(td.tree_edges)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["drop", "add", "rewire"]))
        i = draw(st.integers(min_value=0, max_value=len(bags) - 1))
        if kind == "drop" and bags[i]:
            bags[i].discard(draw(st.sampled_from(sorted(bags[i]))))
        elif kind == "add":
            bags[i].add(draw(st.integers(min_value=0, max_value=g.n - 1)))
        elif kind == "rewire" and tree_edges:
            e = draw(st.integers(min_value=0, max_value=len(tree_edges) - 1))
            a, _ = tree_edges[e]
            tree_edges[e] = (a, i)
    return g, TreeDecomposition(bags, tree_edges)


@given(corrupted_decompositions())
@settings(max_examples=300, deadline=None)
def test_validation_matches_reference(case):
    g, td = case
    assert outcome(validate_decomposition, g, td) == outcome(ref.validate_decomposition, g, td)


# On the path 0-1 with bags {0}, {1}, {0, 1} in a path, the BFS from bag 0
# makes {0} and {1} the top bags of 0 and 1, neither of which holds the
# edge, so the fast test fails: once on an edge that bag {0, 1} covers
# (the trace of 0 is what is broken), once, without that bag's 1, on an
# edge that no bag covers.
EDGE_01 = Graph(2, [(0, 1)])
COVERED_ELSEWHERE = TreeDecomposition([{0}, {1}, {0, 1}], [(0, 1), (1, 2)])
UNCOVERED = TreeDecomposition([{0}, {1}, {0}], [(0, 1), (1, 2)])


def test_fast_edge_test_falls_back_to_the_bag_pairs():
    with pytest.raises(DisconnectedTrace) as ei:
        validate_decomposition(EDGE_01, COVERED_ELSEWHERE)
    assert ei.value.vertex == 0
    with pytest.raises(UncoveredEdge) as ei:
        validate_decomposition(EDGE_01, UNCOVERED)
    assert ei.value.edge == (0, 1)


@st.composite
def permuted_corruptions(draw):
    g, td = draw(corrupted_decompositions())
    return g, td, draw(st.permutations(range(len(td.bags))))


@given(permuted_corruptions())
@example((EDGE_01, COVERED_ELSEWHERE, (0, 1, 2)))
@example((EDGE_01, UNCOVERED, (0, 1, 2)))
@example((EDGE_01, COVERED_ELSEWHERE, (2, 1, 0)))  # root {0, 1}: the fast test passes
@settings(max_examples=300, deadline=None)
def test_validation_matches_reference_on_permuted_bags(case):
    """Permuting the bags moves the BFS root, and with it each vertex's top
    bag, which the fast edge test reads; the witnesses must not move."""
    g, td, perm = case
    shuffled = permuted(td, perm)
    assert outcome(validate_decomposition, g, shuffled) == outcome(
        ref.validate_decomposition, g, shuffled
    )
