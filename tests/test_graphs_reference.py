"""Differential tests: the shared peeling and coloring loops against the
separate reference loops kept in `graphs_reference`, and the bucket-queue
peel against the lazy-heap one kept there."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    EliminationOrdering,
    Graph,
    RecolorError,
    degeneracy,
    gen_chordal,
    gen_partial_ktree,
    gen_random_coloring,
    greedy_color,
    mcs_peo,
)
from recolor.graphs import _peel

import graphs_reference as ref


@st.composite
def graphs(draw, max_n=30):
    """An arbitrary graph at a random density (mostly not chordal), a
    `gen_chordal` graph (d = 1..4) or a partial k-tree (k = 1..4)."""
    kind = draw(st.sampled_from(["arbitrary", "chordal", "partial-ktree"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "arbitrary":
        n = draw(st.integers(min_value=0, max_value=max_n))
        p = draw(st.floats(min_value=0.0, max_value=1.0))
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, [e for e in pairs if rng.random() < p])
    k = draw(st.integers(min_value=1, max_value=4))
    if kind == "chordal":
        return gen_chordal(draw(st.integers(min_value=1, max_value=max_n)), k, seed).graph
    return gen_partial_ktree(draw(st.integers(min_value=k + 1, max_value=max_n)), k, seed).graph


def outcome(f, *args):
    """f's result, with an ordering's `perfect` flag beside it (ordering
    equality ignores it), or the type and message of its RecolorError."""
    try:
        res = f(*args)
    except RecolorError as e:
        return type(e), str(e)
    if isinstance(res, tuple):  # degeneracy: (d, ordering)
        return res, res[1].perfect
    if isinstance(res, EliminationOrdering):
        return res, res.perfect
    return res


@given(graphs())
@settings(max_examples=400, deadline=None)
def test_orderings_match_reference(g):
    assert outcome(mcs_peo, g) == outcome(ref.mcs_peo, g)
    assert outcome(degeneracy, g) == outcome(ref.degeneracy, g)


@st.composite
def peel_graphs(draw):
    """`graphs()`, or one of the shapes that size the bucket array: no
    vertex, one vertex, no edge, a star (max degree n - 1), and chordal
    and partial k-tree graphs of benchmark shape (d and k of 2 or 3)."""
    kind = draw(st.sampled_from(
        ["drawn", "empty", "single", "edgeless", "star", "chordal", "partial-ktree"]
    ))
    n = draw(st.integers(min_value=2, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    k = draw(st.integers(min_value=2, max_value=3))
    if kind == "drawn":
        return draw(graphs())
    if kind in ("empty", "single"):
        return Graph(0 if kind == "empty" else 1)
    if kind == "edgeless":
        return Graph(n)
    if kind == "star":
        centre = draw(st.integers(min_value=0, max_value=n - 1))
        return Graph(n, [(centre, v) for v in range(n) if v != centre])
    if kind == "chordal":
        return gen_chordal(n, k, seed).graph
    return gen_partial_ktree(max(n, k + 1), k, seed, 0.7).graph


@given(peel_graphs(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_peel_matches_reference(g, by_degree):
    # maximum cardinality search starts every key at 0, degeneracy at the degree
    key = [g.degree(v) for v in range(g.n)] if by_degree else [0] * g.n
    ref_key = list(key)
    assert _peel(g, key) == ref._peel(g, ref_key)
    assert key == ref_key


@given(graphs(), st.booleans(), st.data())
@settings(max_examples=400, deadline=None)
def test_colorings_match_reference(g, by_degeneracy, data):
    if by_degeneracy:
        _, ordering = degeneracy(g)
    else:
        ordering = EliminationOrdering(g, data.draw(st.permutations(range(g.n))))
    d = ordering.max_back_degree
    palette = data.draw(st.integers(min_value=1, max_value=d + 2))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    assert outcome(greedy_color, g, ordering, palette) == outcome(
        ref.greedy_color, g, ordering, palette
    )
    assert outcome(gen_random_coloring, g, ordering, palette, seed) == outcome(
        ref.gen_random_coloring, g, ordering, palette, seed
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", ["chordal", "partial-2tree"])
def test_orderings_match_reference_at_benchmark_scale(family, seed):
    # at n=1000 the integer heap keys key * n + v span a range the
    # hypothesis graphs (n <= 30) barely reach; a partial 2-tree is mostly
    # not chordal, so mcs_peo's NotChordal witness is compared too
    if family == "chordal":
        g = gen_chordal(1000, 3, seed).graph
    else:
        g = gen_partial_ktree(1000, 2, seed).graph
    assert outcome(mcs_peo, g) == outcome(ref.mcs_peo, g)
    assert outcome(degeneracy, g) == outcome(ref.degeneracy, g)
