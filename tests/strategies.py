"""Shared hypothesis strategies: small random instances with endpoints."""

from __future__ import annotations

from hypothesis import strategies as st

from recolor import (
    Coloring,
    Graph,
    gen_chordal,
    gen_instance,
    gen_ktree,
    gen_random_coloring,
    mcs_peo,
)
from recolor.generators import FAMILIES


@st.composite
def ktree_instances(draw, max_n=12, max_k=3):
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_ktree(n, k, seed)


@st.composite
def chordal_instances(draw, max_n=12, max_d=3):
    d = draw(st.integers(min_value=1, max_value=max_d))
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_chordal(n, d, seed)


@st.composite
def small_graphs(draw, max_n=7):
    """Arbitrary small graphs (not necessarily chordal)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, picks)


@st.composite
def engine_cases(draw, max_n=10, max_k=2, tight_palette=False):
    """(graph, ordering, t, alpha, beta) ready for sequence construction.

    With tight_palette=True the palette is pinned to 2d+1 (the regime in
    which all structural guarantees apply); otherwise t ranges over
    d+2 .. 2d+2.
    """
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g, ordering, _, d = gen_instance(family, n, k, seed)
    d = max(d, 1)
    if tight_palette:
        t = 2 * d + 1
    else:
        extra = draw(st.integers(min_value=2, max_value=d + 2))
        t = d + extra
    alpha = gen_random_coloring(g, ordering, t, seed + 1)
    beta = gen_random_coloring(g, ordering, t, seed + 2)
    return g, ordering, t, alpha, beta
