"""Differential tests: the two-ended `rt_distance` and `rt_path`, the
whole-space `_Space.bfs`, `frozen_states`, `rt_connected` and
`rt_diameter`, against the one-ended BFS and move scan kept in
`oracle_reference`."""

from __future__ import annotations

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    enumerate_colorings,
    frozen_states,
    gen_ktree,
    gen_partial_ktree,
    iter_colorings,
    rt_connected,
    rt_diameter,
    rt_distance,
    rt_path,
)
from recolor.oracle import _Space

import oracle_reference as ref
from strategies import small_graphs


@st.composite
def oracle_cases(draw):
    """A small graph, k-tree or partial k-tree (n <= 8, k <= 3), a palette
    of k+1 .. k+3 colors and two of its proper colorings; the target is
    sometimes the last coloring in lexicographic order, far from most
    starts.  Spaces at t = k+1 are often disconnected."""
    k = draw(st.integers(min_value=1, max_value=3))
    family = draw(st.sampled_from(("small", "ktree", "partial-ktree")))
    if family == "small":
        g = draw(small_graphs(max_n=6))
    else:
        n = draw(st.integers(min_value=k + 1, max_value=8))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        gen = gen_ktree if family == "ktree" else gen_partial_ktree
        g = gen(n, k, seed).graph
    t = draw(st.integers(min_value=k + 1, max_value=k + 3))
    states = list(iter_colorings(g, t))
    assume(states)
    alpha = draw(st.sampled_from(states))
    beta = states[-1] if draw(st.booleans()) else draw(st.sampled_from(states))
    return g, t, Coloring(alpha, t), Coloring(beta, t)


@given(oracle_cases())
@settings(max_examples=200, deadline=None)
def test_distance_and_path_match_reference(case):
    g, t, alpha, beta = case
    assert rt_distance(g, t, alpha, beta) == ref.rt_distance(g, t, alpha, beta)
    got, want = rt_path(g, t, alpha, beta), ref.rt_path(g, t, alpha, beta)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.start == want.start
        assert got.steps == want.steps


# one BFS per state: keep the reference all-pairs search small
DIAMETER_STATES = 200


@given(oracle_cases())
@settings(max_examples=100, deadline=None)
def test_whole_space_queries_match_reference(case):
    g, t, _, _ = case
    assert frozen_states(g, t) == ref.frozen_states(g, t)
    assert rt_connected(g, t) == ref.rt_connected(g, t)
    if enumerate_colorings(g, t) <= DIAMETER_STATES:
        assert rt_diameter(g, t) == ref.rt_diameter(g, t)


def test_oracle_cases_draw_frozen_states():
    # t = k+1 on a k-tree freezes every coloring: each vertex sits in a
    # (k+1)-clique that uses all k+1 colors
    g, t, _, _ = find(oracle_cases(), lambda case: frozen_states(case[0], case[1]))
    assert frozen_states(g, t) == ref.frozen_states(g, t)


# The benchmark's regime: 9 vertices at t=5, where one reference BFS over
# the 43,740 colorings of a 2-tree takes a few tenths of a second.  The target
# is the last state the reference BFS discovers, so both searches cover
# nearly the whole space.
@pytest.mark.parametrize(
    "graph",
    [gen_ktree(9, 2, 3).graph, gen_partial_ktree(9, 2, 2, 0.7).graph],
    ids=["2-tree", "partial-2-tree"],
)
def test_searches_match_reference_at_nine_vertices(graph):
    t = 5
    sp = _Space(graph, t)
    alpha = next(iter_colorings(graph, t))
    want = ref.bfs(sp, alpha)
    got = sp.bfs(alpha)
    assert list(got.items()) == list(want.items())
    last = list(want)[-1]
    beta = Coloring(tuple(last // p % t + 1 for p in sp.pw), t)
    a = Coloring(alpha, t)
    assert rt_distance(graph, t, a, beta) == ref.rt_distance(graph, t, a, beta) == want[last]
    assert rt_path(graph, t, a, beta).steps == ref.rt_path(graph, t, a, beta).steps
