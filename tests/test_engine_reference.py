"""Differential tests: the order-maintained walk construction against the
tuple-rescanning splice kept in `engine_reference`, and the relabelling
cost of the walk's order labels."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    EmptyValidSet,
    Graph,
    RecoloringSequence,
    degeneracy,
    engine,
    gen_chordal,
    gen_instance,
    gen_random_coloring,
    mcs_peo,
)
from recolor.generators import FAMILIES

import engine_reference as ref


@st.composite
def cases(draw, max_n=24):
    """A `gen_instance` graph (k = 1..4) under a perfect ordering (the
    instance's own or `mcs_peo`, on the chordal families) or a degeneracy
    ordering, with endpoints colored along it from a palette of d+1 to
    2d+2 colors, d being the ordering's max back-degree.  Below d+2 the
    construction may run out of valid colors."""
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g, ordering, _, _ = gen_instance(family, n, k, seed)
    orderings = [ordering, degeneracy(g)[1]]
    if family != "partial-ktree":
        orderings.append(mcs_peo(g))
    ordering = draw(st.sampled_from(orderings))
    d = max(ordering.max_back_degree, 1)
    t = draw(st.integers(min_value=d + 1, max_value=2 * d + 2))
    alpha = gen_random_coloring(g, ordering, t, seed + 1)
    beta = gen_random_coloring(g, ordering, t, seed + 2)
    return g, ordering, alpha, beta


def outcome(build, g, ordering, alpha, beta):
    stats: dict = {}
    try:
        s = build(g, ordering, alpha, beta, stats)
    except EmptyValidSet as e:
        return type(e), str(e), e.vertex, e.step_index
    return s, stats.get("rule1_blocked", 0)


@given(cases(), st.sampled_from((1, 3, engine._SPACING)))
@settings(max_examples=400, deadline=None)
def test_best_choice_sequence_matches_reference(case, spacing):
    # a tight spacing of appended steps makes most insertions relabel
    saved, engine._SPACING = engine._SPACING, spacing
    try:
        got = outcome(engine.best_choice_sequence, *case)
    finally:
        engine._SPACING = saved
    assert got == outcome(ref.best_choice_sequence, *case)


@given(cases(max_n=12))
@settings(max_examples=150, deadline=None)
def test_local_best_choice_on_sequences_matches_reference(case):
    # one walk, spliced vertex by vertex, checked after every splice
    g, ordering, alpha, beta = case
    walk = engine._Walk(alpha)
    r = RecoloringSequence((), alpha)
    for v in ordering.order:
        args = (g, v, ordering.back_nbrs[v])
        try:
            expected = ref.local_best_choice(*args, r, alpha[v], beta[v])
        except EmptyValidSet as e:
            try:
                engine.local_best_choice(*args, walk, beta[v])
            except EmptyValidSet as f:
                assert (str(f), f.vertex, f.step_index) == (str(e), e.vertex, e.step_index)
                return
            raise AssertionError("expected EmptyValidSet")
        engine.local_best_choice(*args, walk, beta[v])
        r = expected
        assert walk.sequence() == r


@given(
    st.integers(min_value=1, max_value=6),
    st.sets(st.integers(min_value=1, max_value=6)),
    st.lists(st.integers(min_value=1, max_value=6), max_size=10),
)
@settings(max_examples=400, deadline=None)
def test_select_best_choice_matches_reference(target, valid, future):
    def choose(select):
        stats: dict = {}
        try:
            return select(target, valid, future, stats), stats
        except EmptyValidSet as e:
            return type(e), str(e)

    assert choose(engine.select_best_choice) == choose(ref.select_best_choice)


def star_walk(n):
    """The centre of K_{1,n-1} first, alpha = (1, 2, ..., 2) and
    beta = (2, 1, ..., 1) with t = 3: every leaf inserts its first step
    into the same gap, just before the centre's step."""
    g = Graph(n, [(0, v) for v in range(1, n)])
    ordering = EliminationOrdering(g, tuple(range(n)))
    alpha = Coloring((1,) + (2,) * (n - 1), 3)
    beta = Coloring((2,) + (1,) * (n - 1), 3)
    walk = engine._Walk(alpha)
    for v in ordering.order:
        engine.local_best_choice(g, v, ordering.back_nbrs[v], walk, beta[v])
    return g, ordering, alpha, beta, walk


def test_star_relabelling_is_near_linear():
    *_, walk = star_walk(16000)
    L = len(walk.sequence())
    assert L == 2 * 16000 - 1
    assert walk.relabelled <= L * math.ceil(math.log2(L))
    labels = [walk.label[x] for x in walk]
    assert all(a < b for a, b in zip(labels, labels[1:]))


def test_star_walk_matches_reference():
    g, ordering, alpha, beta, walk = star_walk(300)
    assert walk.sequence() == ref.best_choice_sequence(g, ordering, alpha, beta)


@pytest.mark.parametrize("rule", ["d+2", "2d+1"])
@pytest.mark.parametrize("seed", [1, 2])
def test_best_choice_sequence_matches_reference_at_benchmark_scale(seed, rule):
    # chordal inputs of benchmark shape under mcs_peo, where hundreds of
    # vertices must move and take the sorting splice
    g = gen_chordal(300, 3, seed).graph
    ordering = mcs_peo(g)
    d = ordering.max_back_degree
    t = d + 2 if rule == "d+2" else 2 * d + 1
    alpha = gen_random_coloring(g, ordering, t, seed + 10)
    beta = gen_random_coloring(g, ordering, t, seed + 20)
    got = outcome(engine.best_choice_sequence, g, ordering, alpha, beta)
    assert got == outcome(ref.best_choice_sequence, g, ordering, alpha, beta)
    s, blocked = got
    assert len(s) > 0 and blocked > 0
