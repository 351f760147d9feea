"""Differential test: the one-pass restriction analysis against the
per-vertex rebuilding reference kept in `analysis_reference`."""

from __future__ import annotations

from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    RecoloringSequence,
    RecoloringStep,
    RecolorError,
    analyze_sequence,
    best_choice_sequence,
    degeneracy,
    gen_partial_ktree,
    gen_random_coloring,
    naughty_recolorings,
)

import analysis_reference as ref


@st.composite
def walks(draw, max_n=12, max_steps=40, below_room=False, once=False):
    """A partial k-tree (k = 1..3) under its degeneracy ordering or a
    random one, a palette below, at (most often) or above 2d+1, and a
    walk on it: a constructed valid one, or random steps from a random
    start coloring (mostly invalid walks).

    With `below_room` the palette lies in 1..2d, so vertices with room
    for the spacing and budget checks (t >= 2d'+1 for their own
    back-degree d') and vertices without it mix.  With `once` the walk
    is random steps that recolor no vertex twice."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g, _ = gen_partial_ktree(n, k, seed)
    if draw(st.booleans()):
        d, ordering = degeneracy(g)
    else:
        ordering = EliminationOrdering(g, draw(st.permutations(range(n))))
        d = ordering.max_back_degree
    if below_room:
        assume(d >= 1)
        t = draw(st.integers(min_value=1, max_value=2 * d))
    else:
        palettes = st.integers(min_value=max(d, 1), max_value=2 * d + 3)
        t = draw(st.one_of(st.just(2 * d + 1), palettes))
    if not once and t >= d + 2 and draw(st.booleans()):
        alpha = gen_random_coloring(g, ordering, t, seed + 1)
        beta = gen_random_coloring(g, ordering, t, seed + 2)
        return g, ordering, best_choice_sequence(g, ordering, alpha, beta)
    colors = st.integers(min_value=1, max_value=t)
    start = draw(st.lists(colors, min_size=n, max_size=n))
    # half the steps stay inside one max-back-degree vertex's restriction,
    # so tight recolorings (and coverage gaps around them) turn up
    focus = next(v for v in range(n) if len(ordering.back_nbrs[v]) == d)
    vertices = st.one_of(
        st.integers(min_value=0, max_value=n - 1),
        st.sampled_from((*ordering.back_nbrs[focus], focus)),
    )
    size = draw(st.integers(min_value=0, max_value=max_steps))
    steps = draw(st.lists(st.tuples(vertices, colors), min_size=size, max_size=size))
    if once:  # keep each vertex's first step
        first: dict[int, int] = {}
        for v, c in steps:
            first.setdefault(v, c)
        steps = list(first.items())
    s = RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in steps), Coloring(start, t)
    )
    return g, ordering, s


@st.composite
def clique_lists(draw, g, ordering):
    """None, or cliques to scan as `recolor bench --naughty` samples them:
    the (d-1)-subsets of back-neighbourhoods that are cliques, d being the
    max back-degree; sometimes with a non-clique pair or the empty tuple
    among them."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return None
    size = max(ordering.max_back_degree - 1, 0)
    cliques = sorted({
        c
        for b in ordering.back_nbrs
        for c in combinations(b, size)
        if all(y in g.adj[x] for x, y in combinations(c, 2))
    })
    out = draw(st.lists(st.sampled_from(cliques), max_size=6)) if cliques else []
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        pairs = [(u, v) for u, v in combinations(range(g.n), 2) if v not in g.adj[u]]
        odd = draw(st.sampled_from([(), *pairs]))
        out.insert(draw(st.integers(min_value=0, max_value=len(out))), odd)
    return out


@st.composite
def nonempty_clique_lists(draw, g, ordering):
    """One to six cliques, each a subset of some vertex v with its
    back-neighbourhood, of any size from 1 up."""
    cliques = sorted({
        c
        for v, b in enumerate(ordering.back_nbrs)
        for size in range(1, len(b) + 2)
        for c in combinations((*b, v), size)
        if all(y in g.adj[x] for x, y in combinations(c, 2))
    })
    return draw(st.lists(st.sampled_from(cliques), min_size=1, max_size=6))


def outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, RecolorError) as e:
        return type(e), str(e)


@given(
    st.one_of(walks(), walks(below_room=True), walks(once=True)),
    st.booleans(),
    st.data(),
)
@settings(max_examples=600, deadline=None)
def test_report_matches_reference(case, causation, data):
    g, ordering, s = case
    cliques = data.draw(clique_lists(g, ordering))

    def report(analyze):
        return analyze(g, ordering, s, causation, cliques).to_json_dict()

    assert outcome(report, analyze_sequence) == outcome(report, ref.analyze_sequence)


@given(walks(), st.data())
@settings(max_examples=200, deadline=None)
def test_naughty_scan_matches_reference(case, data):
    g, ordering, s = case
    cliques = data.draw(nonempty_clique_lists(g, ordering))
    report = analyze_sequence(g, ordering, s, naughty_cliques=cliques)
    expected = ref.analyze_sequence(g, ordering, s, naughty_cliques=cliques)
    assert report.stats == expected.stats
    assert report.stats["naughty_cliques"] == len(cliques)


def test_naughty_scan_finds_a_naughty_step():
    # a single recoloring of vertex 0 at t=7 leaves at least three colors
    # free around it, and nothing follows it to cause it
    g = Graph(2, [(0, 1)])
    ordering = EliminationOrdering(g, (0, 1))
    s = RecoloringSequence((RecoloringStep(0, 3),), Coloring((1, 2), 7))
    report = analyze_sequence(g, ordering, s, naughty_cliques=[(0,), (0, 1)])
    expected = ref.analyze_sequence(g, ordering, s, naughty_cliques=[(0,), (0, 1)])
    assert report.stats == expected.stats
    assert report.stats["naughty_max"] == 1


# v = d, the last vertex of K_{d+1}, recolors where the flag is set, a
# member of B = {0, ..., d-1} elsewhere; K_1 has no B, so at d = 0 only
# v's own steps are kept.
@example([False, False, False], 1)  # v never recolored: every step saved
@example([False, True, False, False], 1)  # one recoloring of v
@example([True, False, False, False, True], 1)  # a gap above d
@example([True, False, True, False, False, True], 2)  # gaps below d
@example([True, True], 0)
@example([], 3)
@given(st.lists(st.booleans(), max_size=30), st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_saved_count_matches_reference(own, d):
    g = Graph(d + 1, list(combinations(range(d + 1), 2)))
    ordering = EliminationOrdering(g, range(d + 1))
    t = 2 * d + 1
    vertices = [d if mine else i % d for i, mine in enumerate(own) if mine or d]
    s = RecoloringSequence(
        tuple(RecoloringStep(v, i % t + 1) for i, v in enumerate(vertices)),
        Coloring([1] * (d + 1), t),
    )
    report = analyze_sequence(g, ordering, s).to_json_dict()
    assert report == ref.analyze_sequence(g, ordering, s).to_json_dict()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_naughty_positions_match_reference(data):
    # long walks inside K_q, so that both windows of the scan (3d+4 and
    # 3d-4 steps) reach past the clique's last step and fit inside it
    q = data.draw(st.integers(min_value=1, max_value=4))
    g = Graph(q, list(combinations(range(q), 2)))
    t = data.draw(st.integers(min_value=q, max_value=q + 12))
    start = data.draw(st.lists(st.integers(min_value=1, max_value=t), min_size=q, max_size=q))
    # steps draw from the first `top` colors, so some windows leave
    # exactly three colors free
    top = data.draw(st.integers(min_value=1, max_value=t))
    colors = st.integers(min_value=1, max_value=top)
    size = data.draw(st.integers(min_value=0, max_value=80))
    step = st.tuples(st.integers(min_value=0, max_value=q - 1), colors)
    steps = data.draw(st.lists(step, min_size=size, max_size=size))
    s = RecoloringSequence(tuple(RecoloringStep(v, c) for v, c in steps), Coloring(start, t))
    clique = data.draw(st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, unique=True))
    assert naughty_recolorings(s, g, clique) == ref._naughty(s, g, clique)
