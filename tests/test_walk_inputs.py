"""Walk functions reject mismatched sizes and out-of-range step vertices
with ValueError or a library error, never IndexError or KeyError."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    MergeMap,
    RecolorError,
    RecoloringSequence,
    RecoloringStep,
    analyze_sequence,
    apply_sequence,
    best_choice_sequence,
    certify_perfect,
    expand_sequence,
    gen_random_coloring,
    greedy_color,
    naughty_recolorings,
    per_vertex_counts,
    project_coloring,
    reverse_sequence,
)

T = 3


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def call(name, n_graph, n_order, n_walk, steps, pi):
    """Run one walk function on a path of n_graph vertices, an ordering of
    a path of n_order vertices, a walk over n_walk vertices and the merge
    map MergeMap(pi)."""
    g = path(n_graph)
    ordering = EliminationOrdering.from_order(path(n_order), range(n_order))
    start = Coloring([1 + v % 2 for v in range(n_walk)], T)
    if name == "build":
        return best_choice_sequence(g, ordering, start, start)
    if name == "certify":
        return certify_perfect(g, ordering)
    if name == "project":
        return project_coloring(MergeMap(tuple(pi)), start)
    s = RecoloringSequence(tuple(RecoloringStep(v, c) for v, c in steps), start)
    if name == "apply":
        return apply_sequence(g, s)
    if name == "reverse":
        return reverse_sequence(s)
    if name == "counts":
        return per_vertex_counts(s)
    if name == "analyze":
        return analyze_sequence(g, ordering, s)
    if name == "naughty":
        return naughty_recolorings(s, g, range(max(n_graph - 2, 0), n_graph))
    assert name == "expand"
    return expand_sequence(MergeMap(tuple(pi)), s)


sizes = st.integers(min_value=0, max_value=5)


# The seven calls that escaped as IndexError or KeyError: an ordering built
# for another size (build, analyze), a graph larger than the walk's
# coloring, an ordering that misses a stepped vertex, and a step vertex
# outside the walk (counts, reverse, expand).  A clique scan over a graph
# larger than the walk's coloring escaped the same way, and so did
# certify_perfect with an ordering of another size.  A merge map with a
# negative id or a quotient vertex without members is refused when built.
@example("build", 3, 4, 3, [], [])
@example("analyze", 3, 4, 3, [], [])
@example("analyze", 4, 4, 3, [], [])
@example("analyze", 4, 3, 4, [(3, 3)], [])
@example("counts", 3, 3, 3, [(3, 2)], [])
@example("reverse", 3, 3, 3, [(3, 2)], [])
@example("expand", 3, 3, 3, [(3, 2)], [0, 1, 2])
@example("naughty", 4, 4, 3, [], [])
@example("certify", 3, 4, 3, [], [])
@example("certify", 4, 3, 3, [], [])
@example("project", 0, 0, 3, [], [0, -1, 1])
@example("expand", 0, 0, 2, [(1, 2)], [0, 2, 2])
@example("expand", 0, 0, 2, [(1, 3)], [1, 0, 1])
@given(
    st.sampled_from(
        ("build", "apply", "reverse", "counts", "analyze", "naughty", "expand",
         "certify", "project")
    ),
    sizes,
    sizes,
    sizes,
    st.lists(
        st.tuples(st.integers(min_value=-2, max_value=7), st.integers(1, T)),
        max_size=6,
    ),
    st.lists(st.integers(min_value=-1, max_value=4), max_size=5),
)
@settings(max_examples=400, deadline=None)
def test_bad_sizes_and_ids_raise_library_errors(name, n_graph, n_order, n_walk, steps, pi):
    try:
        call(name, n_graph, n_order, n_walk, steps, pi)
    except (ValueError, RecolorError):
        pass


@pytest.mark.parametrize("name", ["build", "analyze"])
@pytest.mark.parametrize(
    "change",
    [
        {"order": (0, 1)},
        {"back_nbrs": ((), (0,))},
        {"back_nbrs": ((), (0,), (1,), (2,))},
        {"order": (0, 1, 2, 3), "perfect": True},
    ],
)
def test_ordering_fields_of_different_lengths_rejected(name, change):
    """A hand-built ordering whose order and back_nbrs differ in length is
    refused before it reaches a walk function."""
    g = path(3)
    ordering = EliminationOrdering.from_order(g, range(3))
    start = Coloring([1, 2, 1], T)
    with pytest.raises(ValueError, match="ordering fields differ in length"):
        bad = dataclasses.replace(ordering, **change)
        if name == "build":
            best_choice_sequence(g, bad, start, start)
        else:
            analyze_sequence(g, bad, RecoloringSequence((RecoloringStep(2, 3),), start))


@pytest.mark.parametrize("order", [(0, 0, 1), (2, 2, 2), (0, 1, 3), (-1, 0, 1)])
def test_order_that_is_not_a_permutation_rejected(order):
    """A hand-built ordering of the path 0-1-2 whose order repeats a vertex
    or leaves 0..2 used to reach the walk functions: best_choice_sequence
    failed in its own replay (NullStep, ImproperIntermediate) and
    analyze_sequence passed.  Both constructors now refuse it."""
    with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.n-1$"):
        EliminationOrdering(order, ((), (0,), (1,)))
    with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.n-1$"):
        EliminationOrdering.from_order(path(3), order)


@pytest.mark.parametrize("name", ["build", "analyze"])
@pytest.mark.parametrize("steps", [[(2, 3)], [(2, 3), (2, 1)]])
@pytest.mark.parametrize("third", [(5,), (-1,), (0,), (1, 5)])
def test_back_neighborhood_outside_the_graph_rejected(name, steps, third):
    """A hand-built back-neighborhood of vertex 2 on the path 0-1-2 naming
    a vertex outside 0..2 (5, -1) or a non-neighbor (0) is refused with
    ValueError, whether 2 is recolored once or twice; it used to raise
    IndexError or KeyError in analysis, or analyze the wrong restriction."""
    g = path(3)
    bad = EliminationOrdering((0, 1, 2), ((), (0,), third))
    start = Coloring([1, 2, 1], T)
    culprit = next(u for u in third if u not in g.adj[2])
    if name == "build":
        with pytest.raises(ValueError, match="nbrs must be neighbors of 2"):
            best_choice_sequence(g, bad, start, start)
    else:
        s = RecoloringSequence(tuple(RecoloringStep(v, c) for v, c in steps), start)
        with pytest.raises(
            ValueError, match=f"back-neighborhood of 2 names {culprit}, not a neighbor of 2"
        ):
            analyze_sequence(g, bad, s)


@pytest.mark.parametrize(
    "back_nbrs, message",
    [
        (((), (0,), (0, 1)), "back-neighborhood of 2 names 0, not a neighbor of 2"),
        (((), (0,), (-1, 1)), "back-neighborhood of 2 names -1, not a neighbor of 2"),
        (((), (0,)), "ordering covers 2 vertices, graph has 3"),
        (((), (0,), (1, 1)), "back-neighborhood of 2 repeats a vertex"),
    ],
)
def test_certify_perfect_rejects_an_ordering_that_does_not_fit(back_nbrs, message):
    """On the path 0-1-2 a non-neighbor, a negative id (which indexing
    would wrap to vertex 2) and an ordering of another size used to be
    certified perfect or raise IndexError; a repeated back-neighbor was
    reported as NotChordal with the self-loop witness 1-1."""
    bad = EliminationOrdering(tuple(range(len(back_nbrs))), back_nbrs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        certify_perfect(path(3), bad)


def test_analysis_rejects_a_repeated_back_neighbor():
    """A back-neighborhood that repeats a vertex used to be counted twice:
    max_back_degree 2 and saved 0 where the honest ordering gives 1 and 1."""
    g = path(3)
    s = RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in [(1, 3), (2, 2), (1, 1), (2, 1)]),
        Coloring([1, 2, 1], T),
    )
    report = analyze_sequence(g, EliminationOrdering((0, 1, 2), ((), (0,), (1,))), s)
    assert (report.max_back_degree, report.stats["saved"]) == (1, 1)
    repeated = EliminationOrdering((0, 1, 2), ((), (0,), (1, 1)))
    with pytest.raises(ValueError, match="^back-neighborhood of 2 repeats a vertex$"):
        analyze_sequence(g, repeated, s)


@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, T)), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_analysis_rejects_exactly_the_bad_back_neighborhoods(backs, steps):
    """On the path 0-1-2-3: ValueError naming a non-neighbor iff some
    back-neighborhood leaves its vertex's neighborhood, else ValueError
    naming a repeat iff one repeats a vertex; otherwise the analysis runs."""
    g = path(4)
    ordering = EliminationOrdering((0, 1, 2, 3), tuple(tuple(b) for b in backs))
    s = RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in steps), Coloring([1, 2, 1, 2], T)
    )
    if not all(set(b) <= g.adj[v] for v, b in enumerate(backs)):
        with pytest.raises(ValueError, match="not a neighbor of"):
            analyze_sequence(g, ordering, s)
    elif any(len(set(b)) < len(b) for b in backs):
        with pytest.raises(ValueError, match="repeats"):
            analyze_sequence(g, ordering, s)
    else:
        analyze_sequence(g, ordering, s)


@pytest.mark.parametrize("n_order", [2, 4])
@pytest.mark.parametrize("color", ["greedy", "random"])
def test_coloring_along_an_ordering_of_another_size_rejected(color, n_order):
    """A 4-vertex ordering on a 3-vertex graph used to give a 4-vertex
    coloring; now both colorings along an ordering check its size."""
    g = path(3)
    ordering = EliminationOrdering.from_order(path(n_order), range(n_order))
    with pytest.raises(ValueError, match=f"^ordering covers {n_order} vertices, graph has 3$"):
        if color == "greedy":
            greedy_color(g, ordering, T)
        else:
            gen_random_coloring(g, ordering, T, 0)


@pytest.mark.parametrize("clique", [[1, 1.5], [1.0, 2], [0, "1"]])
@pytest.mark.parametrize("name", ["naughty", "analyze"])
def test_a_non_integer_clique_id_is_a_type_error(name, clique):
    """A clique id of 1.5 used to be reported as NotAClique and 1.0 raised
    a TypeError from indexing; every non-integer id is now a TypeError."""
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    s = RecoloringSequence((RecoloringStep(0, 4),), Coloring([1, 2, 3], 4))
    with pytest.raises(TypeError):
        if name == "naughty":
            naughty_recolorings(s, g, clique)
        else:
            ordering = EliminationOrdering.from_order(g, range(3))
            analyze_sequence(g, ordering, s, naughty_cliques=[clique])
