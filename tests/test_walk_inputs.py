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
    NotChordal,
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
    ordering = EliminationOrdering(path(n_order), range(n_order))
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
        {"order": (0, 1, 2, 3)},
    ],
)
def test_ordering_fields_of_different_lengths_rejected(name, change):
    """order and back_nbrs can no longer differ in length: back_nbrs is
    derived from the graph, so `replace` refuses to set it, and an order of
    another length is not a permutation of the graph's vertices.  Either
    way the ordering is refused before it reaches a walk function."""
    g = path(3)
    ordering = EliminationOrdering(g, range(3))
    start = Coloring([1, 2, 1], T)
    if "back_nbrs" in change:
        message = "back_nbrs is declared with init=False"
    else:
        message = r"^order must be a permutation of 0\.\.n-1$"
    with pytest.raises(ValueError, match=message):
        bad = dataclasses.replace(ordering, **change)
        if name == "build":
            best_choice_sequence(g, bad, start, start)
        else:
            analyze_sequence(g, bad, RecoloringSequence((RecoloringStep(2, 3),), start))


@pytest.mark.parametrize("order", [(0, 0, 1), (2, 2, 2), (0, 1, 3), (-1, 0, 1)])
def test_order_that_is_not_a_permutation_rejected(order):
    """An order of the path 0-1-2 that repeats a vertex or leaves 0..2
    used to reach the walk functions: best_choice_sequence failed in its
    own replay (NullStep, ImproperIntermediate) and analyze_sequence
    passed.  The constructor, also under its older name, refuses it."""
    for build in (EliminationOrdering, EliminationOrdering.from_order):
        with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.n-1$"):
            build(path(3), order)


def ordering_with_back(back: tuple[int, ...]) -> EliminationOrdering:
    """An ordering, last vertex 2, of the graph with edge 0-1 and an edge
    from 2 to each vertex of `back`: vertex 2's back-neighborhood is back."""
    n = max(3, 1 + max(back))
    other = Graph(n, [(0, 1), *((u, 2) for u in back)])
    ordering = EliminationOrdering(other, [v for v in range(n) if v != 2] + [2])
    assert ordering.back_nbrs[2] == back
    return ordering


def another_graph_message(n: int, g: Graph) -> str:
    if n != g.n:
        return f"^ordering covers {n} vertices, graph has {g.n}$"
    return "^ordering was built for another graph$"


@pytest.mark.parametrize("name", ["build", "analyze"])
@pytest.mark.parametrize("steps", [[(2, 3)], [(2, 3), (2, 1)]])
@pytest.mark.parametrize("third", [(5,), (0, 1), (0,), (1, 5)])
def test_back_neighborhood_outside_the_graph_rejected(name, steps, third):
    """A back-neighborhood of vertex 2 that leaves the path 0-1-2, naming a
    vertex outside 0..2 (5) or a non-neighbor (0), used to be hand-built
    and raised IndexError or KeyError in analysis, or analyzed the wrong
    restriction.  Now only an ordering of another graph has one, and it is
    refused with ValueError whether 2 is recolored once or twice."""
    g = path(3)
    bad = ordering_with_back(third)
    start = Coloring([1, 2, 1], T)
    with pytest.raises(ValueError, match=another_graph_message(len(bad.order), g)):
        if name == "build":
            best_choice_sequence(g, bad, start, start)
        else:
            s = RecoloringSequence(tuple(RecoloringStep(v, c) for v, c in steps), start)
            analyze_sequence(g, bad, s)


@pytest.mark.parametrize(
    "back_nbrs, message",
    [
        (((), (0,), (0, 1)), "ordering was built for another graph"),
        (((), (), (0,)), "ordering was built for another graph"),
        (((), (0,)), "ordering covers 2 vertices, graph has 3"),
        (((), (0,), (1,), (2,)), "ordering covers 4 vertices, graph has 3"),
    ],
)
def test_certify_perfect_rejects_an_ordering_that_does_not_fit(back_nbrs, message):
    """On the path 0-1-2, back-neighborhoods naming a non-neighbor, as in
    an ordering of the triangle (perfect there) or of the graph whose one
    edge is 0-2, or covering another number of vertices used to be
    certified perfect or raise IndexError.  Each now comes only from an
    ordering of another graph, which is refused."""
    n = len(back_nbrs)
    other = Graph(n, [(u, v) for v, back in enumerate(back_nbrs) for u in back])
    bad = EliminationOrdering(other, range(n))
    assert bad.back_nbrs == back_nbrs
    with pytest.raises(ValueError, match=f"^{message}$"):
        certify_perfect(path(3), bad)


def test_analysis_rejects_a_repeated_back_neighbor():
    """A hand-built back-neighborhood that repeated a vertex used to be
    counted twice: max_back_degree 2 and saved 0 where the honest ordering
    gives 1 and 1.  A derived one names each neighbor once."""
    g = path(3)
    s = RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in [(1, 3), (2, 2), (1, 1), (2, 1)]),
        Coloring([1, 2, 1], T),
    )
    report = analyze_sequence(g, EliminationOrdering(g, (0, 1, 2)), s)
    assert (report.max_back_degree, report.stats["saved"]) == (1, 1)


def graphs_on(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return st.lists(st.sampled_from(pairs), unique=True).map(lambda edges: Graph(n, edges))


@given(graphs_on(4), st.sampled_from((4, 4, 3, 5)), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_analysis_rejects_exactly_the_bad_back_neighborhoods(g, n, same, data):
    """An ordering's back-neighborhoods are those of the graph it was built
    from, so they are wrong for g exactly when that graph differs from g.
    Each function that reads them refuses the ordering iff it does: an
    ordering of another 4-vertex graph, or of a 3- or 5-vertex one."""
    h = Graph(4, g.edges()) if same and n == 4 else data.draw(graphs_on(n))
    ordering = EliminationOrdering(h, data.draw(st.permutations(range(n))))
    t = 5  # at least 4-vertex back-degree + 2: the walk always exists
    own = EliminationOrdering(g, range(4))
    alpha, beta = greedy_color(g, own, t), gen_random_coloring(g, own, t, 0)
    calls = {
        "build": lambda: best_choice_sequence(g, ordering, alpha, beta),
        "analyze": lambda: analyze_sequence(g, ordering, RecoloringSequence((), alpha)),
        "certify": lambda: certify_perfect(g, ordering),
        "greedy": lambda: greedy_color(g, ordering, t),
        "random": lambda: gen_random_coloring(g, ordering, t, 0),
    }
    for name, run in calls.items():
        if h != g:
            with pytest.raises(ValueError, match=another_graph_message(n, g)):
                run()
            continue
        try:
            run()
        except NotChordal:
            assert name == "certify"


@pytest.mark.parametrize("n_order", [2, 4])
@pytest.mark.parametrize("color", ["greedy", "random"])
def test_coloring_along_an_ordering_of_another_size_rejected(color, n_order):
    """A 4-vertex ordering on a 3-vertex graph used to give a 4-vertex
    coloring; now both colorings along an ordering check its size."""
    g = path(3)
    ordering = EliminationOrdering(path(n_order), range(n_order))
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
            ordering = EliminationOrdering(g, range(3))
            analyze_sequence(g, ordering, s, naughty_cliques=[clique])
