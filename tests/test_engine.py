"""Recoloring sequences: application, reversal, and the greedy construction."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from recolor import (
    Coloring,
    EliminationOrdering,
    EmptyValidSet,
    Graph,
    ImproperEndpoint,
    ImproperInput,
    ImproperIntermediate,
    NullStep,
    PaletteViolation,
    RecoloringSequence,
    RecoloringStep,
    apply_sequence,
    best_choice_sequence,
    engine,
    local_best_choice,
    reverse_sequence,
    rt_distance,
    select_best_choice,
)
from strategies import engine_cases


def p3():
    return Graph(3, [(0, 1), (1, 2)])


def seq(steps, start, t):
    return RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in steps), Coloring(tuple(start), t)
    )


def walk(steps, start, t):
    """A walk under construction holding `steps` from `start`."""
    w = engine._Walk(Coloring(tuple(start), t))
    for v, c in steps:
        w.insert_before(w.tail, v, c)
    return w


class TestApplySequence:
    def test_worked_trace_on_path(self):
        s = seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1), 3)
        assert apply_sequence(p3(), s).colors == (2, 1, 2)

    def test_null_step_rejected(self):
        s = seq([(0, 1)], (1, 2, 1), 3)
        with pytest.raises(NullStep):
            apply_sequence(p3(), s)

    def test_improper_intermediate_rejected(self):
        s = seq([(1, 1)], (1, 2, 1), 3)
        with pytest.raises(ImproperIntermediate) as ei:
            apply_sequence(p3(), s)
        assert ei.value.step_index == 0

    def test_improper_start_rejected(self):
        s = seq([(1, 3)], (1, 1, 2), 3)
        with pytest.raises(ImproperInput):
            apply_sequence(p3(), s)

    def test_palette_is_the_start_colorings(self):
        names = [f.name for f in dataclasses.fields(RecoloringSequence)]
        assert names == ["steps", "start"]
        assert seq([], (1, 2, 1), 3).palette_size == 3

    def test_step_outside_start_palette_rejected(self):
        s = RecoloringSequence((RecoloringStep(1, 5),), Coloring((1, 2, 1), 3))
        with pytest.raises(PaletteViolation):
            apply_sequence(p3(), s)

    def test_empty_sequence_is_identity(self):
        s = seq([], (1, 2, 1), 3)
        assert apply_sequence(p3(), s).colors == (1, 2, 1)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_step_vertex_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^step 1 recolors vertex {bad}, outside 0\.\.2$"):
            seq([(1, 3), (bad, 3)], (1, 2, 1), 3)


class TestReverseSequence:
    def test_worked_trace_reversal(self):
        s = seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1), 3)
        r = reverse_sequence(s)
        assert r.start.colors == (2, 1, 2)
        assert [(st.vertex, st.new_color) for st in r.steps] == [
            (1, 3),
            (2, 1),
            (0, 1),
            (1, 2),
        ]
        assert apply_sequence(p3(), r).colors == (1, 2, 1)

    def test_double_reverse_is_identity(self):
        s = seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1), 3)
        assert reverse_sequence(reverse_sequence(s)) == s


class TestSelectBestChoice:
    def test_target_taken_when_valid_and_fresh(self):
        assert select_best_choice(4, {3, 4}, [2, 3]) == 4

    def test_smallest_fresh_when_target_blocked(self):
        assert select_best_choice(1, {3, 5}, [5, 3, 1]) == 3

    def test_latest_first_occurrence_when_all_stale(self):
        assert select_best_choice(1, {2, 4}, [2]) == 4

    def test_all_colors_in_future_picks_latest_first_use(self):
        assert select_best_choice(9, {2, 4, 6}, [4, 6, 2, 6]) == 2

    def test_empty_valid_set_raises(self):
        with pytest.raises(EmptyValidSet):
            select_best_choice(1, set(), [])

    def test_invalid_target_counts_as_blocked(self):
        stats = {}
        assert select_best_choice(5, {3, 4}, [2]) == 3
        select_best_choice(5, {3, 4}, [2], stats=stats)
        assert stats.get("rule1_blocked", 0) == 1

    def test_valid_target_in_future_is_not_rule1_blocked(self):
        stats = {}
        select_best_choice(4, {3, 4}, [4], stats=stats)
        assert stats.get("rule1_blocked", 0) == 0


class TestLocalBestChoice:
    def test_path_insertion_example(self):
        g = p3()
        out = walk([(1, 3), (0, 2), (1, 1)], (1, 2, 1), 3)
        # Re-derive the full trace by treating vertex 2 as the new last
        # vertex over its earlier neighbourhood {1}.
        local_best_choice(g, 2, frozenset({1}), out, beta_u=2)
        out = out.sequence()
        assert [(st.vertex, st.new_color) for st in out.steps] == [
            (1, 3),
            (0, 2),
            (2, 2),
            (1, 1),
        ]
        assert apply_sequence(g, out).colors == (2, 1, 2)

    def test_no_conflicts_just_closes(self):
        g = Graph(2, [(0, 1)])
        out = walk([], (1, 2), 3)
        local_best_choice(g, 1, frozenset({0}), out, beta_u=3)
        assert [(st.vertex, st.new_color) for st in out.sequence().steps] == [(1, 3)]

    def test_already_at_target_adds_nothing(self):
        g = Graph(2, [(0, 1)])
        out = walk([], (1, 2), 3)
        local_best_choice(g, 1, frozenset({0}), out, beta_u=2)
        assert out.sequence().steps == ()


    @pytest.mark.parametrize(
        "n_graph, n_walk, u",
        [
            (3, 3, 5),  # outside the graph and the walk
            (4, 3, 3),  # inside the graph, outside the walk
            (3, 3, -1),  # negative: would wrap to the last vertex
        ],
    )
    def test_vertex_out_of_range_rejected(self, n_graph, n_walk, u):
        g = Graph(n_graph, [(v, v + 1) for v in range(n_graph - 1)])
        out = walk([], [1 + v % 2 for v in range(n_walk)], 3)
        with pytest.raises(ValueError, match=f"vertex {u} outside 0..2"):
            local_best_choice(g, u, frozenset(), out, beta_u=1)


    @pytest.mark.parametrize("u, nbrs", [(0, (1,)), (2, (3,))])
    def test_walk_smaller_than_graph_rejected(self, u, nbrs):
        # (2, (3,)) names a neighbour the walk has no entry for
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        out = walk([(1, 3)], (1, 2, 1), 3)
        with pytest.raises(ValueError, match="^walk covers 3 vertices, graph has 4$"):
            local_best_choice(g, u, nbrs, out, beta_u=1)

    def test_walk_larger_than_graph_rejected(self):
        out = walk([], (1, 2, 1, 2), 3)
        with pytest.raises(ValueError, match="^walk covers 4 vertices, graph has 3$"):
            local_best_choice(p3(), 0, (), out, beta_u=1)

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_vertex_chains_hold_exactly_their_nodes(self, case):
        # the chain from first[v] through same[] lists v's nodes newest
        # first, which is v's nodes in a scan of the walk, backwards
        g, ordering, t, alpha, beta = case
        w = engine._Walk(alpha)
        for v in ordering.order:
            local_best_choice(g, v, ordering.back_nbrs[v], w, beta.colors[v])
        scan = {v: [] for v in range(g.n)}
        for x in w:
            scan[w.vertex[x]].append(x)
        for v in range(g.n):
            chain, x = [], w.first[v]
            while x:
                chain.append(x)
                x = w.same[x]
            assert chain == scan[v][::-1]
        assert len(w.same) == len(w.vertex)


class TestBestChoiceSequence:
    def test_worked_example(self):
        g = p3()
        o = EliminationOrdering(g, (0, 1, 2))
        s = best_choice_sequence(g, o, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3))
        assert [(st.vertex, st.new_color) for st in s.steps] == [
            (1, 3),
            (0, 2),
            (2, 2),
            (1, 1),
        ]

    def test_identity_endpoints_give_empty_sequence(self):
        g = p3()
        o = EliminationOrdering(g, (0, 1, 2))
        a = Coloring((1, 2, 1), 3)
        assert best_choice_sequence(g, o, a, a).steps == ()

    def test_palette_mismatch_rejected(self):
        g = p3()
        o = EliminationOrdering(g, (0, 1, 2))
        with pytest.raises(ValueError):
            best_choice_sequence(g, o, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 4))

    def test_improper_endpoint_rejected(self):
        g = p3()
        o = EliminationOrdering(g, (0, 1, 2))
        with pytest.raises(ImproperInput):
            best_choice_sequence(g, o, Coloring((1, 1, 2), 3), Coloring((2, 1, 2), 3))

    def test_short_alpha_rejected_before_construction(self):
        # the entry check is the only length check before alpha[v] is read
        g = p3()
        o = EliminationOrdering(g, (0, 1, 2))
        with pytest.raises(ValueError, match="^coloring covers 2 vertices, graph has 3$"):
            best_choice_sequence(g, o, Coloring((1, 2), 3), Coloring((2, 1, 2), 3))

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_never_fails_and_reaches_target(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert apply_sequence(g, s).colors == beta.colors

    @given(engine_cases(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_stagewise_restriction_coherence(self, case):
        # Folding one vertex at a time must reproduce the full sequence's
        # restriction to each prefix of the ordering.
        g, ordering, t, alpha, beta = case
        full = best_choice_sequence(g, ordering, alpha, beta)
        stage = engine._Walk(alpha)
        done = set()
        for v in ordering.order:
            local_best_choice(g, v, ordering.back_nbrs[v], stage, beta.colors[v])
            done.add(v)
            restriction = tuple(st for st in full.steps if st.vertex in done)
            assert restriction == stage.sequence().steps

    @given(engine_cases(max_n=5, max_k=2))
    @settings(max_examples=25, deadline=None)
    def test_length_dominates_shortest_path(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        dist = rt_distance(g, t, alpha, beta)
        assert dist is not None
        assert len(s) >= dist
