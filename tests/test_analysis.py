"""Structural checks on recoloring sequences, frozen on hand-checked traces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    NotAClique,
    RecoloringSequence,
    RecoloringStep,
    analyze_sequence,
    apply_sequence,
    best_choice_sequence,
    check_causation,
    check_revisit_spacing,
    check_save_inequality,
    check_tight_palette_coverage,
    naughty_recolorings,
    per_vertex_bound,
    per_vertex_counts,
    saved_steps,
    tight_recolorings,
)
from strategies import engine_cases


def seq(steps, start, t):
    return RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in steps), Coloring(tuple(start), t)
    )


P3 = Graph(3, [(0, 1), (1, 2)])
O3 = EliminationOrdering.from_order(P3, (0, 1, 2))
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
OK3 = EliminationOrdering.from_order(K3, (0, 1, 2))


def worked_trace():
    return seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1), 3)


class TestBasics:
    def test_per_vertex_counts_include_untouched(self):
        assert per_vertex_counts(worked_trace()) == {0: 1, 1: 2, 2: 1}


class TestTightAndSaved:
    def test_tight_on_worked_trace(self):
        assert tight_recolorings(worked_trace(), O3, 1) == [0]
        assert tight_recolorings(worked_trace(), O3, 2) == []

    def test_tight_with_two_intervening(self):
        s = seq([(2, 4), (0, 3), (1, 5), (2, 1)], (1, 2, 3), 5)
        apply_sequence(K3, s)
        assert tight_recolorings(s, OK3, 2) == [0]

    def test_saved_on_worked_trace(self):
        assert saved_steps(worked_trace(), O3, 1) == ([], 0)
        assert saved_steps(worked_trace(), O3, 2) == ([0, 2], 2)

    def test_save_inequality_on_worked_trace(self):
        r1 = check_save_inequality(worked_trace(), O3, 1)
        assert r1 == (True, 2, 1, 0, 1, 2)
        r2 = check_save_inequality(worked_trace(), O3, 2)
        assert r2 == (True, 1, 2, 2, 1, 1)
        r0 = check_save_inequality(worked_trace(), O3, 0)
        assert r0.passed and r0.bound == 1 and r0.d == 0

    @given(engine_cases(max_n=10, tight_palette=True))
    @settings(max_examples=50, deadline=None)
    def test_save_inequality_holds_at_tight_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        for v in range(g.n):
            assert check_save_inequality(s, ordering, v).passed


class TestSpacingAndCausation:
    def test_worked_trace_is_clean(self):
        assert check_revisit_spacing(worked_trace(), O3) == []
        assert check_causation(worked_trace(), O3) == []

    def test_back_to_back_recoloring_flagged(self):
        g = Graph(2, [])
        o = EliminationOrdering.from_order(g, (0, 1))
        s = seq([(0, 2), (0, 3)], (1, 1), 3)
        out = check_revisit_spacing(s, o)
        assert len(out) == 1
        assert out[0].check == "revisit-spacing"
        assert out[0].vertex == 0 and out[0].indices == (0, 1)

    def test_close_revisit_flagged_unless_last(self):
        s = seq([(2, 4), (0, 3), (2, 5), (1, 4), (2, 1)], (1, 2, 3), 5)
        apply_sequence(K3, s)
        out = check_revisit_spacing(s, OK3)
        assert [(v.vertex, v.indices) for v in out] == [(2, (0, 2))]

    def test_uncaused_nonfinal_recoloring_flagged(self):
        g = Graph(2, [(0, 1)])
        o = EliminationOrdering.from_order(g, (0, 1))
        s = seq([(1, 3), (0, 4), (1, 2)], (1, 2), 4)
        apply_sequence(g, s)
        out = check_causation(s, o)
        assert [(v.check, v.vertex, v.indices) for v in out] == [("causation", 1, (0,))]

    @given(engine_cases(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_causation_holds_at_any_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert check_causation(s, ordering) == []

    @given(engine_cases(max_n=10, tight_palette=True))
    @settings(max_examples=50, deadline=None)
    def test_spacing_holds_at_tight_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert check_revisit_spacing(s, ordering) == []


class TestTightCoverage:
    def test_worked_trace_exempt_final_follower(self):
        assert check_tight_palette_coverage(worked_trace(), O3, 1) == []

    def test_missing_color_flagged(self):
        # Structural check only: the restriction need not be replayable.
        g = Graph(3, [(0, 1)])
        o = EliminationOrdering.from_order(g, (0, 1, 2))
        s = seq([(1, 3), (0, 2), (1, 1), (0, 1)], (3, 2, 1), 3)
        out = check_tight_palette_coverage(s, o, 1)
        assert len(out) == 1
        assert out[0].check == "tight-coverage"
        assert out[0].indices == (0,)
        assert "[1]" in out[0].note

    def test_wrong_palette_rejected(self):
        s = seq([(1, 3)], (1, 2, 1), 4)
        with pytest.raises(ValueError):
            check_tight_palette_coverage(s, O3, 1)


class TestRotating:
    # rotating recolorings are counted in analyze_sequence's stats
    G = Graph(1, [])
    O = EliminationOrdering.from_order(G, (0,))

    def rotating(self, s):
        return analyze_sequence(self.G, self.O, s).stats["rotating"]

    def test_return_to_older_color(self):
        s = seq([(0, 5), (0, 3), (0, 1)], (1,), 5)
        assert self.rotating(s) == 1

    def test_no_return_no_rotation(self):
        s = seq([(0, 5), (0, 3), (0, 2)], (1,), 5)
        assert self.rotating(s) == 0

    def test_too_short_history(self):
        s = seq([(0, 5), (0, 1)], (1,), 5)
        assert self.rotating(s) == 0


class TestNaughty:
    G = Graph(3, [(0, 1)])

    def test_sparse_restriction_is_naughty(self):
        s = seq([(2, 5), (0, 3), (2, 6), (1, 4)], (1, 2, 7), 7)
        assert naughty_recolorings(s, self.G, [0, 1]) == [0, 1]

    def test_forced_follower_disqualifies(self):
        s = seq([(2, 5), (0, 3), (2, 6), (1, 4), (0, 2)], (1, 2, 7), 7)
        assert naughty_recolorings(s, self.G, [0, 1]) == [1, 2]

    def test_crowded_window_disqualifies(self):
        steps = [(0, 3), (1, 4), (0, 5), (1, 6), (0, 7), (1, 3), (0, 4)]
        s = seq(steps, (1, 2, 7), 7)
        out = naughty_recolorings(s, self.G, [0, 1])
        assert 0 not in out and 1 not in out
        assert out == [2, 3, 4, 5, 6]

    def test_non_clique_rejected(self):
        s = seq([(0, 3)], (1, 2, 7), 7)
        with pytest.raises(NotAClique):
            naughty_recolorings(s, self.G, [0, 2])


class TestBounds:
    def test_frozen_values(self):
        assert per_vertex_bound(1) == 2**18
        assert per_vertex_bound(2) == 33554432

    def test_invalid_degeneracy_rejected(self):
        with pytest.raises(ValueError):
            per_vertex_bound(0)


class TestAnalyzeSequence:
    def test_worked_trace_report(self):
        rep = analyze_sequence(P3, O3, worked_trace())
        assert rep.passed
        assert rep.length == 4
        assert rep.max_count == 2
        assert rep.per_vertex == {0: 1, 1: 2, 2: 1}
        assert rep.violations == []

    def test_report_round_trips_to_json_dict(self):
        rep = analyze_sequence(P3, O3, worked_trace())
        d = rep.to_json_dict()
        assert d["passed"] is True
        assert d["length"] == 4

    @given(engine_cases(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_constructed_sequences_pass_everything(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        rep = analyze_sequence(g, ordering, s)
        assert rep.passed, rep.violations
