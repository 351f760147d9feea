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
    naughty_recolorings,
    per_vertex_counts,
)
from strategies import engine_cases


def seq(steps, start, t):
    return RecoloringSequence(
        tuple(RecoloringStep(v, c) for v, c in steps), Coloring(tuple(start), t)
    )


P3 = Graph(3, [(0, 1), (1, 2)])
O3 = EliminationOrdering(P3, (0, 1, 2))
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
OK3 = EliminationOrdering(K3, (0, 1, 2))


def worked_trace():
    return seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1), 3)


class TestBasics:
    def test_per_vertex_counts_include_untouched(self):
        assert per_vertex_counts(worked_trace()) == {0: 1, 1: 2, 2: 1}


def found(s, check, g=P3, o=O3):
    """The `check` violations that analyze_sequence reports on s."""
    rep = analyze_sequence(g, o, s)
    return [(w.check, w.vertex, w.indices) for w in rep.violations if w.check == check]


class TestTightAndSaved:
    def test_tight_on_worked_trace(self):
        # vertex 1's first recoloring is tight, vertex 2's only one is not
        assert analyze_sequence(P3, O3, worked_trace()).stats["tight"] == 1

    def test_tight_with_two_intervening(self):
        s = seq([(2, 4), (0, 3), (1, 5), (2, 1)], (1, 2, 3), 5)
        apply_sequence(K3, s)
        assert analyze_sequence(K3, OK3, s).stats["tight"] == 1

    def test_saved_on_worked_trace(self):
        # both of vertex 1's steps are saved for vertex 2, none for vertex 1
        assert analyze_sequence(P3, O3, worked_trace()).stats["saved"] == 2

    def test_tight_and_saved_with_zero_one_and_two_recolorings(self):
        # P4 at t = 3 = 2d+1: vertex 3 is never recolored (r = kappa = 1),
        # vertices 0 (d = 0, r = 0) and 2 (r = kappa = 2) once, and vertex 1
        # twice with one tight gap that saves nothing
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        o = EliminationOrdering(g, (0, 1, 2, 3))
        s = seq([(1, 3), (0, 2), (2, 2), (1, 1)], (1, 2, 1, 3), 3)
        apply_sequence(g, s)
        assert per_vertex_counts(s) == {0: 1, 1: 2, 2: 1, 3: 0}
        stats = analyze_sequence(g, o, s).stats
        assert (stats["saved"], stats["tight"]) == (3, 1)

    def test_save_inequality_on_worked_trace(self):
        assert found(worked_trace(), "save-inequality") == []
        # with no saved step, 3 recolorings of v exceed 1 + ceil(1 / 1)
        s = seq([(1, 3), (0, 3), (1, 1), (1, 2)], (1, 2, 1), 3)
        rep = analyze_sequence(P3, O3, s)
        over = [w for w in rep.violations if w.check == "save-inequality"]
        assert [(w.vertex, w.note) for w in over] == [
            (1, "3 recolorings exceed bound 2 (kappa=1, r=0, d=1)")
        ]
        # with no earlier neighbor the bound is 1
        g = Graph(2, [])
        s = seq([(0, 2), (0, 3)], (1, 1), 3)
        rep = analyze_sequence(g, EliminationOrdering(g, (0, 1)), s)
        over = [w for w in rep.violations if w.check == "save-inequality"]
        assert [(w.vertex, w.note) for w in over] == [
            (0, "2 recolorings exceed bound 1 (kappa=0, r=0, d=0)")
        ]

    @given(engine_cases(max_n=10, tight_palette=True))
    @settings(max_examples=50, deadline=None)
    def test_save_inequality_holds_at_tight_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert found(s, "save-inequality", g, ordering) == []


class TestSpacingAndCausation:
    def test_worked_trace_is_clean(self):
        assert found(worked_trace(), "revisit-spacing") == []
        assert found(worked_trace(), "causation") == []

    def test_back_to_back_recoloring_flagged(self):
        g = Graph(2, [])
        o = EliminationOrdering(g, (0, 1))
        s = seq([(0, 2), (0, 3)], (1, 1), 3)
        assert found(s, "revisit-spacing", g, o) == [("revisit-spacing", 0, (0, 1))]

    def test_close_revisit_flagged_unless_last(self):
        s = seq([(2, 4), (0, 3), (2, 5), (1, 4), (2, 1)], (1, 2, 3), 5)
        apply_sequence(K3, s)
        assert found(s, "revisit-spacing", K3, OK3) == [("revisit-spacing", 2, (0, 2))]

    def test_uncaused_nonfinal_recoloring_flagged(self):
        g = Graph(2, [(0, 1)])
        o = EliminationOrdering(g, (0, 1))
        s = seq([(1, 3), (0, 4), (1, 2)], (1, 2), 4)
        apply_sequence(g, s)
        assert found(s, "causation", g, o) == [("causation", 1, (0,))]

    @given(engine_cases(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_causation_holds_at_any_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert found(s, "causation", g, ordering) == []

    @given(engine_cases(max_n=10, tight_palette=True))
    @settings(max_examples=50, deadline=None)
    def test_spacing_holds_at_tight_palette(self, case):
        g, ordering, t, alpha, beta = case
        s = best_choice_sequence(g, ordering, alpha, beta)
        assert found(s, "revisit-spacing", g, ordering) == []


class TestTightCoverage:
    # Structural checks only: the restrictions need not be replayable.
    G = Graph(3, [(0, 1)])
    O = EliminationOrdering(G, (0, 1, 2))
    STEPS = [(1, 3), (0, 2), (1, 1), (0, 1)]

    def test_worked_trace_exempt_final_follower(self):
        assert found(worked_trace(), "tight-coverage") == []

    def test_missing_color_flagged(self):
        rep = analyze_sequence(self.G, self.O, seq(self.STEPS, (3, 2, 1), 3))
        out = [w for w in rep.violations if w.check == "tight-coverage"]
        assert len(out) == 1
        assert out[0].vertex == 1 and out[0].indices == (0,)
        assert "[1]" in out[0].note

    def test_coverage_skipped_off_tight_palette(self):
        # coverage is a guarantee at palette exactly 2d+1 only
        s = seq(self.STEPS, (3, 2, 1), 4)
        assert found(s, "tight-coverage", self.G, self.O) == []



class TestRotating:
    # rotating recolorings are counted in analyze_sequence's stats
    G = Graph(1, [])
    O = EliminationOrdering(G, (0,))

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

    @pytest.mark.parametrize("v", [-1, 3])
    def test_clique_id_out_of_range_rejected(self, v):
        s = seq([(0, 3), (2, 4)], (1, 2, 7), 7)
        match = rf"^clique vertex {v} outside 0\.\.2$"
        with pytest.raises(ValueError, match=match):
            naughty_recolorings(s, self.G, [v])
        order = EliminationOrdering(self.G, (0, 1, 2))
        with pytest.raises(ValueError, match=match):
            analyze_sequence(self.G, order, s, naughty_cliques=[(v,)])


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
