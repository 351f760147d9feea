"""Exhaustive ground truth over the graph of proper colorings."""

from __future__ import annotations

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    Graph,
    InvalidParams,
    OracleInfeasible,
    StateCapExceeded,
    apply_sequence,
    enumerate_colorings,
    frozen_states,
    gen_ktree,
    iter_colorings,
    rt_connected,
    rt_diameter,
    rt_distance,
    rt_path,
)
from recolor.oracle import _Space
from strategies import small_graphs


def p3():
    return Graph(3, [(0, 1), (1, 2)])


def k3():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestEnumeration:
    def test_path_three_colors(self):
        assert enumerate_colorings(p3(), 3) == 12

    def test_edge_three_colors(self):
        assert enumerate_colorings(Graph(2, [(0, 1)]), 3) == 6

    def test_triangle_three_colors(self):
        assert enumerate_colorings(k3(), 3) == 6

    def test_iteration_is_sorted_and_proper(self):
        states = list(iter_colorings(p3(), 3))
        assert len(states) == 12
        assert states == sorted(states)
        assert all(s[0] != s[1] and s[1] != s[2] for s in states)

    def test_cap_enforced(self):
        with pytest.raises(StateCapExceeded):
            enumerate_colorings(Graph(30, []), 5, state_cap=1000)

    @pytest.mark.parametrize("t", [0, -1])
    def test_palette_below_one_rejected(self, t):
        with pytest.raises(InvalidParams, match=rf"^palette t must be at least 1, got {t}$"):
            enumerate_colorings(p3(), t)

    def test_cap_refuses_a_huge_space_by_its_exponent(self):
        # 5**7000 has 4893 digits, more than int-to-str conversion allows
        with pytest.raises(StateCapExceeded, match=r"^state space 5\*\*7000 exceeds cap 2000000$"):
            enumerate_colorings(Graph(7000, []), 5)


class TestDistanceAndPath:
    def test_worked_example_distance(self):
        d = rt_distance(p3(), 3, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3))
        assert d == 4

    def test_distance_zero(self):
        a = Coloring((1, 2, 1), 3)
        assert rt_distance(p3(), 3, a, a) == 0
        assert rt_path(p3(), 3, a, a).steps == ()

    def test_empty_graph(self):
        g, a = Graph(0, []), Coloring((), 3)
        assert rt_distance(g, 3, a, a) == 0
        s = rt_path(g, 3, a, a)
        assert s.steps == ()
        assert s.start == a

    def test_frozen_component_runs_out_before_meeting(self):
        # the K3 is frozen at t=3, so each end reaches only the 6 colorings
        # of its K2
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        a = Coloring((1, 2, 3, 1, 2), 3)
        b = Coloring((2, 1, 3, 2, 1), 3)
        for x, y in ((a, b), (b, a)):
            assert rt_distance(g, 3, x, y) is None
            assert rt_path(g, 3, x, y) is None

    def test_path_takes_the_first_shortest_walk(self):
        # (1,3), (2,2), (0,2), (1,1) is as short; moves are ordered by
        # vertex, then color
        s = rt_path(p3(), 3, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3))
        assert s.steps == ((1, 3), (0, 2), (2, 2), (1, 1))

    def test_disconnected_pair_has_no_distance(self):
        a = Coloring((1, 2, 3), 3)
        b = Coloring((2, 1, 3), 3)
        assert rt_distance(k3(), 3, a, b) is None
        assert rt_path(k3(), 3, a, b) is None

    def test_path_witness_replays_to_target(self):
        a, b = Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3)
        s = rt_path(p3(), 3, a, b)
        assert len(s) == 4
        assert s.start == a
        assert apply_sequence(p3(), s).colors == b.colors

    def test_swap_on_edge_needs_three(self):
        g = Graph(2, [(0, 1)])
        assert rt_distance(g, 3, Coloring((1, 2), 3), Coloring((2, 1), 3)) == 3


class TestSearchOrder:
    # The CI instance: 14,580 colorings of a 2-tree at t=5, distance 8.
    # Moves are tried state by state, vertex-ascending, color-ascending;
    # a search in another order meets elsewhere, and one that finishes
    # its layer before stopping enters more states.
    g = gen_ktree(8, 2, 7).graph
    a, b = (2, 1, 4, 1, 3, 4, 4, 5), (4, 3, 2, 1, 1, 5, 1, 3)

    def test_distance_search_stops_at_the_first_meeting_state(self):
        from_src, from_dst, meeting = _Space(self.g, 5).meet(self.a, self.b, whole_layer=False)
        assert len(from_src) + len(from_dst) == 1270
        assert meeting == [325086]
        assert from_src[325086] + from_dst[325086] == 8

    def test_whole_layer_search_finds_every_meeting_state(self):
        from_src, from_dst, meeting = _Space(self.g, 5).meet(self.a, self.b, whole_layer=True)
        assert len(from_src) + len(from_dst) == 1840
        assert len(meeting) == 8
        assert meeting[0] == 325086


class TestConnectivityAndDiameter:
    def test_edge_three_colors_connected(self):
        g = Graph(2, [(0, 1)])
        assert rt_connected(g, 3)
        assert rt_diameter(g, 3) == 3

    def test_triangle_three_colors_frozen(self):
        assert not rt_connected(k3(), 3)
        assert rt_diameter(k3(), 3) == math.inf
        assert len(frozen_states(k3(), 3)) == 6

    def test_single_vertex_two_colors(self):
        g = Graph(1, [])
        assert rt_connected(g, 2)
        assert rt_diameter(g, 2) == 1

    def test_no_proper_colorings_is_disconnected(self):
        assert not rt_connected(k3(), 2)

    def test_path_three_colors_connected(self):
        assert rt_connected(p3(), 3)
        assert rt_diameter(p3(), 3) == 4

    def test_triangle_four_colors_unfrozen(self):
        assert rt_connected(k3(), 4)
        assert frozen_states(k3(), 4) == []

    def test_diameter_refuses_past_the_square_root_of_the_cap(self):
        # p3 has 12 proper 3-colorings; isqrt(144) = 12, isqrt(143) = 11
        assert rt_diameter(p3(), 3, state_cap=144) == 4
        with pytest.raises(
            OracleInfeasible, match=r"^more than 11 colorings: all-pairs search exceeds cap 143$"
        ):
            rt_diameter(p3(), 3, state_cap=143)

    def test_diameter_bound_at_the_default_cap(self):
        # 2-trees at t=5: 540 colorings at n=5, 1,620 at n=6, 14,580 at n=8
        assert rt_diameter(gen_ktree(5, 2, 3).graph, 5) == 7
        with pytest.raises(OracleInfeasible, match=r"^more than 1414 colorings"):
            rt_diameter(gen_ktree(6, 2, 3).graph, 5)
        g = gen_ktree(8, 2, 7).graph
        t0 = time.monotonic()
        with pytest.raises(OracleInfeasible):
            rt_diameter(g, 5)
        assert time.monotonic() - t0 < 1.0


class TestAgainstBruteForce:
    @given(small_graphs(max_n=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_iteration_matches_filtered_product(self, g, t):
        got = list(iter_colorings(g, t))
        want = [
            cols
            for cols in itertools.product(range(1, t + 1), repeat=g.n)
            if all(cols[u] != cols[v] for u, v in g.edges())
        ]
        assert got == want
        assert enumerate_colorings(g, t) == len(want)

    @given(small_graphs(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_distance_is_symmetric(self, g):
        states = list(iter_colorings(g, 3))
        if len(states) < 2:
            return
        a = Coloring(states[0], 3)
        b = Coloring(states[-1], 3)
        assert rt_distance(g, 3, a, b) == rt_distance(g, 3, b, a)
