"""Graph model, proper colorings, elimination orderings, degeneracy, greedy."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    NotChordal,
    PaletteExhausted,
    PaletteViolation,
    certify_perfect,
    degeneracy,
    gen_ktree,
    greedy_color,
    is_proper,
    mcs_peo,
)
from strategies import ktree_instances, small_graphs


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


class TestGraph:
    def test_adjacency_is_symmetric_and_deduped(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.adj[0] == frozenset({1})
        assert g.adj[1] == frozenset({0, 2})
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0
        assert list(g.edges()) == []


class TestProperColoring:
    def test_proper_example(self):
        g = path(3)
        assert is_proper(g, Coloring((1, 2, 1), 3))

    def test_monochromatic_edge_rejected(self):
        g = path(3)
        assert not is_proper(g, Coloring((1, 1, 2), 3))

    def test_color_outside_palette_raises(self):
        g = path(3)
        with pytest.raises(PaletteViolation):
            is_proper(g, Coloring((1, 4, 1), 3))

    def test_nonpositive_color_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Coloring((0, 1, 2), 3)

    def test_wrong_length_rejected(self):
        g = path(3)
        with pytest.raises(ValueError):
            is_proper(g, Coloring((1, 2), 3))


class TestEliminationOrdering:
    def test_back_neighbourhoods_on_path(self):
        o = EliminationOrdering(path(3), (0, 1, 2))
        assert o.back_nbrs == ((), (0,), (1,))
        assert o.max_back_degree == 1

    def test_mcs_on_path_is_certified(self):
        o = mcs_peo(path(3))
        assert o.order == (0, 1, 2)
        assert o.perfect

    def test_mcs_rejects_four_cycle(self):
        with pytest.raises(NotChordal):
            mcs_peo(cycle(4))

    def test_certify_flags_bad_ordering(self):
        # On C4 every ordering has some vertex whose two earlier
        # neighbours are non-adjacent.
        g = cycle(4)
        o = EliminationOrdering(g, (0, 1, 2, 3))
        with pytest.raises(NotChordal) as ei:
            certify_perfect(g, o)
        assert ei.value.missing_edge is not None

    def test_certify_accepts_clique_any_order(self):
        g = complete(4)
        for perm in itertools.permutations(range(4)):
            o = certify_perfect(g, EliminationOrdering(g, perm))
            assert o.perfect

    @given(small_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_back_neighbourhoods_match_a_naive_reference(self, g, data):
        order = data.draw(st.permutations(range(g.n)))
        pos = {v: i for i, v in enumerate(order)}
        expected = tuple(
            tuple(sorted(u for u in g.adj[v] if pos[u] < pos[v])) for v in range(g.n)
        )
        o = EliminationOrdering(g, order)
        assert o.back_nbrs == expected
        # perfect iff no back-neighborhood misses an edge; certify names the first gap
        gaps = [
            (v, (a, b))
            for v in range(g.n)
            for a in expected[v]
            for b in expected[v]
            if a < b and b not in g.adj[a]
        ]
        assert o.perfect == (not gaps)
        if gaps:
            with pytest.raises(NotChordal) as ei:
                certify_perfect(g, o)
            assert (ei.value.vertex, ei.value.missing_edge) == gaps[0]
        else:
            assert certify_perfect(g, o) is o

    def test_certify_shares_the_back_neighbourhoods(self):
        g = complete(3)
        o = EliminationOrdering(g, (2, 0, 1))
        assert certify_perfect(g, o) is o
        assert o.perfect and o.graph is g

    @given(ktree_instances())
    @settings(max_examples=40, deadline=None)
    def test_ktrees_are_chordal(self, inst):
        o = mcs_peo(inst.graph)
        assert o.perfect
        assert set(o.order) == set(range(inst.graph.n))


class TestDegeneracy:
    def test_known_values(self):
        assert degeneracy(complete(4))[0] == 3
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert degeneracy(star)[0] == 1
        assert degeneracy(cycle(5))[0] == 2
        assert degeneracy(Graph(3, []))[0] == 0

    def test_witness_ordering_attains_value(self):
        g = cycle(6)
        d, o = degeneracy(g)
        assert o.max_back_degree == d

    @given(ktree_instances())
    @settings(max_examples=40, deadline=None)
    def test_ktree_degeneracy_is_k(self, inst):
        k = inst.ordering.max_back_degree
        assert degeneracy(inst.graph)[0] == k

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_every_vertex_has_small_back_degree(self, g):
        d, o = degeneracy(g)
        assert all(len(b) <= d for b in o.back_nbrs)


class TestGreedy:
    def test_path_with_two_colors(self):
        g = path(3)
        o = EliminationOrdering(g, (0, 1, 2))
        assert greedy_color(g, o, 2).colors == (1, 2, 1)

    def test_exhaustion_raises(self):
        g = complete(4)
        o = EliminationOrdering(g, (0, 1, 2, 3))
        with pytest.raises(PaletteExhausted):
            greedy_color(g, o, 3)

    @given(ktree_instances(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_greedy_needs_at_most_d_plus_one(self, inst, extra):
        d = inst.ordering.max_back_degree
        c = greedy_color(inst.graph, inst.ordering, d + extra)
        assert is_proper(inst.graph, c)
