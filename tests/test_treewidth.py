"""Tree decompositions, the same-color merge, and the two-sided planner."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recolor
from recolor import (
    Coloring,
    DisconnectedTrace,
    Graph,
    ImproperEndpoint,
    ImproperInput,
    MergeMap,
    OracleInfeasible,
    RecoloringSequence,
    RecoloringStep,
    StateCapExceeded,
    TreeDecomposition,
    UncoveredEdge,
    UncoveredVertex,
    apply_sequence,
    degeneracy,
    expand_sequence,
    gen_ktree,
    gen_partial_ktree,
    gen_random_coloring,
    is_proper,
    mcs_peo,
    merge_by_coloring,
    project_coloring,
    rt_distance,
    run_pipeline,
    validate_decomposition,
)


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def c4_td():
    return TreeDecomposition([{0, 1, 2}, {0, 2, 3}], [(0, 1)])


class TestValidateDecomposition:
    def test_four_cycle_width_two(self):
        assert validate_decomposition(c4(), c4_td()) == 2

    def test_uncovered_vertex(self):
        g = Graph(2, [])
        td = TreeDecomposition([{0}], [])
        with pytest.raises(UncoveredVertex) as ei:
            validate_decomposition(g, td)
        assert ei.value.vertex == 1

    def test_uncovered_edge(self):
        td = TreeDecomposition([{0, 1}, {2, 3}], [(0, 1)])
        with pytest.raises(UncoveredEdge) as ei:
            validate_decomposition(c4(), td)
        assert ei.value.edge == (0, 3)

    def test_disconnected_trace(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        td = TreeDecomposition([{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)])
        with pytest.raises(DisconnectedTrace) as ei:
            validate_decomposition(g, td)
        assert ei.value.vertex == 0

    @pytest.mark.parametrize("bad", [4, -1])
    def test_bag_vertex_out_of_range_rejected(self, bad):
        td = TreeDecomposition([{0, 1, 2}, {0, 2, 3, bad}], [(0, 1)])
        with pytest.raises(ValueError, match=f"vertex {bad}, outside 0..3"):
            validate_decomposition(c4(), td)

    def test_malformed_tree_rejected(self):
        g = Graph(2, [(0, 1)])
        td = TreeDecomposition([{0, 1}, {1}], [])
        with pytest.raises(ValueError):
            validate_decomposition(g, td)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_generated_ktrees_validate_at_width_k(self, k, seed):
        g, td, _ = gen_ktree(k + 4, k, seed)
        assert validate_decomposition(g, td) == k


class TestMergeByColoring:
    def test_four_cycle_worked_example(self):
        g, td = c4(), c4_td()
        alpha = Coloring((1, 2, 1, 2), 2)
        g2, mm, alpha2, td2 = merge_by_coloring(g, td, alpha)
        assert mm.pi == (0, 1, 0, 2)
        assert mm.fibers == ((0, 2), (1,), (3,))
        assert sorted(g2.edges()) == [(0, 1), (0, 2)]
        assert alpha2.colors == (1, 2, 2)
        assert td2.bags == (frozenset({0, 1}), frozenset({0, 2}))

    def test_quotient_is_chordal_with_small_degeneracy(self):
        g, td = c4(), c4_td()
        res = merge_by_coloring(g, td, Coloring((1, 2, 1, 2), 2))
        assert mcs_peo(res.graph).perfect
        assert degeneracy(res.graph)[0] <= td.width

    def test_nothing_to_merge_still_saturates(self):
        g, td = c4(), c4_td()
        res = merge_by_coloring(g, td, Coloring((1, 2, 3, 4), 4))
        assert res.merge_map.pi == (0, 1, 2, 3)
        # Bags became cliques, so the chords appear.
        assert 2 in res.graph.adj[0]

    def test_improper_input_rejected(self):
        with pytest.raises(ImproperInput):
            merge_by_coloring(c4(), c4_td(), Coloring((1, 1, 2, 2), 2))

    def test_merge_alone_validates_its_decomposition(self):
        uncovered = TreeDecomposition([{0, 1, 2}, {1, 2, 3}], [(0, 1)])
        with pytest.raises(UncoveredEdge) as ei:
            merge_by_coloring(c4(), uncovered, Coloring((1, 2, 1, 2), 2))
        assert ei.value.edge == (0, 3)
        # 0 sits in bags 0 and 2 but not in bag 1 between them
        split = TreeDecomposition([{0, 1, 2}, {1, 2, 3}, {0, 2, 3}], [(0, 1), (1, 2)])
        with pytest.raises(DisconnectedTrace) as ei:
            merge_by_coloring(c4(), split, Coloring((1, 2, 1, 2), 2))
        assert ei.value.vertex == 0

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_invariants_on_partial_ktrees(self, k, n, seed):
        g, td = gen_partial_ktree(n, k, seed)
        d, o = degeneracy(g)
        alpha = gen_random_coloring(g, o, 2 * k + 1, seed + 7)
        g2, mm, alpha2, td2 = merge_by_coloring(g, td, alpha)
        assert mcs_peo(g2).perfect
        assert degeneracy(g2)[0] <= k
        assert is_proper(g2, alpha2)
        assert validate_decomposition(g2, td2) <= k
        for fiber in mm.fibers:
            members = sorted(fiber)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert v not in g.adj[u]
        # No bag keeps two classes of one color.
        for b in td2.bags:
            cols = [alpha2[v] for v in b]
            assert len(cols) == len(set(cols))


class TestProjectAndExpand:
    def test_merge_map_derives_ascending_fibers_from_pi(self):
        mm = MergeMap((1, 0, 1, 2, 0))
        assert mm.fibers == ((1, 4), (0, 2), (3,))
        assert (mm.n_original, mm.n_quotient) == (5, 3)
        assert MergeMap(()).fibers == ()

    @pytest.mark.parametrize(
        "pi, message",
        [
            ((0, -1, 1), "pi maps a vertex to -1, a negative id"),
            ((0, 2, 2), "quotient vertex 1 has no members"),
        ],
    )
    def test_merge_map_rejects_negative_ids_and_empty_fibers(self, pi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MergeMap(pi)

    def test_project_pulls_back_through_fibers(self):
        mm = merge_by_coloring(c4(), c4_td(), Coloring((1, 2, 1, 2), 2)).merge_map
        gamma2 = Coloring((3, 1, 2), 5)
        assert project_coloring(mm, gamma2).colors == (3, 1, 3, 2)

    def test_project_rejects_a_coloring_of_another_size(self):
        _, mm, _, _ = merge_by_coloring(c4(), c4_td(), Coloring((1, 2, 1, 2), 5))
        with pytest.raises(ValueError, match="^coloring covers 2 vertices, quotient has 3$"):
            project_coloring(mm, Coloring((1, 2), 5))

    def test_expand_replays_fibers_in_order(self):
        g, td = c4(), c4_td()
        _, mm, alpha2, _ = merge_by_coloring(g, td, Coloring((1, 2, 1, 2), 5))
        s2 = RecoloringSequence((RecoloringStep(0, 3),), alpha2)
        s = expand_sequence(mm, s2)
        assert [(st.vertex, st.new_color) for st in s.steps] == [(0, 3), (2, 3)]
        assert s.start.colors == (1, 2, 1, 2)
        assert apply_sequence(g, s).colors == (3, 2, 3, 2)


class TestPipeline:
    def test_four_cycle_end_to_end(self):
        g, td = c4(), c4_td()
        alpha = Coloring((1, 2, 1, 2), 5)
        beta = Coloring((2, 1, 2, 1), 5)
        res = run_pipeline(g, td, alpha, beta, 5)
        assert res.bridge_status == "oracle"
        assert res.composed.start == alpha
        assert apply_sequence(g, res.composed).colors == beta.colors
        assert len(res.composed) >= rt_distance(g, 5, alpha, beta)
        # gamma1 and gamma2 use colors 1..k+1 and t >= 2k+1, so shifting the
        # vertices of D onto the k spare colors joins them in at most 2|D|
        # steps, and the bridge is a shortest walk
        moved = [v for v in range(g.n) if res.gamma1[v] != res.gamma2[v]]
        assert len(res.bridge) <= 2 * len(moved)
        counts = Counter(
            st.vertex for s in (res.alpha_side, res.bridge, res.beta_side) for st in s.steps
        )
        assert res.per_vertex == {v: counts[v] for v in range(g.n)}

    def test_bridge_none_returns_halves_only(self):
        g, td = c4(), c4_td()
        alpha = Coloring((1, 2, 1, 2), 5)
        beta = Coloring((2, 1, 2, 1), 5)
        res = run_pipeline(g, td, alpha, beta, 5, bridge="none")
        assert res.bridge is None and res.composed is None
        assert res.bridge_status == "unavailable"
        assert apply_sequence(g, res.alpha_side).colors == res.gamma1.colors
        assert apply_sequence(g, res.beta_side).colors == res.gamma2.colors

    def test_small_palette_rejected(self):
        g, td = c4(), c4_td()
        with pytest.raises(ValueError):
            run_pipeline(g, td, Coloring((1, 2, 1, 2), 4), Coloring((2, 1, 2, 1), 4), 4)

    def test_state_cap_surfaces_as_infeasible(self):
        g, td = c4(), c4_td()
        alpha = Coloring((1, 2, 1, 2), 5)
        beta = Coloring((2, 1, 2, 1), 5)
        with pytest.raises(OracleInfeasible) as info:
            run_pipeline(g, td, alpha, beta, 5, state_cap=10)
        # one error, both classes: the cap refusal is an OracleInfeasible
        assert isinstance(info.value, StateCapExceeded)
        assert str(info.value) == "state space 5**4 exceeds cap 10"

    def test_empty_bridge_is_a_walk_not_null(self):
        # gamma1 == gamma2 here, so the oracle bridge ran and is empty
        g, td, _ = gen_ktree(5, 2, 3)
        alpha = Coloring((1, 2, 3, 3, 1), 5)
        beta = Coloring((5, 4, 3, 3, 5), 5)
        res = run_pipeline(g, td, alpha, beta, 5)
        assert res.bridge is not None and res.bridge.steps == ()
        assert res.bridge_status == "oracle"
        d = res.to_json_dict()
        assert d["bridge"] == {"palette": 5, "start": [1, 2, 3, 3, 1], "steps": []}
        assert d["composed"]["steps"] == [[4, 5], [1, 4], [0, 5]]

    def test_huge_state_space_surfaces_as_infeasible(self):
        n = 7000
        td = TreeDecomposition([[v] for v in range(n)], [(v, v + 1) for v in range(n - 1)])
        alpha = Coloring((1,) * n, 5)
        beta = Coloring((2,) * n, 5)
        with pytest.raises(OracleInfeasible, match=r"5\*\*7000"):
            run_pipeline(Graph(n, []), td, alpha, beta, 5, bridge="oracle")

    @pytest.mark.parametrize("bridge", ["oracle", "none"])
    def test_empty_instance_has_empty_halves(self, bridge):
        # the decomposition [[]] has width -1; the pipeline treats it as 0
        empty = Coloring((), 5)
        res = run_pipeline(Graph(0, []), TreeDecomposition([[]], []), empty, empty, 5, bridge)
        assert res.per_vertex == {}
        assert res.gamma1 == res.gamma2 == empty
        assert res.alpha_side.steps == res.beta_side.steps == ()

    def test_result_serializes(self):
        g, td = c4(), c4_td()
        res = run_pipeline(g, td, Coloring((1, 2, 1, 2), 5), Coloring((2, 1, 2, 1), 5), 5)
        d = res.to_json_dict()
        assert d["bridge_status"] == "oracle"
        assert d["composed"]["palette"] == 5

    @given(
        st.integers(min_value=5, max_value=8),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_width_two_instances(self, n, seed):
        g, td = gen_partial_ktree(n, 2, seed)
        _, o = degeneracy(g)
        alpha = gen_random_coloring(g, o, 5, seed + 1)
        beta = gen_random_coloring(g, o, 5, seed + 2)
        res = run_pipeline(g, td, alpha, beta, 5)
        assert apply_sequence(g, res.composed).colors == beta.colors

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=4, max_value=60),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_expanded_halves_replay_to_small_colorings(self, k, n, seed):
        # expand_sequence trusts its quotient walk; check the halves it
        # returns on the original graph instead
        g, td = gen_partial_ktree(n, k, seed)
        _, o = degeneracy(g)
        t = 2 * k + 1
        alpha = gen_random_coloring(g, o, t, seed + 1)
        beta = gen_random_coloring(g, o, t, seed + 2)
        res = run_pipeline(g, td, alpha, beta, t, bridge="none")
        counts = Counter()
        for side, start, gamma in (
            (res.alpha_side, alpha, res.gamma1), (res.beta_side, beta, res.gamma2)
        ):
            assert side.start.colors == start.colors
            assert apply_sequence(g, side).colors == gamma.colors
            assert len(set(gamma.colors)) <= k + 1
            counts.update(st.vertex for st in side.steps)
        assert res.per_vertex == {v: counts[v] for v in range(g.n)}


def _count_calls(monkeypatch, fn):
    """Replace fn at every binding in the package by a counting wrapper;
    returns the list that grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "recolor"]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_pipeline_checks_each_coloring_and_replays_each_walk_once(monkeypatch):
    g, td = gen_partial_ktree(30, 2, 3)
    _, o = degeneracy(g)
    alpha = gen_random_coloring(g, o, 5, 4)
    beta = gen_random_coloring(g, o, 5, 5)
    proper = _count_calls(monkeypatch, recolor.graphs.is_proper)
    replays = _count_calls(monkeypatch, recolor.engine.apply_sequence)
    validated = _count_calls(monkeypatch, recolor.treewidth.validate_decomposition)
    run_pipeline(g, td, alpha, beta, 5, bridge="none")
    # each merge checks its input coloring; each half's best_choice_sequence
    # checks both endpoints and replays its quotient walk, which checks the
    # start once more
    assert len(proper) == 2 + 2 * 3
    assert len(replays) == 2
    # the alpha merge validates td; the beta merge reuses that
    assert len(validated) == 1


def test_over_cap_oracle_bridge_is_refused_before_the_halves(monkeypatch):
    g, td = gen_partial_ktree(30, 2, 3)
    _, o = degeneracy(g)
    alpha = gen_random_coloring(g, o, 5, 4)
    beta = gen_random_coloring(g, o, 5, 5)
    merged = _count_calls(monkeypatch, recolor.treewidth.merge_by_coloring)
    built = _count_calls(monkeypatch, recolor.engine.best_choice_sequence)
    with pytest.raises(OracleInfeasible, match=r"^state space 5\*\*30 exceeds cap 2000000$"):
        run_pipeline(g, td, alpha, beta, 5, bridge="oracle")
    assert merged == built == []


@pytest.mark.parametrize(
    "bridge, t, message",
    [
        ("exact", 5, "unknown bridge 'exact'"),
        ("none", 4, "palette 4 too small for width 2; need >= 5"),
    ],
)
def test_bad_bridge_or_palette_is_refused_before_any_merge(monkeypatch, bridge, t, message):
    g, td = gen_partial_ktree(30, 2, 3)
    _, o = degeneracy(g)
    alpha = gen_random_coloring(g, o, 4, 4)
    beta = gen_random_coloring(g, o, 4, 5)
    merged = _count_calls(monkeypatch, recolor.treewidth.merge_by_coloring)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pipeline(g, td, alpha, beta, t, bridge=bridge)
    assert merged == []


def test_composed_walk_off_beta_raises_improper_endpoint(monkeypatch):
    # a replay that ends anywhere but beta trips the postcondition
    monkeypatch.setattr(recolor.treewidth, "apply_sequence", lambda g, s: s.start)
    with pytest.raises(ImproperEndpoint, match="^composed sequence does not end at beta$"):
        run_pipeline(c4(), c4_td(), Coloring((1, 2, 1, 2), 5), Coloring((2, 1, 2, 1), 5), 5)
