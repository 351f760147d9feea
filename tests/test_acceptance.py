"""End-to-end acceptance checks.

Each test exercises one advertised capability on a sizeable batch of
instances, prints a single PASS/FAIL line with its runtime, and enforces
a wall-clock budget.  Run with `pytest tests/test_acceptance.py -v -s`
(or plain pytest; the lines print through capture).
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

import pytest

from recolor import (
    Coloring,
    ExperimentConfig,
    Graph,
    analyze_sequence,
    apply_sequence,
    best_choice_sequence,
    degeneracy,
    enumerate_colorings,
    gen_chordal,
    gen_ktree,
    gen_partial_ktree,
    gen_random_coloring,
    is_proper,
    mcs_peo,
    merge_by_coloring,
    rows_to_csv,
    rt_connected,
    rt_diameter,
    rt_distance,
    run_experiment,
    run_pipeline,
)

import analysis_reference as ref


@pytest.fixture
def report(capsys):
    def _report(name: str, passed: bool, elapsed: float, budget: float, detail: str):
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[{status}] {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s budget]")

    return _report


@functools.lru_cache(maxsize=None)
def _bound_run(d: int):
    """Shared batch for the structure and growth criteria."""
    cfg = ExperimentConfig(
        family="ktree",
        n_values=[10, 25, 50, 120, 250, 500],
        k=d,
        t_rule="2d+1",
        trials=210,
        seed=100 + d,
    )
    return run_experiment(cfg)


def test_01_worked_example(report):
    t0 = time.monotonic()
    g = Graph(3, [(0, 1), (1, 2)])
    ordering = mcs_peo(g)
    alpha = Coloring((1, 2, 1), 3)
    beta = Coloring((2, 1, 2), 3)
    s = best_choice_sequence(g, ordering, alpha, beta)
    trace = [(st.vertex, st.new_color) for st in s.steps]
    ok = (
        ordering.order == (0, 1, 2)
        and trace == [(1, 3), (0, 2), (2, 2), (1, 1)]
        and apply_sequence(g, s).colors == (2, 1, 2)
        and rt_distance(g, 3, alpha, beta) == 4
        and enumerate_colorings(g, 3) == 12
    )
    elapsed = time.monotonic() - t0
    report("worked example", ok and elapsed < 1, elapsed, 1,
           f"trace {trace}, shortest walk 4, 12 colorings")
    assert ok
    assert elapsed < 1


def test_02_validity_and_oracle_dominance(report):
    t0 = time.monotonic()
    total = 0
    max_gap = 0
    for seed in range(260):
        for family in ("ktree", "partial"):
            k = 1 + seed % 2
            n = k + 2 + seed % (5 - k)
            if family == "ktree":
                g, _, ordering = gen_ktree(n, k, seed)
                d = ordering.max_back_degree
            else:
                g, _ = gen_partial_ktree(n, k, seed)
                d, ordering = degeneracy(g)
            d = max(d, 1)
            t = d + 2 + seed % (d + 1)
            alpha = gen_random_coloring(g, ordering, t, seed + 1)
            beta = gen_random_coloring(g, ordering, t, seed + 2)
            s = best_choice_sequence(g, ordering, alpha, beta)
            end = apply_sequence(g, s)
            assert end.colors == beta.colors
            dist = rt_distance(g, t, alpha, beta)
            assert dist is not None
            assert len(s) >= dist
            assert analyze_sequence(g, ordering, s).passed
            max_gap = max(max_gap, len(s) - dist)
            total += 1
    elapsed = time.monotonic() - t0
    ok = total >= 500 and elapsed < 120
    report("validity and shortest-walk dominance", ok, elapsed, 120,
           f"{total} instances valid, ended at target, length >= exact distance "
           f"(max slack {max_gap})")
    assert ok


def test_03_per_vertex_budget(report):
    # the save inequality, 1 + ceil((kappa - r) / d) recolorings per vertex at
    # t = 2d+1, counted by the reference analysis rather than the library's
    t0 = time.monotonic()
    details = []
    walks = 0
    least = math.inf
    for d in (1, 2, 3):
        t = 2 * d + 1
        worst = 0
        slack = math.inf
        for seed in range(60):
            n = (10, 25, 50, 120, 250, 500)[seed % 6]
            g, _, ordering = gen_ktree(n, d, 100 * d + seed)
            alpha = gen_random_coloring(g, ordering, t, seed + 1)
            beta = gen_random_coloring(g, ordering, t, seed + 2)
            by = ref._steps_by_vertex(best_choice_sequence(g, ordering, alpha, beta))
            for v, back in enumerate(ordering.back_nbrs):
                rsteps = ref._restriction_steps(by, (*back, v))
                budget = ref._save_inequality(rsteps, v, len(back))
                worst = max(worst, budget.count_v)
                slack = min(slack, budget.bound - budget.count_v)
            walks += 1
        least = min(least, slack)
        details.append(f"d={d}: max {worst}, least slack {slack}")
    elapsed = time.monotonic() - t0
    ok = least >= 0 and walks >= 180 and elapsed < 300
    report("per-vertex recoloring budget", ok, elapsed, 300,
           f"{walks} walks at t=2d+1; " + "; ".join(details))
    assert ok


def test_04_structural_guarantees(report):
    t0 = time.monotonic()
    checked = 0
    violations = 0
    for d in (1, 2, 3):
        _, summary = _bound_run(d)
        violations += summary["violations"]
        t = 2 * d + 1
        for seed in range(30):
            n = (20, 60, 100)[seed % 3]
            g, _, ordering = gen_ktree(n, d, 1000 * d + seed)
            alpha = gen_random_coloring(g, ordering, t, seed + 1)
            beta = gen_random_coloring(g, ordering, t, seed + 2)
            s = best_choice_sequence(g, ordering, alpha, beta)
            # at t = 2d+1 every vertex gets the spacing and budget checks,
            # and the back-degree-d ones the coverage check
            assert ordering.max_back_degree == d
            violations += len(analyze_sequence(g, ordering, s).violations)
            checked += g.n
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 300
    report("causation, spacing, budget and coverage guarantees", ok, elapsed, 300,
           f"{checked} vertex checks plus 630 batch trials, {violations} violations")
    assert ok


def test_05_connectivity_frontier(report):
    t0 = time.monotonic()
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    frozen_ok = not rt_connected(k3, 3) and rt_diameter(k3, 3) == math.inf
    connected = 0
    for seed in range(110):
        d = 1 + seed % 3
        n = 1 + seed % 6
        g, ordering = gen_chordal(n, d, seed)
        dd = max(ordering.max_back_degree, 1)
        assert rt_connected(g, dd + 2)
        connected += 1
    elapsed = time.monotonic() - t0
    ok = frozen_ok and connected >= 100 and elapsed < 60
    report("reachability frontier", ok, elapsed, 60,
           f"triangle frozen at 3 colors; {connected} chordal instances "
           f"connected at d+2")
    assert ok


def test_06_merge_invariants(report):
    t0 = time.monotonic()
    total = 0
    for seed in range(210):
        k = 1 + seed % 3
        n = k + 3 + seed % 7
        g, td = gen_partial_ktree(n, k, seed)
        _, ordering = degeneracy(g)
        alpha = gen_random_coloring(g, ordering, 2 * k + 1, seed + 5)
        g2, mm, alpha2, td2 = merge_by_coloring(g, td, alpha)
        assert mcs_peo(g2).perfect
        assert degeneracy(g2)[0] <= k
        assert is_proper(g2, alpha2)
        for fiber in mm.fibers:
            members = sorted(fiber)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert v not in g.adj[u]
        for b in td2.bags:
            cols = [alpha2[v] for v in b]
            assert len(cols) == len(set(cols))
        total += 1
    elapsed = time.monotonic() - t0
    ok = total >= 200 and elapsed < 60
    report("same-color merge invariants", ok, elapsed, 60,
           f"{total} quotients chordal, degeneracy <= width, fibers independent, "
           f"colorings proper")
    assert ok


def test_07_pipeline(report):
    t0 = time.monotonic()
    total = 0
    moved_total = 0
    slack = math.inf
    for seed in range(110):
        n = 5 + seed % 4
        g, td = gen_partial_ktree(n, 2, seed)
        _, ordering = degeneracy(g)
        alpha = gen_random_coloring(g, ordering, 5, seed + 1)
        beta = gen_random_coloring(g, ordering, 5, seed + 2)
        res = run_pipeline(g, td, alpha, beta, 5)
        assert res.bridge_status == "oracle"
        assert apply_sequence(g, res.composed).colors == beta.colors
        # gamma1 and gamma2 use colors 1..3 and t = 5: shifting the vertices
        # of D = {v : gamma1(v) != gamma2(v)} onto the two spare colors joins
        # them in at most 2|D| steps, and the bridge is a shortest walk
        moved = sum(res.gamma1[v] != res.gamma2[v] for v in range(g.n))
        assert len(res.bridge) <= 2 * moved
        slack = min(slack, 2 * moved - len(res.bridge))
        counts = Counter(
            st.vertex for s in (res.alpha_side, res.bridge, res.beta_side) for st in s.steps
        )
        assert res.per_vertex == {v: counts[v] for v in range(g.n)}
        moved_total += moved > 0
        total += 1
    elapsed = time.monotonic() - t0
    ok = total >= 100 and elapsed < 180
    report("two-sided planner", ok, elapsed, 180,
           f"{total} width-2 plans compose to the target, every bridge within "
           f"2|D| steps (least slack {slack}; D nonempty in {moved_total})")
    assert ok


def test_08_linear_growth(report):
    t0 = time.monotonic()
    rows, _ = _bound_run(2)
    by_n: dict[int, list[float]] = {}
    for r in rows:
        assert not r.error
        by_n.setdefault(r.n, []).append(r.length / r.n)
    means = {n: sum(v) / len(v) for n, v in sorted(by_n.items())}
    small = means[min(means)]
    large = means[max(means)]
    elapsed = time.monotonic() - t0
    ok = large <= max(4 * small, small + 2) and elapsed < 60
    report("steps grow linearly with n", ok, elapsed, 60,
           f"mean steps/vertex {small:.2f} at n={min(means)} vs {large:.2f} "
           f"at n={max(means)}")
    assert ok


def test_09_determinism(report):
    t0 = time.monotonic()
    cfg = dict(family="partial-ktree", n_values=[12, 30], k=2, t_rule="2d+1",
               trials=24, seed=77)
    csv1 = rows_to_csv(run_experiment(ExperimentConfig(**cfg))[0])
    csv2 = rows_to_csv(run_experiment(ExperimentConfig(**cfg))[0])
    a1 = gen_ktree(40, 2, 9)
    a2 = gen_ktree(40, 2, 9)
    g, _, ordering = a1
    alpha = gen_random_coloring(g, ordering, 5, 1)
    beta = gen_random_coloring(g, ordering, 5, 2)
    s1 = best_choice_sequence(g, ordering, alpha, beta)
    s2 = best_choice_sequence(g, ordering, alpha, beta)
    ok = (
        csv1 == csv2
        and a1.graph == a2.graph
        and a1.decomposition == a2.decomposition
        and s1 == s2
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    report("byte-identical reruns", ok, elapsed, 60,
           "matching CSV bytes, graphs and step lists across repeat runs")
    assert ok
