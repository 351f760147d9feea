"""Mutation check: each mutant of the library must be killed by the tests
named for it.

    python3 scripts/mutants.py

A mutant is one exact text replacement in one file under `src/recolor`,
together with the test node ids that must fail once it is applied.  Each
mutant stands for a fault that a check of this repository is meant to
catch; when a refactor moves the code a mutant targets, it ports the
mutant's texts, so the list keeps up with the code.

The script first checks that every mutant's old text occurs exactly once
in its file.  It then copies the working tree (without `.git` and
caches) to a temporary directory and runs the union of all named tests
there, unmutated; they must pass.  Then, per mutant, it makes a fresh
copy, applies the mutant and runs its tests.  Every run uses the copy as
its working directory, `PYTHONPATH=<copy>/src`, `-p no:cacheprovider` and
`--hypothesis-seed=0`, so tests that read their own tree read the copy,
and no hypothesis database or pytest cache carries over.

Exits 0 when every old text matches once, the unmutated run passes and
every named test fails under its mutant; 1 otherwise.  Standard library
only; pytest and hypothesis must be installed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/recolor
    old: str
    new: str
    kills: tuple[str, ...]


MUTANTS = [
    # vertices without room: d >= ceil(t/2), not d >= floor(t/2)
    Mutant(
        "cramped-floor", "analysis.py",
        "((t + 1) // 2).__le__", "(t // 2).__le__",
        (
            "tests/test_analysis.py::TestTightAndSaved::test_saved_on_worked_trace",
            "tests/test_analysis.py::TestTightAndSaved::test_tight_and_saved_with_zero_one_and_two_recolorings",
            "tests/test_analysis_reference.py::test_naughty_scan_matches_reference",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
            "tests/test_walk_inputs.py::test_analysis_rejects_a_repeated_back_neighbor",
        ),
    ),
    # the loop's correction subtracts kappa, not the restriction's length
    Mutant(
        "correction-length", "analysis.py",
        "saved_total += r - kappa", "saved_total += r - m",
        (
            "tests/test_analysis.py::TestTightAndSaved::test_saved_on_worked_trace",
            "tests/test_analysis.py::TestTightAndSaved::test_tight_and_saved_with_zero_one_and_two_recolorings",
            "tests/test_analysis_reference.py::test_naughty_scan_matches_reference",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
            "tests/test_walk_inputs.py::test_analysis_rejects_a_repeated_back_neighbor",
        ),
    ),
    # every third node drops the link to its vertex's older nodes
    Mutant(
        "chain-links", "engine.py",
        "self.same.append(self.first[vertex])",
        "self.same.append(self.first[vertex] if z % 3 else _HEAD)",
        (
            "tests/test_acceptance.py::test_02_validity_and_oracle_dominance",
            "tests/test_acceptance.py::test_03_per_vertex_budget",
            "tests/test_acceptance.py::test_04_structural_guarantees",
            "tests/test_acceptance.py::test_07_pipeline",
            "tests/test_acceptance.py::test_08_linear_growth",
            "tests/test_acceptance.py::test_09_determinism",
            "tests/test_analysis.py::TestSpacingAndCausation::test_spacing_holds_at_tight_palette",
            "tests/test_analysis.py::TestTightAndSaved::test_save_inequality_holds_at_tight_palette",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_bench_spans.py::test_traced_run_finds_every_span[degenerate-sweep]",
            "tests/test_bench_spans.py::test_traced_run_finds_every_span[treewidth-pipeline]",
            "tests/test_demos.py::test_demo_runs[03_structure_checks.py]",
            "tests/test_engine.py::TestBestChoiceSequence::test_stagewise_restriction_coherence",
            "tests/test_engine.py::TestLocalBestChoice::test_vertex_chains_hold_exactly_their_nodes",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference_at_benchmark_scale[1-2d+1]",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference_at_benchmark_scale[1-d+2]",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference_at_benchmark_scale[2-d+2]",
            "tests/test_engine_reference.py::test_local_best_choice_on_sequences_matches_reference",
            "tests/test_harness.py::TestCli::test_recolor_empty_valid_set_reports_walk_position",
            "tests/test_harness.py::TestExperiment::test_naughty_scan_on_partial_3trees",
            "tests/test_harness.py::TestExperiment::test_small_batch_is_clean",
            "tests/test_step_digests.py::test_chordal_walk_on_mcs_peo",
            "tests/test_step_digests.py::test_partial_3tree_walk_on_degeneracy",
            "tests/test_step_digests.py::test_pipeline_halves",
            "tests/test_treewidth.py::TestPipeline::test_expanded_halves_replay_to_small_colorings",
            "tests/test_treewidth.py::test_pipeline_checks_each_coloring_and_replays_each_walk_once",
        ),
    ),
    # a gap saves its steps past the first d, not a single step
    Mutant(
        "gap-saves-one", "analysis.py",
        "r += gap - d", "r += gap > d",
        (
            "tests/test_analysis_reference.py::test_naughty_scan_matches_reference",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
        ),
    ),
    # causation compares with the color after p, not before it
    Mutant(
        "history-shift", "analysis.py",
        "zip(pos, pos[1:], hist)", "zip(pos, pos[1:], hist[1:])",
        (
            "tests/test_acceptance.py::test_02_validity_and_oracle_dominance",
            "tests/test_acceptance.py::test_04_structural_guarantees",
            "tests/test_analysis.py::TestAnalyzeSequence::test_constructed_sequences_pass_everything",
            "tests/test_analysis.py::TestAnalyzeSequence::test_report_round_trips_to_json_dict",
            "tests/test_analysis.py::TestAnalyzeSequence::test_worked_trace_report",
            "tests/test_analysis.py::TestSpacingAndCausation::test_causation_holds_at_any_palette",
            "tests/test_analysis.py::TestSpacingAndCausation::test_worked_trace_is_clean",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
            "tests/test_bench_spans.py::test_traced_run_finds_every_span[chordal-solve]",
            "tests/test_bench_spans.py::test_traced_run_finds_every_span[degenerate-sweep]",
            "tests/test_harness.py::TestCli::test_bench_csv_and_summary",
            "tests/test_harness.py::TestCli::test_bench_json_summary_to_stderr",
            "tests/test_harness.py::TestCli::test_recolor_then_analyze_round_trip",
            "tests/test_harness.py::TestExperiment::test_oracle_cross_check_dominates",
            "tests/test_harness.py::TestExperiment::test_small_batch_is_clean",
        ),
    ),
    # the naughty scan's forced window one step short
    Mutant(
        "forced-window", "analysis.py",
        "forced[i + 1 : i + w2 + 1]", "forced[i + 1 : i + w2]",
        (
            "tests/test_analysis_reference.py::test_naughty_positions_match_reference",
        ),
    ),
    # the naughty scan's new-color window one step short
    Mutant(
        "new-window", "analysis.py",
        "new[i + 1 : i + w1 + 1]", "new[i + 1 : i + w1]",
        (
            "tests/test_analysis_reference.py::test_naughty_positions_match_reference",
        ),
    ),
    # coverage reads every back-neighbour's start color
    Mutant(
        "coverage-start-colors", "analysis.py",
        "seen.add(steps[by_vertex[i - 1]][1] if i > lo else s.start[u])",
        "seen.add(s.start[u])",
        (
            "tests/test_acceptance.py::test_02_validity_and_oracle_dominance",
            "tests/test_acceptance.py::test_04_structural_guarantees",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
        ),
    ),
    # coverage no longer exempts a tight gap that R's last step follows
    Mutant(
        "coverage-last-step", "analysis.py",
        "q != m - 1", "q != m",
        (
            "tests/test_acceptance.py::test_02_validity_and_oracle_dominance",
            "tests/test_acceptance.py::test_04_structural_guarantees",
            "tests/test_analysis_reference.py::test_report_matches_reference",
            "tests/test_analysis_reference.py::test_saved_count_matches_reference",
            "tests/test_bench_spans.py::test_traced_run_finds_every_span[degenerate-sweep]",
            "tests/test_harness.py::TestExperiment::test_small_batch_is_clean",
        ),
    ),
    # rule 3 picks the valid color whose first use in the future is earliest
    Mutant(
        "rule3-earliest", "engine.py",
        "max(vset, key=future.index)", "min(vset, key=future.index)",
        (
            "tests/test_acceptance.py::test_02_validity_and_oracle_dominance",
            "tests/test_acceptance.py::test_03_per_vertex_budget",
            "tests/test_acceptance.py::test_04_structural_guarantees",
            "tests/test_engine.py::TestSelectBestChoice::test_all_colors_in_future_picks_latest_first_use",
            "tests/test_engine.py::TestSelectBestChoice::test_smallest_fresh_when_target_blocked",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference",
            "tests/test_engine_reference.py::test_best_choice_sequence_matches_reference_at_benchmark_scale[1-d+2]",
            "tests/test_engine_reference.py::test_select_best_choice_matches_reference",
            "tests/test_harness.py::TestExperiment::test_small_batch_is_clean",
            "tests/test_step_digests.py::test_partial_3tree_walk_on_degeneracy",
            "tests/test_step_digests.py::test_pipeline_halves",
        ),
    ),
    # the bridge walks gamma1 -> gamma2 -> gamma1 -> gamma2: valid, 3x as long
    Mutant(
        "bridge-tripled", "treewidth.py",
        "mid = _oracle.rt_path(g, t, gamma1, gamma2, state_cap)\n",
        "mid = _oracle.rt_path(g, t, gamma1, gamma2, state_cap)\n"
        "        mid = RecoloringSequence(\n"
        "            mid.steps + reverse_sequence(mid).steps + mid.steps, mid.start\n"
        "        )\n",
        (
            "tests/test_acceptance.py::test_07_pipeline",
        ),
    ),
]


def anchor_errors() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    errors = []
    for m in MUTANTS:
        found = (ROOT / "src" / "recolor" / m.path).read_text().count(m.old)
        if found != 1:
            errors.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return errors


def run_tests(tree: Path, tests: list[str]) -> dict[str, str]:
    """Each test's outcome (PASSED, FAILED or ERROR) in the tree at `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfEp", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True).stdout
    outcomes = {}
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def main() -> int:
    errors = anchor_errors()
    if errors:
        print(*errors, sep="\n")
        return 1
    union = sorted({t for m in MUTANTS for t in m.kills})
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.monotonic()
        outcomes = run_tests(copy_tree(Path(tmp)), union)
        bad = [t for t in union if outcomes.get(t) != "PASSED"]
        print(f"unmutated: {len(union) - len(bad)} of {len(union)} tests pass "
              f"[{time.monotonic() - t0:.1f}s]")
        for t in bad:
            print(f"  {outcomes.get(t, 'not run')}: {t}")
        ok = not bad
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.monotonic()
            tree = copy_tree(Path(tmp))
            target = tree / "src" / "recolor" / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            outcomes = run_tests(tree, list(m.kills))
            survivors = [t for t in m.kills if outcomes.get(t) not in ("FAILED", "ERROR")]
            print(f"{m.name}: {len(m.kills) - len(survivors)} of {len(m.kills)} "
                  f"tests fail [{time.monotonic() - t0:.1f}s]")
            for t in survivors:
                print(f"  {outcomes.get(t, 'not run')}: {t}")
            ok = ok and bool(m.kills) and not survivors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
