"""The package's public names, no dead imports in its modules, and no
hand-written equality."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recolor

PACKAGE_DIR = Path(recolor.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")

PUBLIC_NAMES = [
    "AnalysisReport", "Coloring", "DEFAULT_STATE_CAP",
    "DecompositionError", "DisconnectedTrace", "EliminationOrdering",
    "EmptyValidSet", "ExperimentConfig", "ExperimentRow", "Graph",
    "ImproperEndpoint", "ImproperInput", "ImproperIntermediate",
    "InvalidParams", "MergeMap", "MergeResult",
    "NotAClique", "NotChordal", "NullStep", "OracleInfeasible",
    "PaletteExhausted", "PaletteViolation", "PipelineResult",
    "RecolorError", "RecoloringSequence", "RecoloringStep",
    "StateCapExceeded", "TreeDecomposition", "UncoveredEdge",
    "UncoveredVertex", "Violation", "analysis", "analyze_sequence",
    "apply_sequence", "best_choice_sequence", "certify_perfect",
    "degeneracy", "engine", "enumerate_colorings", "errors",
    "expand_sequence", "experiment", "frozen_states", "gen_chordal",
    "gen_instance", "gen_ktree", "gen_partial_ktree",
    "gen_random_coloring", "generators", "graphs", "greedy_color",
    "is_proper", "iter_colorings", "local_best_choice", "mcs_peo",
    "merge_by_coloring", "naughty_recolorings", "oracle",
    "per_vertex_counts", "project_coloring",
    "resolve_t_rule", "reverse_sequence", "rows_to_csv", "rows_to_json",
    "rt_connected", "rt_diameter", "rt_distance", "rt_path",
    "run_experiment", "run_pipeline", "select_best_choice", "treewidth",
    "validate_decomposition",
]


def test_public_names_are_pinned():
    # an added or removed export must be a deliberate edit of this list; a
    # fresh interpreter, since importing submodules such as recolor.cli
    # binds them on the package too
    code = "import recolor; print(*(n for n in dir(recolor) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert sorted(out.split()) == sorted(PUBLIC_NAMES)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_equality(path):
    # value types declare equality and hashing through @dataclass
    written = [
        f"{node.name}.{item.name} (line {item.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
    ]
    assert written == []
