"""Value types are frozen dataclasses with one constructor each: assignment
is refused, equality and hashing are the generated ones, and constructors
normalize their inputs."""

from __future__ import annotations

import dataclasses
import json

import pytest

from recolor import (
    Coloring,
    EliminationOrdering,
    ExperimentConfig,
    Graph,
    MergeMap,
    RecoloringSequence,
    RecoloringStep,
    TreeDecomposition,
    analyze_sequence,
    run_pipeline,
)
from recolor import io as rio


def instances():
    g = Graph(3, [(0, 1), (1, 2)])
    ordering = EliminationOrdering(g, range(3))
    alpha = Coloring([1, 2, 1], 3)
    td = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    s = RecoloringSequence((), alpha)
    return {
        "Graph": g,
        "Coloring": alpha,
        "TreeDecomposition": td,
        "EliminationOrdering": ordering,
        "RecoloringSequence": s,
        "MergeMap": MergeMap((0, 1, 0)),
        "AnalysisReport": analyze_sequence(g, ordering, s),
        "PipelineResult": run_pipeline(g, td, alpha, alpha, 5, bridge="none"),
        "ExperimentConfig": ExperimentConfig(),
    }


@pytest.mark.parametrize(
    "name",
    [
        "Graph", "Coloring", "TreeDecomposition",
        "EliminationOrdering", "RecoloringSequence", "MergeMap",
        "AnalysisReport", "PipelineResult", "ExperimentConfig",
    ],
)
def test_assigning_an_attribute_is_refused(name):
    value = instances()[name]
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("colors", [[1.7, 2], [1, 2.0], ["1", 2]])
def test_a_non_integer_color_is_a_type_error(colors):
    with pytest.raises(TypeError):
        Coloring(colors, 3)


@pytest.mark.parametrize("palette", [2.5, 3.0, "3"])
def test_a_non_integer_palette_size_is_a_type_error(palette):
    with pytest.raises(TypeError):
        Coloring([1, 2], palette)


def test_equality_and_hash_are_those_of_the_fields():
    c = Coloring([1, 2], 3)
    assert c == Coloring((1, 2), 3) and c != Coloring((1, 2), 4)
    assert hash(Coloring((1, 2), 3)) == hash(((1, 2), 3))
    g = Graph(3, [(0, 1), (1, 2), (1, 0)])
    assert g == Graph(3, [(2, 1), (0, 1)]) and g != Graph(4, [(0, 1), (1, 2)])
    assert hash(g) == hash((g.n, g.adj))
    assert repr(g) == "Graph(n=3, m=2)" and repr(c) == "Coloring([1, 2], t=3)"


def test_ordering_equality_and_hash_ignore_its_graph(tmp_path):
    edges = [(0, 1), (1, 2)]
    g, same = Graph(3, edges), Graph(3, edges)
    o = EliminationOrdering(g, (1, 0, 2))
    # bool ids are normalized to ints, so the JSON written reads back
    for order in ([1, 0, 2], (True, False, 2)):
        other = EliminationOrdering(same, order)
        assert o == other and hash(o) == hash(other)
        assert all(type(v) is int for v in other.order)
        p = tmp_path / "o.json"
        p.write_text(json.dumps(rio.ordering_to_json(other)))
        assert json.loads(p.read_text()) == {"order": [1, 0, 2], "perfect": True}
        assert rio.read_ordering(p, g) == o
    assert hash(o) == hash((o.order, o.back_nbrs)) == hash(((1, 0, 2), ((1,), (), (1,))))
    assert "graph" not in repr(o) and o.graph is g


def test_ordering_back_neighborhoods_are_derived_never_passed():
    g = Graph(2, [(0, 1)])
    for derived in ({"back_nbrs": ((), (0,))}, {"perfect": True}):
        with pytest.raises(TypeError):
            EliminationOrdering(g, (0, 1), **derived)


def test_walk_steps_are_held_as_steps_of_two_ints():
    g = Graph(3, [(0, 1), (1, 2)])
    ordering = EliminationOrdering(g, range(3))
    start = Coloring([1, 2, 1], 3)
    s = RecoloringSequence((RecoloringStep(1, 3), RecoloringStep(0, 2)), start)
    assert RecoloringSequence(s.steps, start).steps is s.steps
    for steps in (((1, 3), (0, 2)), [(True, 3), (False, 2)]):
        plain = RecoloringSequence(steps, start)
        assert plain == s
        assert all(type(st) is RecoloringStep for st in plain.steps)
        assert all(type(x) is int for st in plain.steps for x in st)
        obj = rio.sequence_to_json(plain)
        assert json.dumps(obj) == json.dumps(rio.sequence_to_json(s))
        assert rio.sequence_from_json(obj) == s
        assert analyze_sequence(g, ordering, plain) == analyze_sequence(g, ordering, s)
    for steps in (((0.0, 3),), ((0, 2.5),)):
        with pytest.raises(TypeError):
            RecoloringSequence(steps, start)


def test_tree_decomposition_normalizes_any_iterables():
    td = TreeDecomposition([[0, 1], {1, 2}], [[0, 1]])
    assert td == TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    assert td.bags == (frozenset({0, 1}), frozenset({1, 2}))
    assert td.tree_edges == ((0, 1),)
    assert hash(td) == hash(TreeDecomposition(iter([(1, 0), (2, 1)]), iter([(0, 1)])))


def test_each_type_has_one_constructor():
    assert not hasattr(TreeDecomposition, "make")
    assert not hasattr(Coloring, "with_color")
