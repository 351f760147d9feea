"""Pinned step digests: the walks built at fixed seeds must not change.

Each digest is the sha256 of a walk's step tuples, written as
"v:c v:c ...|" per walk, the format perfbench's `walk_digest` uses.  A
speedup of ordering or construction must leave every digest as it is; a
deliberate change of the walks must update them and say why.
"""

from __future__ import annotations

import hashlib

from recolor import (
    best_choice_sequence,
    degeneracy,
    gen_chordal,
    gen_partial_ktree,
    gen_random_coloring,
    mcs_peo,
    run_pipeline,
)

# Recorded before `_peel` took integer heap keys and the splice learned to
# skip a vertex that never has to move.
CHORDAL_LEN, CHORDAL_BLOCKED = 1824, 116
CHORDAL_DIGEST = "fb28c5725476abac24f59bd107acf37618ced12f7a097c28f5ea62aff181182d"
PARTIAL_LEN, PARTIAL_BLOCKED = 1362, 318
PARTIAL_DIGEST = "c90329d91ad9b6e67e2176a794ffa2906b1bef3bf2e7fbd5641fe6fe57d4ba30"
PIPELINE_LENS = (425, 543)
PIPELINE_DIGEST = "60355a35d3e1e81a5c2ab4ae797aca58b4817f2957adeba5a500a207575b1f71"


def digest(*walks):
    h = hashlib.sha256()
    for w in walks:
        h.update(" ".join(f"{v}:{c}" for v, c in w.steps).encode())
        h.update(b"|")
    return h.hexdigest()


def test_chordal_walk_on_mcs_peo():
    g, _ = gen_chordal(2000, 3, 5)
    ordering = mcs_peo(g)
    alpha = gen_random_coloring(g, ordering, 7, 11)
    beta = gen_random_coloring(g, ordering, 7, 12)
    stats: dict = {}
    s = best_choice_sequence(g, ordering, alpha, beta, stats)
    assert (len(s), stats["rule1_blocked"]) == (CHORDAL_LEN, CHORDAL_BLOCKED)
    assert digest(s) == CHORDAL_DIGEST


def test_partial_3tree_walk_on_degeneracy():
    g, _ = gen_partial_ktree(1000, 3, 2, keep_prob=0.7)
    d, ordering = degeneracy(g)
    alpha = gen_random_coloring(g, ordering, d + 2, 21)
    beta = gen_random_coloring(g, ordering, d + 2, 22)
    stats: dict = {}
    s = best_choice_sequence(g, ordering, alpha, beta, stats)
    assert d == 3
    assert (len(s), stats["rule1_blocked"]) == (PARTIAL_LEN, PARTIAL_BLOCKED)
    assert digest(s) == PARTIAL_DIGEST


def test_pipeline_halves():
    g, td = gen_partial_ktree(500, 2, 3, keep_prob=0.7)
    _, ordering = degeneracy(g)
    alpha = gen_random_coloring(g, ordering, 5, 31)
    beta = gen_random_coloring(g, ordering, 5, 32)
    res = run_pipeline(g, td, alpha, beta, 5, bridge="none")
    assert (len(res.alpha_side), len(res.beta_side)) == PIPELINE_LENS
    assert digest(res.alpha_side, res.beta_side) == PIPELINE_DIGEST
