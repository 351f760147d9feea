"""From a treewidth-2 graph to a full recoloring plan.

A four-cycle is not chordal, so the direct construction does not apply.
Merging same-colored vertices that share a bag of a tree decomposition
produces a chordal quotient; walks planned there expand back. Chaining
two such quotients (one per endpoint coloring) and bridging the middle
with exhaustive search yields a complete plan between any two colorings.
"""

from recolor import (
    Coloring,
    Graph,
    TreeDecomposition,
    apply_sequence,
    merge_by_coloring,
    run_pipeline,
)


def main():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    td = TreeDecomposition([{0, 1, 2}, {0, 2, 3}], [(0, 1)])
    alpha = Coloring((1, 2, 1, 2), 5)
    beta = Coloring((2, 1, 2, 1), 5)
    print("graph: 4-cycle; decomposition bags {0,1,2}, {0,2,3} (width 2)")

    g2, mm, alpha2, _ = merge_by_coloring(g, td, alpha)
    print(f"\nmerging same-colored bag mates under {alpha.colors}:")
    print(f"  projection {mm.pi} -> quotient on {g2.n} vertices")
    print(f"  fibers: {[sorted(f) for f in mm.fibers]}")
    print(f"  quotient edges {sorted(g2.edges())}, coloring {alpha2.colors}")

    res = run_pipeline(g, td, alpha, beta, t=5)
    print(f"\npipeline {alpha.colors} -> {beta.colors} with 5 colors:")
    print(f"  down to {res.gamma1.colors}: {len(res.alpha_side)} steps")
    print(f"  bridge to {res.gamma2.colors}: {len(res.bridge)} steps (exhaustive)")
    print(f"  back up to target: {len(res.beta_side)} steps reversed")
    end = apply_sequence(g, res.composed)
    print(f"  composed: {len(res.composed)} steps, ends at {end.colors}")
    busiest = max(res.per_vertex.values())
    print(f"  busiest vertex recolored {busiest} times")


if __name__ == "__main__":
    main()
