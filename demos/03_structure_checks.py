"""What a constructed walk looks like under the microscope.

Generates a random 3-tree on 200 vertices, recolors it between two random
proper colorings with the tight palette 2d+1, and runs the full battery
of structural checks: per-vertex budgets, revisit spacing, causation,
palette coverage around tight revisits.
"""

from collections import Counter

from recolor import (
    analyze_sequence,
    best_choice_sequence,
    gen_ktree,
    gen_random_coloring,
)


def main():
    n, d, seed = 200, 3, 7
    t = 2 * d + 1
    g, _, ordering = gen_ktree(n, d, seed)
    alpha = gen_random_coloring(g, ordering, t, seed + 1)
    beta = gen_random_coloring(g, ordering, t, seed + 2)
    print(f"random {d}-tree, n={n}, palette 1..{t}")

    s = best_choice_sequence(g, ordering, alpha, beta)
    print(f"constructed walk: {len(s)} steps ({len(s) / n:.2f} per vertex)")

    report = analyze_sequence(g, ordering, s)
    hist = Counter(report.per_vertex.values())
    print("recolorings per vertex:")
    for count in sorted(hist):
        print(f"  {count} times: {hist[count]} vertices")
    print(f"worst vertex: {report.max_count} recolorings")

    print(f"tight revisits: {report.stats['tight']}, "
          f"uncharged neighbor moves: {report.stats['saved']}, "
          f"rotations: {report.stats['rotating']}")
    print(f"all checks passed: {report.passed}")
    for v in report.violations:
        print(f"  {v.check} at vertex {v.vertex}: {v.note}")


if __name__ == "__main__":
    main()
