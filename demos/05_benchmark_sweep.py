"""A seeded batch run: walk lengths stay linear, per-vertex counts stay small.

Runs the experiment harness over k-trees of growing size at the tight
palette, prints the per-size picture and the summary, and shows the CSV
that `recolor bench` would emit. Same seed, same bytes, every time.
"""

from collections import defaultdict

from recolor import ExperimentConfig, rows_to_csv, run_experiment


def main():
    cfg = ExperimentConfig(
        family="ktree",
        n_values=[20, 50, 100, 200, 400],
        k=2,
        t_rule="2d+1",
        trials=50,
        seed=2024,
    )
    rows, summary = run_experiment(cfg)

    by_n = defaultdict(list)
    for r in rows:
        by_n[r.n].append(r)
    print("   n   trials   mean steps   steps/n   worst vertex")
    for n in sorted(by_n):
        batch = by_n[n]
        mean_len = sum(r.length for r in batch) / len(batch)
        worst = max(r.max_count for r in batch)
        print(f"{n:4d}   {len(batch):6d}   {mean_len:10.1f}   {mean_len / n:7.2f}   {worst:12d}")

    print(f"\nviolations: {summary['violations']}")
    print(f"slope of steps vs n: {summary['length_vs_n_slope']:.3f}")
    print(f"target color blocked by a neighbor: {summary['rule1_blocked_total']} times")

    print("\nfirst CSV lines (deterministic for a fixed seed):")
    for line in rows_to_csv(rows).splitlines()[:4]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
