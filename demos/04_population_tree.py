"""The whole dividing population: infected-cell fractions and proportions.

Runs the binary division tree as generation ledgers, shows the recovery
dichotomy without contamination (the infected fraction is always
nonincreasing; whether it vanishes depends on the growth regime), checks
that deep-generation proportions of parasite counts land on the cell line's
stationary law, and runs critical trees of 2^40 cells against their exact
infected fraction.
"""

import numpy as np

from cellbranch import (
    ImmigrationPair,
    build_kernel,
    infected_fraction_series,
    simulate_tree_bfs,
    simulate_tree_dfs,
    stationary_solve,
    survival_no_immigration,
    tv_distance,
)
from cellbranch.presets import split_environment, subcritical_binomial
from cellbranch.stats import EmpiricalMeasure

rng = np.random.default_rng(7)

print("== recovery dichotomy, no contamination, one parasite at the root ==")
for name, brood in (("subcritical", 1), ("critical", 2), ("supercritical", 4)):
    env = split_environment(brood)
    ledgers = simulate_tree_bfs(1, 14, env, ImmigrationPair.zero(), rng)
    series = infected_fraction_series(ledgers)
    print(f"  {name:<14} infected fraction: "
          + " ".join(f"{series[g]:.3f}" for g in (0, 2, 6, 10, 14))
          + f"   (always nonincreasing: {bool(np.all(np.diff(series) <= 0))})")

print("\n== deep generations reach the cell line's stationary law ==")
env, imm = subcritical_binomial()
exact = stationary_solve(build_kernel(env, imm, 64))
counts: dict[int, int] = {}
for _ in range(40):
    simulate_tree_dfs(0, 12, env, imm, rng, accumulator=counts)
leaves = EmpiricalMeasure.from_counts(counts)
print("  state   leaf fraction   stationary")
for k in range(4):
    print(f"  {k:>5}   {leaves.frequency(k):>13.4f}   {exact.pmf[k]:>10.4f}")
print(f"  total variation gap: {tv_distance(leaves, exact.pmf):.4f}")

print("\n== critical trees of 2^40 cells, no contamination ==")
env, depth, n_trees = split_environment(2), 40, 20
fractions = []
for _ in range(n_trees):
    last = simulate_tree_dfs(1, depth, env, ImmigrationPair.zero(), rng)
    fractions.append(last.infected / last.cells)
exact = survival_no_immigration(env, 1, depth).upper[depth]
se = np.std(fractions, ddof=1) / np.sqrt(n_trees)
print(f"  mean infected fraction at n={depth}: {np.mean(fractions):.4f} +- {se:.4f}"
      f"   (exact {exact:.4f}, {len(last.values)} ledger rows in the last tree)")
