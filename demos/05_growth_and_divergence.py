"""Total parasite counts and the runaway regimes.

The per-generation total grows like max(2, m)^n: contamination alone supplies
a factor-2 floor (immigrants arrive into exponentially many cells), and the
parasites' own mean m takes over beyond it.  The normalized cell-line
population settles to a finite limit in the regular regime, while critical
or heavy-tail contamination models run away.
"""

import math

import numpy as np

from cellbranch import (
    FiniteLaw,
    ImmigrationPair,
    build_binomial_split,
    growth_exponent,
    simulate_normalized_batch,
    simulate_parasite_totals,
    simulate_states_batch,
)
from cellbranch.presets import critical_contaminated, heavy_tail_contaminated, split_environment

rng = np.random.default_rng(3)
imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))

print("== growth exponent of the total parasite count ==")
for label, z_law, target in (
    ("m=3.0", FiniteLaw.delta(3), math.log(3)),
    ("m=1.5", FiniteLaw((1, 2), (0.5, 0.5)), math.log(2)),
):
    env = build_binomial_split(z_law, [(0.5, 1.0)])
    totals = simulate_parasite_totals(env, imm, 0, 20, rng, n_runs=400)
    fits = growth_exponent(totals).exponent
    print(f"  {label}: fitted exponent {np.mean(fits):.4f}, expected {target:.4f}")

print("\n== three-generation mean with quadrupling parasites ==")
env4 = split_environment(4)
totals = simulate_parasite_totals(env4, imm, 0, 3, rng, n_runs=50_000)
print(f"  mean total at generation 3: {totals[:, 3].mean():.3f} (exact value 28)")

print("\n== normalized population of the cell line ==")
env = split_environment(6)  # realized mean 3 each division
unit = ImmigrationPair.state_independent(FiniteLaw.delta(1))
w = simulate_normalized_batch(0, env, unit, rng, 50_000, checkpoints=[15, 20])
print(f"  E[W_20] = {w[20].mean():.4f} (geometric series gives 0.5)")
print(f"  median |W_20 - W_15| = {np.median(np.abs(w[20] - w[15])):.5f} (already settled)")

print("\n== runaway regimes: P(state <= 10) along the cell line ==")
for name, (env, imm_case) in (
    ("critical + contamination", critical_contaminated()),
    ("heavy-tail contamination", heavy_tail_contaminated()),
):
    checkpoints = [50, 200, 500]
    states = simulate_states_batch(0, env, imm_case, rng, 2000, checkpoints)
    fractions = ", ".join(f"n={cp}: {(states[cp] <= 10).mean():.3f}" for cp in checkpoints)
    print(f"  {name:<26} {fractions}")
