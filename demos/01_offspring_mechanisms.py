"""How parasites multiply and split between daughter cells.

Builds the two canonical sharing mechanisms (every child picks a daughter
cell on its own vs. whole broods migrating together), classifies growth
regimes of the resulting random cell line, and evaluates the almost-sure
recovery criterion for uniformly split broods.
"""

import numpy as np

from cellbranch import (
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    binomial_recovery_criterion,
    build_binomial_split,
    build_cluster_split,
    classify_regime,
    expected_log_inverse_p,
    uniform_grid_p,
)

rng = np.random.default_rng(0)

print("== per-child binomial split of a two-child brood, fair coin ==")
env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
law = env.components[0][0]
for pair, prob in law.support:
    print(f"  P(daughter0={pair[0]}, daughter1={pair[1]}) = {prob:.4f}")
print(f"  marginal means: {law.m0:.2f} / {law.m1:.2f}")
print(f"  mixed log growth rate: {env.mixed_log_mean():+.4f}  (exactly critical)")

print("\n== whole broods migrating together ==")
cluster = build_cluster_split(FiniteLaw.delta(2), [(0.5, 1.0)])
for pair, prob in cluster.components[0][0].support:
    print(f"  P(daughter0={pair[0]}, daughter1={pair[1]}) = {prob:.4f}")

print("\n== regime classification ==")
imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))
for brood in (1, 2, 4):
    env = build_binomial_split(FiniteLaw.delta(brood), [(0.5, 1.0)])
    report = classify_regime(env, imm)
    print(f"  brood {brood}: log mean {report.log_mean:+.4f} -> {report.regime.value}")

heavy = ImmigrationPair(FiniteLaw.bernoulli(0.5), HeavyTailLaw())
report = classify_regime(build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)]), heavy)
print(f"  heavy-tail contamination: finite log moments = {report.log_immigration_finite}")

print("\n== recovery criterion for a uniformly split brood ==")
grid = uniform_grid_p(64)
e_log = expected_log_inverse_p(grid)
print(f"  E[log(1/P)] over the 64-atom uniform grid = {e_log:.4f}")
for mean_brood in (2.0, np.e, 4.0):
    verdict = binomial_recovery_criterion(mean_brood, e_log)
    print(f"  mean brood {mean_brood:.3f}: organism recovers almost surely? {verdict}")
