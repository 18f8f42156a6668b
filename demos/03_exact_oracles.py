"""Exact computations on the truncated kernel: the ground truth layer.

Everything here is linear algebra, no sampling: n-step laws, the renewal
identity (limit of return probabilities = 1 / expected return time),
return-time tails, and survival probabilities without contamination,
including the critical slowdown and the two-sided bound that a random
environment needs.
"""

import math

from cellbranch import (
    FiniteLaw,
    build_binomial_split,
    build_kernel,
    hitting_tail,
    propagate,
    renewal_limit,
    renewal_sequence,
    stationary_solve,
    survival_no_immigration,
    uniform_grid_p,
)
from cellbranch.presets import split_environment, subcritical_geometric, toy_chain

print("== toy chain: offspring die, empty cells get a fair coin ==")
env, imm = toy_chain()
kernel = build_kernel(env, imm, 16)
for n in (1, 2, 5, 20):
    pmf = propagate(kernel, 0, n)
    print(f"  n={n:>2}: P(empty) = {pmf.probs[0]:.6f}")
limit = renewal_limit(kernel)
u = renewal_sequence(kernel, 50)
print(f"  expected return time {limit.expected_return_time:.6f}, "
      f"so the long-run empty rate is {limit.u_infinity:.6f}")
print(f"  return probability at n=50: {u[50]:.6f} (renewal identity)")

print("\n== stationary law by two independent exact routes ==")
result = stationary_solve(kernel)
print(f"  power iteration:   {result.pmf[:3]}")
print(f"  excursion formula: {result.excursion[:3]}")

print("\n== return-time tail of the geometric-contamination set ==")
env, imm = subcritical_geometric()
tail = hitting_tail(build_kernel(env, imm, 256), 0, 60)
ratios = tail[1:] / tail[:-1]
print(f"  P(T>n) ratios converge to {ratios[-1]:.4f} < 1 (geometric tail)")

print("\n== survival without contamination ==")
sub = survival_no_immigration(split_environment(1), 1, 12)
print("  subcritical halving: P(alive at n) vs 2^-n")
for n in (4, 8, 12):
    print(f"    n={n:>2}: {sub.upper[n]:.8f} vs {2.0**-n:.8f}")
crit = survival_no_immigration(split_environment(2), 1, 256)
print("  critical slowdown: n * P(alive at n) creeps toward a constant")
for n in (16, 64, 256):
    p = crit.upper[n]
    print(f"    n={n:>3}: P = {p:.6f}, n*P = {n * p:.4f}, sqrt(n)*P = {math.sqrt(n) * p:.4f}")
grid = survival_no_immigration(build_binomial_split(FiniteLaw.delta(4), uniform_grid_p(64)), 1, 40)
print("  random environment (brood 4, uniform split): mass escaping above K")
print("  is bounded both ways, so survival comes as a bracket")
for n in (10, 20, 40):
    print(f"    n={n:>2}: P in [{grid.lower[n]:.4f}, {grid.upper[n]:.4f}]")
