"""Exact brute-force computations on truncated state spaces.

The random cell line is a Markov chain on counts.  Truncating the state space
at K and tracking the escaping mass in an explicit overflow slot turns every
law of interest (n-step distributions, return-time tails, renewal limits,
stationary measures, survival probabilities) into finite linear algebra.
These routines are the ground truth that the Monte Carlo simulators are
validated against, so overflow is always tracked and never silently
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import (
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
)

MASS_TOL = 1e-10


class TruncationTooSmall(ValueError):
    """A kernel row leaks more mass past the truncation than the budget allows."""


class NonConvergent(RuntimeError):
    """An iterative oracle missed its tolerance within its budget.

    Raised when a summed series (``renewal_limit``) still carries too much
    mass at its cap, and when power iteration (``stationary_solve``) stalls
    above its fixed-point tolerance after ``max_iterations`` rounds.
    """


@dataclass(frozen=True)
class PmfVector:
    """Probability mass on states 0..K plus the mass that escaped above K."""

    probs: np.ndarray
    overflow: float = 0.0

    def __post_init__(self):
        total = float(self.probs.sum()) + self.overflow
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"pmf mass {total!r} is not 1 within {MASS_TOL}")

    def as_dict(self) -> dict:
        out = {k: float(p) for k, p in enumerate(self.probs) if p > 0.0}
        if self.overflow > 0.0:
            out[OVERFLOW_STATE] = self.overflow
        return out


# Key under which escaped mass is compared as an outcome of its own.
OVERFLOW_STATE = -1


@dataclass(frozen=True)
class TruncatedKernel:
    """Row-stochastic one-step law of the cell-line chain on 0..K.

    ``matrix[x, y]`` is the probability of moving from x parasites to y; the
    ``overflow`` column holds the mass landing above K (it never returns).
    """

    matrix: np.ndarray
    overflow: np.ndarray
    heavy_truncated: bool = False

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def truncation(self) -> int:
        return self.matrix.shape[0] - 1

    def row_mass_defect(self) -> float:
        return float(np.abs(self.matrix.sum(axis=1) + self.overflow - 1.0).max())


def build_kernel(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    K: int,
    overflow_budget: float | None = 1e-6,
) -> TruncatedKernel:
    """Assemble the truncated one-step kernel of the random cell line.

    Row x mixes, over every realized daughter-side marginal of the
    environment, the x-fold convolution of that marginal (all parasites of a
    cell reproduce in the same realized environment), then convolves with the
    immigration law for state x.  Mass above K accumulates in the overflow
    column.  A finite-law row whose overflow exceeds ``overflow_budget``
    raises; heavy-tail immigration is exempt and only flagged.

    The rows are built in one pass over x.  The x-fold powers of all M
    marginals sit side by side in one (K+1, M) array, advanced from x-1 by one
    shifted multiply-add per atom of the marginals' joint support (s atoms,
    the largest s_max), then mixed by the marginal weights.  Only the nonzero
    prefix of that mixture, min(x * s_max, K) + 1 entries, is convolved with
    the immigration pmf cut after its last atom.  For finite laws a row costs
    O(K * (M * s + |supp Y|)); heavy-tail immigration fills 0..K, so its rows
    cost O(K^2).
    """
    size = K + 1
    marginals = env.realized_marginals()
    pmfs = np.empty((size, len(marginals)))
    for i, (marg, _) in enumerate(marginals):
        pmfs[:, i], esc = marg.pmf_array(size)
        if esc > 0:
            raise TruncationTooSmall(
                f"offspring marginal support {marg.max_value} exceeds truncation {K}"
            )
    weights = np.array([w for _, w in marginals])
    atoms = np.flatnonzero(pmfs.any(axis=1))
    reach = int(atoms[-1])

    y0_pmf, _ = imm.y0.pmf_array(size)
    y1_pmf, _ = imm.y1.pmf_array(size)
    y1_head = y1_pmf[: np.flatnonzero(y1_pmf).max(initial=0) + 1]
    matrix = np.zeros((size, size))
    matrix[0] = y0_pmf
    # Past each power's prefix both buffers hold zeros: prefixes never shrink.
    power = np.zeros_like(pmfs)
    power[0] = 1.0
    nxt = np.zeros_like(pmfs)
    for x in range(1, size):
        n = min(x * reach, K) + 1
        nxt[:n] = 0.0
        for a in atoms:
            nxt[a:n] += power[: n - a] * pmfs[a]
        power, nxt = nxt, power
        row = np.convolve(power[:n] @ weights, y1_head)[:size]
        matrix[x, : len(row)] = row
    overflow = 1.0 - matrix.sum(axis=1)
    np.clip(overflow, 0.0, None, out=overflow)

    heavy = isinstance(imm.y0, HeavyTailLaw) or isinstance(imm.y1, HeavyTailLaw)
    if overflow_budget is not None and not heavy and overflow.max() > overflow_budget:
        raise TruncationTooSmall(
            f"row overflow {overflow.max():.3e} exceeds budget {overflow_budget:.1e} at K={K}"
        )
    return TruncatedKernel(matrix=matrix, overflow=overflow, heavy_truncated=heavy)


def propagate(kernel: TruncatedKernel, k0: int, n: int) -> PmfVector:
    """n-step distribution of the chain started from k0."""
    if not 0 <= k0 <= kernel.truncation:
        raise ValueError(f"start state {k0} outside truncated range")
    v = np.zeros(kernel.size)
    v[k0] = 1.0
    ov = 0.0
    for _ in range(n):
        ov += float(v @ kernel.overflow)
        v = v @ kernel.matrix
    return PmfVector(probs=v, overflow=ov)


def renewal_sequence(kernel: TruncatedKernel, n_max: int) -> np.ndarray:
    """Probabilities of sitting at zero at times 0..n_max, started from zero."""
    v = np.zeros(kernel.size)
    v[0] = 1.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        v = v @ kernel.matrix
        out[n] = v[0]
    return out


@dataclass(frozen=True)
class RenewalLimit:
    u_infinity: float
    expected_return_time: float
    steps: int
    remainder_bound: float


def _taboo_start(kernel: TruncatedKernel, k0: int) -> tuple[np.ndarray, float]:
    """One-step mass over nonzero states and escaped mass, from k0."""
    return kernel.matrix[k0, 1:].copy(), float(kernel.overflow[k0])


def renewal_limit(
    kernel: TruncatedKernel, cap: int = 100_000, tail_tol: float = 1e-9
) -> RenewalLimit:
    """Long-run rate of visits to zero, via the expected return time.

    The return-time expectation is summed step by step from the taboo kernel
    (transitions restricted to avoid zero).  Escaped mass can never return,
    so any visible escape makes the remainder bound blow up rather than bias
    the answer.
    """
    Q = kernel.matrix[1:, 1:]
    sub_ov = kernel.overflow[1:]
    w, esc = _taboo_start(kernel, 0)
    expected = 1.0  # the time-zero term
    prev_mass = math.inf
    mass = float(w.sum())
    steps = 0
    while steps < cap and mass > 1e-17:
        expected += mass + esc
        esc += float(w @ sub_ov)
        w = w @ Q
        prev_mass, mass = mass, float(w.sum())
        steps += 1
    if mass > 0.0:
        if mass < prev_mass:
            remainder = mass / (1.0 - mass / prev_mass)
        else:
            remainder = math.inf
    else:
        remainder = 0.0
    if esc > 1e-15:
        remainder = math.inf
    if remainder > tail_tol:
        raise NonConvergent(
            f"return-time tail bound {remainder:.3e} above {tail_tol:.1e} after {steps} steps"
        )
    return RenewalLimit(
        u_infinity=1.0 / expected,
        expected_return_time=expected,
        steps=steps,
        remainder_bound=remainder,
    )


def hitting_tail(kernel: TruncatedKernel, k0: int, n_max: int) -> np.ndarray:
    """P(return to zero takes more than n steps), for n = 1..n_max."""
    if not 0 <= k0 <= kernel.truncation:
        raise ValueError(f"start state {k0} outside truncated range")
    Q = kernel.matrix[1:, 1:]
    sub_ov = kernel.overflow[1:]
    w, esc = _taboo_start(kernel, k0)
    out = np.empty(n_max)
    for n in range(n_max):
        out[n] = w.sum() + esc
        esc += float(w @ sub_ov)
        w = w @ Q
    return out


@dataclass(frozen=True)
class StationaryResult:
    """Stationary law by two independent exact routes.

    ``pmf`` comes from power iteration on the truncated kernel, ``excursion``
    from accumulating taboo visits over one excursion from zero and dividing
    by the expected return time.  Their agreement is the self-check.
    """

    pmf: np.ndarray
    excursion: np.ndarray
    escape_rate: float
    iterations: int


def stationary_solve(
    kernel: TruncatedKernel,
    tol: float = 1e-12,
    max_iterations: int = 500_000,
    excursion_cap: int = 100_000,
) -> StationaryResult:
    size = kernel.size
    v = np.full(size, 1.0 / size)
    its = 0
    for its in range(1, max_iterations + 1):
        nxt = v @ kernel.matrix
        nxt /= nxt.sum()
        diff = float(np.abs(nxt - v).sum())
        v = nxt
        if diff < tol:
            break
    else:
        raise NonConvergent(f"power iteration stalled above {tol} after {max_iterations} rounds")

    # Excursion route: expected visits to each state before returning to zero.
    Q = kernel.matrix[1:, 1:]
    w, esc = _taboo_start(kernel, 0)
    visits = np.zeros(size)
    visits[0] = 1.0
    for _ in range(excursion_cap):
        if w.sum() <= 1e-17:
            break
        visits[1:] += w
        w = w @ Q
    excursion = visits / visits.sum()

    return StationaryResult(
        pmf=v,
        excursion=excursion,
        escape_rate=float(v @ kernel.overflow) + esc,
        iterations=its,
    )


def survival_no_immigration(
    env: EnvironmentLaw,
    k0: int,
    n: int,
    value_budget: int = 2_000_000,
    K: int = 512,
) -> float:
    """Survival probability of the contamination-free cell line after n steps.

    Computed exactly as one minus the expected k0-th power of the composed
    extinction generating value.  The composition values are enumerated as a
    weighted set (identical realized marginals collapse, so deterministic
    environments stay a single value); when the set would outgrow the budget,
    the computation falls back to kernel propagation with unchecked overflow,
    where escaped mass counts as surviving.
    """
    marginals = env.realized_marginals()
    arrs = [
        (np.asarray(m.values, dtype=float), np.asarray(m.probs, dtype=float), w)
        for m, w in marginals
    ]
    dist: dict[float, float] = {0.0: 1.0}
    for _ in range(n):
        if len(dist) * len(arrs) > value_budget:
            kernel = build_kernel(env, ImmigrationPair.zero(), K, overflow_budget=None)
            result = propagate(kernel, k0, n)
            return float(1.0 - result.probs[0])
        nxt: dict[float, float] = {}
        s_arr = np.fromiter(dist.keys(), dtype=float, count=len(dist))
        p_arr = np.fromiter(dist.values(), dtype=float, count=len(dist))
        for vals, probs, w in arrs:
            evaluated = (s_arr[:, None] ** vals[None, :]) @ probs
            for s2, p in zip(evaluated, p_arr):
                key = float(s2)
                nxt[key] = nxt.get(key, 0.0) + w * p
        dist = nxt
    extinct = sum(p * s**k0 for s, p in dist.items())
    return float(1.0 - extinct)
