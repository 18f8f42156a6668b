"""Exact brute-force computations on truncated state spaces.

The random cell line is a Markov chain on counts.  Truncating the state space
at K and tracking the escaping mass in an explicit overflow slot turns every
law of interest (n-step distributions, return-time tails, renewal limits,
stationary measures, survival probabilities) into finite linear algebra.
These routines are the ground truth that the Monte Carlo simulators are
validated against, so overflow is always tracked and never silently
renormalized.

The kernel rows come from one recursion for every immigration law, finite or
heavy-tailed: the x-fold offspring powers are started at the contamination
law, so each row is a sum of nonnegative products, exact to roundoff, with no
convolution or transform of its own.

Only arithmetic that can be nonzero is done.  Each step multiplies the
nonzero prefix of the iterated vector against the columns that prefix can
reach (the kernel records how far each row's nonzero prefix extends), so a
chain that stays near zero costs far less than a dense product while giving
the same numbers.  One walk, ``_walk``, yields the iterated vector and the
escaped mass step by step, over all states or avoiding zero (the taboo
chain); n-step laws, the renewal sequence, hitting tails and the excursion
from zero all read it.  That excursion, which feeds both the renewal limit
and the excursion route of the stationary law, runs once per kernel and cap.

Survival without contamination runs the other way: one backward pass of
extinction probabilities gives every horizon up to n at once.  Escaped mass
cannot be followed there, so it is bounded on both sides and the result is a
bracket, exact when nothing escapes or the environment is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .laws import (
    EnvironmentLaw,
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
    above its fixed-point tolerance after ``max_iterations`` rounds or loses
    all its mass above K.
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
    ``_reach[x]`` bounds the nonzero prefixes of rows 0..x, and
    ``_excursions`` keeps the taboo excursion from zero per cap.
    """

    matrix: np.ndarray
    overflow: np.ndarray
    heavy_truncated: bool
    _reach: np.ndarray = field(repr=False, compare=False)
    _excursions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    Row x mixes, over every realized daughter-side marginal P_i of the
    environment, the x-fold convolution P_i^x (all parasites of a cell
    reproduce in the same realized environment) convolved with the
    immigration law for state x.  Mass above K accumulates in the overflow
    column.  A finite-law row whose overflow exceeds ``overflow_budget``
    raises; heavy-tail immigration is exempt and only flagged.

    The rows are built in one pass over x, one recursion for every
    immigration law.  The products P_i^x * y1 of all M marginals sit side by
    side in one (K+1, M) array that starts at y1 (cut after its last atom)
    and is advanced from x-1 by one shifted multiply-add per atom of the
    marginals' joint support (s atoms, the largest s_max), since
    P_i^x * y1 = P_i * (P_i^(x-1) * y1).  Entries past K only move further
    right, so cutting each product at K loses nothing a later row reads.
    Row x is the weighted mix of the nonzero prefix, min(x * s_max + len(y1)
    - 1, K) + 1 entries, at O(K * M * s) per row.  Every entry is a sum of
    nonnegative products, so small entries keep their relative accuracy.
    The running maximum of the rows' nonzero prefix lengths is kept for the
    trimmed steps.
    """
    if K < 0:
        raise ValueError(f"truncation K must be nonnegative, got {K}")
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
    lengths = np.full(size, size)
    lengths[0] = np.flatnonzero(y0_pmf).max(initial=0) + 1
    # power[:, i] holds P_i^x * y1 cut at K; past its prefix both buffers hold
    # zeros: prefixes never shrink.
    power = np.zeros_like(pmfs)
    power[: len(y1_head)] = y1_head[:, None]
    nxt = np.zeros_like(pmfs)
    for x in range(1, size):
        n = min(x * reach + len(y1_head) - 1, K) + 1
        nxt[:n] = 0.0
        for a in atoms:
            nxt[a:n] += power[: n - a] * pmfs[a]
        power, nxt = nxt, power
        matrix[x, :n] = power[:n] @ weights
        lengths[x] = n
    overflow = 1.0 - matrix.sum(axis=1)
    np.clip(overflow, 0.0, None, out=overflow)

    heavy = isinstance(imm.y0, HeavyTailLaw) or isinstance(imm.y1, HeavyTailLaw)
    if overflow_budget is not None and not heavy and overflow.max() > overflow_budget:
        raise TruncationTooSmall(
            f"row overflow {overflow.max():.3e} exceeds budget {overflow_budget:.1e} at K={K}"
        )
    return TruncatedKernel(
        matrix=matrix,
        overflow=overflow,
        heavy_truncated=heavy,
        _reach=np.maximum.accumulate(lengths),
    )


def _step(v: np.ndarray, matrix: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """``v @ matrix`` over v's nonzero prefix and the columns it reaches.

    ``reach[i]`` bounds the nonzero prefixes of rows 0..i, so every skipped
    product is an exact zero and the result equals the dense product.
    """
    out = np.zeros(matrix.shape[1])
    nonzero = np.flatnonzero(v)
    if nonzero.size:
        m = nonzero[-1] + 1
        width = reach[m - 1]
        out[:width] = v[:m] @ matrix[:m, :width]
    return out


def _check_walk(K: int, start: int, horizon: int) -> None:
    if not 0 <= start <= K:
        raise ValueError(f"start state {start} outside truncated range")
    if horizon < 0:
        raise ValueError(f"horizon {horizon} must be nonnegative")


def _walk(kernel: TruncatedKernel, start: int, taboo: bool = False):
    """Yield (v, escaped) at times 0, 1, 2, ... of the chain started from ``start``.

    ``v`` is the mass over 0..K and ``escaped`` the mass lost above K so far.
    The taboo walk avoids zero: ``v`` covers states 1..K, starts from the
    first step out of ``start`` and counts that step's escape; mass entering
    zero leaves the walk.
    """
    matrix, reach, overflow = kernel.matrix, kernel._reach, kernel.overflow
    if taboo:
        v, escaped = matrix[start, 1:].copy(), float(overflow[start])
        matrix, reach, overflow = matrix[1:, 1:], reach[1:] - 1, overflow[1:]
    else:
        v, escaped = np.zeros(kernel.size), 0.0
        v[start] = 1.0
    while True:
        yield v, escaped
        escaped += float(v @ overflow)
        v = _step(v, matrix, reach)


def propagate(kernel: TruncatedKernel, k0: int, n: int) -> PmfVector:
    """n-step distribution of the chain started from k0."""
    _check_walk(kernel.truncation, k0, n)
    v, escaped = next(itertools.islice(_walk(kernel, k0), n, None))
    return PmfVector(probs=v, overflow=escaped)


def renewal_sequence(kernel: TruncatedKernel, n_max: int) -> np.ndarray:
    """Probabilities of sitting at zero at times 0..n_max, started from zero."""
    _check_walk(kernel.truncation, 0, n_max)
    return np.array([v[0] for _, (v, _) in zip(range(n_max + 1), _walk(kernel, 0))])


@dataclass(frozen=True)
class RenewalLimit:
    u_infinity: float
    expected_return_time: float
    steps: int
    remainder_bound: float


@dataclass(frozen=True)
class _Excursion:
    """One excursion from zero under the taboo kernel, summed step by step.

    ``visits`` is the expected number of visits to each state before the
    return (1 at zero), ``expected`` the expected return time, ``escape`` the
    mass lost above K, and ``mass`` / ``prev_mass`` the taboo mass still out
    after the last two of ``steps`` steps.
    """

    visits: np.ndarray
    expected: float
    escape: float
    steps: int
    mass: float
    prev_mass: float


def _excursion(kernel: TruncatedKernel, cap: int) -> _Excursion:
    """The excursion from zero, run until its mass is gone or ``cap`` steps."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap in kernel._excursions:
        return kernel._excursions[cap]
    visits = np.zeros(kernel.size)
    visits[0] = 1.0
    expected = 1.0  # the time-zero term
    mass = math.inf
    for steps, (w, esc) in enumerate(_walk(kernel, 0, taboo=True)):
        prev_mass, mass = mass, float(w.sum())
        if steps >= cap or mass <= 1e-17:
            break
        expected += mass + esc
        visits[1:] += w
    result = _Excursion(visits, expected, esc, steps, mass, prev_mass)
    kernel._excursions[cap] = result
    return result


def renewal_limit(
    kernel: TruncatedKernel, cap: int = 100_000, tail_tol: float = 1e-9
) -> RenewalLimit:
    """Long-run rate of visits to zero, via the expected return time.

    The return-time expectation is summed step by step from the taboo kernel
    (transitions restricted to avoid zero).  Escaped mass can never return,
    so any visible escape makes the remainder bound blow up rather than bias
    the answer.
    """
    exc = _excursion(kernel, cap)
    if exc.mass > 0.0:
        if exc.mass < exc.prev_mass:
            remainder = exc.mass / (1.0 - exc.mass / exc.prev_mass)
        else:
            remainder = math.inf
    else:
        remainder = 0.0
    if exc.escape > 1e-15:
        remainder = math.inf
    if remainder > tail_tol:
        raise NonConvergent(
            f"return-time tail bound {remainder:.3e} above {tail_tol:.1e} after {exc.steps} steps"
        )
    return RenewalLimit(
        u_infinity=1.0 / exc.expected,
        expected_return_time=exc.expected,
        steps=exc.steps,
        remainder_bound=remainder,
    )


def hitting_tail(kernel: TruncatedKernel, k0: int, n_max: int) -> np.ndarray:
    """P(return to zero takes more than n steps), for n = 1..n_max."""
    _check_walk(kernel.truncation, k0, n_max)
    walk = _walk(kernel, k0, taboo=True)
    return np.array([w.sum() + esc for _, (w, esc) in zip(range(n_max), walk)])


@dataclass(frozen=True)
class StationaryResult:
    """Stationary law by two independent exact routes.

    ``pmf`` comes from power iteration on the truncated kernel, ``excursion``
    from accumulating taboo visits over one excursion from zero and dividing
    by the expected return time.  Their agreement is the self-check.
    ``escape_rate`` is the mass ``pmf`` loses above K in one step.
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
        nxt = _step(v, kernel.matrix, kernel._reach)
        kept = nxt.sum()
        if not kept > 0.0:
            raise NonConvergent(f"all mass escapes above K={kernel.truncation} in round {its}")
        nxt /= kept
        diff = float(np.abs(nxt - v).sum())
        v = nxt
        if diff < tol:
            break
    else:
        raise NonConvergent(f"power iteration stalled above {tol} after {max_iterations} rounds")

    # Excursion route: expected visits to each state before returning to zero.
    visits = _excursion(kernel, excursion_cap).visits
    return StationaryResult(
        pmf=v,
        excursion=visits / visits.sum(),
        escape_rate=float(v @ kernel.overflow),
        iterations=its,
    )


@dataclass(frozen=True)
class SurvivalBracket:
    """Survival P(Z_t > 0 | Z_0 = k0) of the contamination-free cell line, t = 0..n.

    The true curve lies between ``lower`` and ``upper`` at every t.  The
    scalar route for a deterministic environment is exact and returns one
    array as both.
    """

    lower: np.ndarray
    upper: np.ndarray


def survival_no_immigration(env: EnvironmentLaw, k0: int, n: int, K: int = 512) -> SurvivalBracket:
    """Survival of the contamination-free cell line at every time 0..n, bracketed.

    With one realized marginal f the line is a Galton-Watson process: its
    extinction value s_t = f(s_{t-1}) from s_0 = 0 is iterated exactly and
    survival is 1 - s_t^k0.  Otherwise the extinction probabilities
    u_t(x) = P(Z_t = 0 | Z_0 = x) are iterated backward, u_t = M u_{t-1} from
    u_0 = 1{x = 0}, on the zero-immigration kernel truncated at K.  Mass
    escaping above K is bounded on both sides: it never dies out (``upper``),
    or it dies out with probability u_{t-1}(K) (``lower``), which bounds
    u_{t-1}(y) for every y > K because the parasites' lines add up, so
    extinction is nonincreasing in the start state.
    """
    _check_walk(K, k0, n)
    marginals = env.realized_marginals()
    if len(marginals) == 1:
        marg = marginals[0][0]
        values, probs = np.asarray(marg.values, dtype=float), np.asarray(marg.probs, dtype=float)
        extinct = np.zeros(n + 1)
        for t in range(n):
            extinct[t + 1] = (extinct[t] ** values) @ probs
        survival = 1.0 - extinct**k0
        return SurvivalBracket(survival, survival)
    kernel = build_kernel(env, ImmigrationPair.zero(), K, overflow_budget=None)
    matrix, overflow = kernel.matrix, kernel.overflow
    u_lo = np.zeros(kernel.size)
    u_lo[0] = 1.0
    u_hi = u_lo
    lower, upper = np.empty(n + 1), np.empty(n + 1)
    lower[0] = upper[0] = 1.0 - u_lo[k0]
    for t in range(1, n + 1):
        u_lo, u_hi = matrix @ u_lo, matrix @ u_hi + overflow * u_hi[K]
        lower[t], upper[t] = 1.0 - u_hi[k0], 1.0 - u_lo[k0]
    return SurvivalBracket(lower, upper)
