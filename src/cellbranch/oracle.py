"""Exact brute-force computations on truncated state spaces.

The random cell line is a Markov chain on counts.  Truncating the state space
at K and tracking the escaping mass in an explicit overflow slot turns every
law of interest (n-step distributions, return-time tails, renewal limits,
stationary measures, survival probabilities) into finite linear algebra.
These routines are the ground truth that the Monte Carlo simulators are
validated against, so overflow is always tracked and never silently
renormalized.

Only arithmetic that can be nonzero is done.  Each step multiplies the
nonzero prefix of the iterated vector against the columns that prefix can
reach (the kernel records how far each row's nonzero prefix extends), so a
chain that stays near zero costs far less than a dense product while giving
the same numbers.  The taboo excursion from zero, which feeds both the
renewal limit and the excursion route of the stationary law, runs once per
kernel and cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laws import (
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
)

MASS_TOL = 1e-10

# Rows convolved with heavy-tail immigration per FFT pair: the transforms of a
# block stay around 1 MB at K=2048.
_FFT_BLOCK = 32


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
    ``_reach[x]`` bounds the nonzero prefixes of rows 0..x (a kernel not made
    by ``build_kernel`` gets the full width), and ``_excursions`` keeps the
    taboo excursion from zero per cap.
    """

    matrix: np.ndarray
    overflow: np.ndarray
    heavy_truncated: bool = False
    _reach: np.ndarray | None = field(default=None, repr=False, compare=False)
    _excursions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._reach is None:
            object.__setattr__(self, "_reach", np.full(self.size, self.size))

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
    O(K * (M * s + |supp Y|)).  Heavy-tail immigration fills 0..K, so its rows
    are convolved by FFT, ``_FFT_BLOCK`` mixtures per transform pair against
    one transform of the immigration pmf, at O(K log K) per row; negative
    roundoff is clipped to zero.  The running maximum of the rows' nonzero
    prefix lengths is kept for the trimmed steps.
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
    heavy_rows = isinstance(imm.y1, HeavyTailLaw)
    if heavy_rows:
        # The atom at zero is added directly and only the rest is transformed:
        # it holds half of the law's mass, so this halves the FFT roundoff.
        y1_rest = y1_head.copy()
        y1_rest[0] = 0.0
        fft_len = _smooth_length(2 * size - 1)
        y1_hat = np.fft.rfft(y1_rest, fft_len)
        block = np.zeros((min(_FFT_BLOCK, K), size))
    matrix = np.zeros((size, size))
    matrix[0] = y0_pmf
    lengths = np.full(size, size)
    lengths[0] = np.flatnonzero(y0_pmf).max(initial=0) + 1
    # Past each power's prefix both buffers (and the FFT block) hold zeros:
    # prefixes never shrink.
    power = np.zeros_like(pmfs)
    power[0] = 1.0
    nxt = np.zeros_like(pmfs)
    for x in range(1, size):
        n = min(x * reach, K) + 1
        nxt[:n] = 0.0
        for a in atoms:
            nxt[a:n] += power[: n - a] * pmfs[a]
        power, nxt = nxt, power
        if heavy_rows:
            slot = (x - 1) % _FFT_BLOCK
            block[slot, :n] = power[:n] @ weights
            if slot == _FFT_BLOCK - 1 or x == K:
                mixes = block[: slot + 1]
                rows = np.fft.irfft(np.fft.rfft(mixes, fft_len) * y1_hat, fft_len)[:, :size]
                rows += y1_head[0] * mixes
                matrix[x - slot : x + 1] = np.clip(rows, 0.0, None)
        else:
            row = np.convolve(power[:n] @ weights, y1_head)[:size]
            matrix[x, : len(row)] = row
            lengths[x] = len(row)
    overflow = 1.0 - matrix.sum(axis=1)
    np.clip(overflow, 0.0, None, out=overflow)

    heavy = isinstance(imm.y0, HeavyTailLaw) or heavy_rows
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


def _smooth_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length the FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        odd3 = odd
        while odd3 < best:
            length = odd3
            while length < n:
                length *= 2
            best = min(best, length)
            odd3 *= 3
        odd *= 5
    return best


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


def _check_horizon(n: int) -> None:
    if n < 0:
        raise ValueError(f"horizon {n} must be nonnegative")


def propagate(kernel: TruncatedKernel, k0: int, n: int) -> PmfVector:
    """n-step distribution of the chain started from k0."""
    if not 0 <= k0 <= kernel.truncation:
        raise ValueError(f"start state {k0} outside truncated range")
    _check_horizon(n)
    v = np.zeros(kernel.size)
    v[k0] = 1.0
    ov = 0.0
    for _ in range(n):
        ov += float(v @ kernel.overflow)
        v = _step(v, kernel.matrix, kernel._reach)
    return PmfVector(probs=v, overflow=ov)


def renewal_sequence(kernel: TruncatedKernel, n_max: int) -> np.ndarray:
    """Probabilities of sitting at zero at times 0..n_max, started from zero."""
    _check_horizon(n_max)
    v = np.zeros(kernel.size)
    v[0] = 1.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        v = _step(v, kernel.matrix, kernel._reach)
        out[n] = v[0]
    return out


@dataclass(frozen=True)
class RenewalLimit:
    u_infinity: float
    expected_return_time: float
    steps: int
    remainder_bound: float


def _taboo(kernel: TruncatedKernel, k0: int):
    """The taboo kernel (transitions avoiding zero), its reach and overflow,
    then the one-step mass over nonzero states and the escaped mass from k0."""
    Q = kernel.matrix[1:, 1:]
    start = kernel.matrix[k0, 1:].copy()
    return Q, kernel._reach[1:] - 1, kernel.overflow[1:], start, float(kernel.overflow[k0])


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
    if cap in kernel._excursions:
        return kernel._excursions[cap]
    Q, q_reach, sub_ov, w, esc = _taboo(kernel, 0)
    visits = np.zeros(kernel.size)
    visits[0] = 1.0
    expected = 1.0  # the time-zero term
    prev_mass = math.inf
    mass = float(w.sum())
    steps = 0
    while steps < cap and mass > 1e-17:
        expected += mass + esc
        visits[1:] += w
        esc += float(w @ sub_ov)
        w = _step(w, Q, q_reach)
        prev_mass, mass = mass, float(w.sum())
        steps += 1
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
    if not 0 <= k0 <= kernel.truncation:
        raise ValueError(f"start state {k0} outside truncated range")
    _check_horizon(n_max)
    Q, q_reach, sub_ov, w, esc = _taboo(kernel, k0)
    out = np.empty(n_max)
    for n in range(n_max):
        out[n] = w.sum() + esc
        esc += float(w @ sub_ov)
        w = _step(w, Q, q_reach)
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
        nxt = _step(v, kernel.matrix, kernel._reach)
        nxt /= nxt.sum()
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
        escape_rate=float(v @ kernel.overflow) + float(kernel.overflow[0]),
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
