"""The random cell line: a branching chain with state-dependent immigration.

Following one uniformly chosen daughter cell per division yields a Markov
chain on parasite counts.  Each step draws a daughter side and one realized
environment, reproduces every parasite independently through that side's
marginal, then adds contamination: the state-zero law when the cell was
parasite-free, the infected-state law otherwise.

The scalar API mirrors that construction one step at a time and records the
realized reproduction means so the normalized process (state divided by the
running product of means) is available.  Batch runners advance many
independent paths per vector operation for the Monte Carlo experiments; they
draw from the same per-state laws, so scalar and batch paths agree in law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._sampling import BATCH_STATE_CAP, capped_sum, multinomial_counts
from .laws import (
    STATE_CAP,
    DegenerateMarginal,
    EnvironmentLaw,
    ImmigrationPair,
    Regime,
    classify_regime,
)
from .stats import EmpiricalMeasure


class ExcursionCapExceeded(RuntimeError):
    """Too many excursions hit the step cap for the estimate to be trusted."""


@dataclass(frozen=True)
class LineageTrajectory:
    """One path of the chain with its realized reproduction means.

    ``normalizer[n]`` is the product of the first n realized means, so
    ``states[n] / normalizer[n]`` is the mean-normalized population.
    """

    states: np.ndarray
    env_means: np.ndarray
    normalizer: np.ndarray
    saturated: bool = False

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class HittingSummary:
    """Return times to the empty state, censored at a step cap."""

    times: np.ndarray
    cap: int
    capped_fraction: float

    def __post_init__(self):
        if len(self.times) and (self.times.min() < 1 or self.times.max() > self.cap):
            raise ValueError("return times must lie in [1, cap]")


@dataclass(frozen=True)
class RegenerationEstimate:
    """Stationary estimate from excursions between visits to the empty state."""

    measure: EmpiricalMeasure
    u_infinity: float
    excursions: int
    total_length: int
    capped_fraction: float
    lengths: np.ndarray


def _offspring_sum(marginal, z: int, rng: np.random.Generator) -> int:
    counts = rng.multinomial(z, marginal._probs_arr)
    return sum(int(c) * int(v) for c, v in zip(counts, marginal._vals_arr))


def _step_full(
    z: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator
) -> tuple[int, float, bool]:
    side = int(rng.integers(0, 2))
    law = env.sample(rng)
    marginal = law.marginal(side)
    total = _offspring_sum(marginal, z, rng) if z > 0 else 0
    total += int(imm.law_for_state(z).sample(rng))
    if total > STATE_CAP:
        return STATE_CAP, marginal.mean, True
    return total, marginal.mean, False


def step(
    z: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator
) -> tuple[int, float]:
    """Advance the chain one division; returns (new state, realized mean)."""
    if z < 0:
        raise ValueError("state must be nonnegative")
    new, mean, _ = _step_full(z, env, imm, rng)
    return new, mean


def simulate_path(
    k0: int, n: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator
) -> LineageTrajectory:
    """Simulate n divisions starting from k0 parasites."""
    states = np.empty(n + 1, dtype=np.int64)
    means = np.empty(n, dtype=float)
    normalizer = np.empty(n + 1, dtype=float)
    states[0] = k0
    normalizer[0] = 1.0
    z = k0
    saturated = False
    for i in range(n):
        z, mean, sat = _step_full(z, env, imm, rng)
        saturated |= sat
        states[i + 1] = z
        means[i] = mean
        normalizer[i + 1] = normalizer[i] * mean
    return LineageTrajectory(states=states, env_means=means, normalizer=normalizer,
                             saturated=saturated)


def hitting_time(
    k0: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator, cap: int
) -> int | None:
    """First division index at which the cell line is parasite-free; None if capped."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    z = k0
    for i in range(1, cap + 1):
        z, _, _ = _step_full(z, env, imm, rng)
        if z == 0:
            return i
    return None


def collect_hitting_times(
    k0: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    samples: int,
    cap: int = 100_000,
) -> HittingSummary:
    """Sample return times, recording capped runs at the cap value."""
    times = np.empty(samples, dtype=np.int64)
    capped = 0
    for i in range(samples):
        t = hitting_time(k0, env, imm, rng, cap)
        if t is None:
            times[i] = cap
            capped += 1
        else:
            times[i] = t
    return HittingSummary(times=times, cap=cap, capped_fraction=capped / samples)


def _warn_if_not_ergodic(env: EnvironmentLaw, imm: ImmigrationPair) -> None:
    try:
        report = classify_regime(env, imm)
    except DegenerateMarginal:
        return  # vanishing offspring means: the chain dies back faster than any subcritical one
    if report.regime is not Regime.SUBCRITICAL or not all(report.log_immigration_finite):
        warnings.warn(
            "regeneration estimates assume a subcritical chain with finite "
            "log-moment immigration; this model is outside that regime",
            stacklevel=3,
        )


def stationary_by_regeneration(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    excursions: int,
    cap: int = 100_000,
) -> RegenerationEstimate:
    """Estimate the stationary law from excursions out of the empty state.

    Each excursion starts at zero and runs until the next visit to zero; the
    states at the times before the return, pooled over excursions and divided
    by the total excursion length, estimate the stationary frequencies.  The
    reciprocal mean excursion length estimates the long-run rate of
    parasite-free divisions.  Excursions that hit the cap are dropped from
    the estimate and reported; more than 1% of them poisons the estimate and
    raises.
    """
    _warn_if_not_ergodic(env, imm)
    visits: dict[int, int] = {}
    lengths = np.empty(excursions, dtype=np.int64)
    completed = 0
    capped = 0
    for _ in range(excursions):
        local: dict[int, int] = {0: 1}
        z = 0
        length = None
        for t in range(1, cap + 1):
            z, _, _ = _step_full(z, env, imm, rng)
            if z == 0:
                length = t
                break
            local[z] = local.get(z, 0) + 1
        if length is None:
            capped += 1
            continue
        for state, c in local.items():
            visits[state] = visits.get(state, 0) + c
        lengths[completed] = length
        completed += 1
    capped_fraction = capped / excursions
    if capped_fraction > 0.01:
        raise ExcursionCapExceeded(
            f"{capped_fraction:.1%} of excursions hit the cap of {cap} steps"
        )
    lengths = lengths[:completed]
    total_length = int(lengths.sum())
    return RegenerationEstimate(
        measure=EmpiricalMeasure.from_counts(visits),
        u_infinity=completed / total_length,
        excursions=completed,
        total_length=total_length,
        capped_fraction=capped_fraction,
        lengths=lengths,
    )


def normalized_process(trajectory: LineageTrajectory) -> np.ndarray:
    """States divided by the running product of realized reproduction means."""
    if np.any(trajectory.env_means <= 0.0):
        raise DegenerateMarginal("normalized process needs positive realized means")
    return trajectory.states / trajectory.normalizer


def simulate_coupled_pair(
    k_low: int,
    k_high: int,
    n: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Two chains from ordered starts sharing every draw, prefix-wise.

    The higher chain reuses the lower chain's per-parasite offspring draws as
    a prefix and both receive the same immigration draw while both are
    positive, so the pathwise ordering is preserved by construction.  The
    coupling runs until the lower chain dies or n steps pass.
    """
    if k_low > k_high:
        raise ValueError("k_low must not exceed k_high")
    lo, hi = k_low, k_high
    path_lo, path_hi = [lo], [hi]
    for _ in range(n):
        side = int(rng.integers(0, 2))
        marginal = env.sample(rng).marginal(side)
        draws = marginal.sample_many(rng, hi) if hi > 0 else np.empty(0, dtype=np.int64)
        s_lo = int(draws[:lo].sum())
        s_hi = int(draws.sum())
        if lo > 0:
            y = int(imm.y1.sample(rng))
            lo, hi = s_lo + y, s_hi + y
        else:
            lo = s_lo + int(imm.y0.sample(rng))
            hi = s_hi + int(imm.y1.sample(rng))
        path_lo.append(lo)
        path_hi.append(hi)
        if lo == 0:
            break
    return np.array(path_lo), np.array(path_hi)


# ---------------------------------------------------------------------------
# Vectorized batch runners


def batch_step(
    states: np.ndarray,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    log_means_out: np.ndarray | None = None,
) -> np.ndarray:
    """Advance every path one division; optionally records log realized means."""
    n_paths = len(states)
    comps = env.sample_indices(rng, n_paths)
    sides = rng.integers(0, 2, size=n_paths)
    offspring = np.zeros(n_paths, dtype=np.int64)
    for ci, (law, _) in enumerate(env.components):
        for side in (0, 1):
            mask = (comps == ci) & (sides == side)
            if not mask.any():
                continue
            marginal = law.marginal(side)
            x = states[mask]
            if np.any(x > 0):
                counts = multinomial_counts(rng, x, marginal._probs_arr)
                offspring[mask] = capped_sum(counts, marginal._vals_arr, x)
            if log_means_out is not None:
                if marginal.mean <= 0.0:
                    raise DegenerateMarginal("normalized batch needs positive realized means")
                log_means_out[mask] = math.log(marginal.mean)
    was_zero = states == 0
    immigration = np.zeros(n_paths, dtype=np.int64)
    immigration[was_zero] = imm.y0.sample_many(rng, int(was_zero.sum()))
    immigration[~was_zero] = imm.y1.sample_many(rng, int((~was_zero).sum()))
    return np.minimum(offspring + immigration, BATCH_STATE_CAP)


def simulate_states_batch(
    k0: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    n_paths: int,
    checkpoints: list[int],
) -> dict[int, np.ndarray]:
    """Many independent paths at once; returns states at each checkpoint."""
    states = np.full(n_paths, k0, dtype=np.int64)
    wanted = sorted(set(checkpoints))
    out: dict[int, np.ndarray] = {}
    if wanted and wanted[0] == 0:
        out[0] = states.copy()
        wanted = wanted[1:]
    for t in range(1, (wanted[-1] if wanted else 0) + 1):
        states = batch_step(states, env, imm, rng)
        if wanted and t == wanted[0]:
            out[t] = states.copy()
            wanted = wanted[1:]
    return out


def simulate_normalized_batch(
    k0: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    n_paths: int,
    checkpoints: list[int],
) -> dict[int, np.ndarray]:
    """Mean-normalized populations at each checkpoint, across many paths."""
    states = np.full(n_paths, k0, dtype=np.int64)
    log_pi = np.zeros(n_paths)
    step_logs = np.empty(n_paths)
    wanted = sorted(set(checkpoints))
    out: dict[int, np.ndarray] = {}
    if wanted and wanted[0] == 0:
        out[0] = states.astype(float)
        wanted = wanted[1:]
    for t in range(1, (wanted[-1] if wanted else 0) + 1):
        states = batch_step(states, env, imm, rng, log_means_out=step_logs)
        log_pi += step_logs
        if wanted and t == wanted[0]:
            out[t] = states * np.exp(-log_pi)
            wanted = wanted[1:]
    return out
