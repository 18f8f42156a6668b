"""The random cell line: a branching chain with state-dependent immigration.

Following one uniformly chosen daughter cell per division yields a Markov
chain on parasite counts.  Each step draws a daughter side and one realized
environment, reproduces every parasite independently through that side's
marginal, then adds contamination: the state-zero law when the cell was
parasite-free, the infected-state law otherwise.

One vectorized step, ``batch_step``, advances every lane of a state array:
each lane draws a component and a side, ``_sampling.divide`` draws both
daughters as the tree does, and the lane keeps the side's row, contaminated
and capped.  ``simulate_states_batch`` holds its paths as rows (value,
count) and advances them by the tree's ``_sampling.ledger_step``, keeping
one daughter per cell.  ``simulate_path``, the normalized runner (which
divides each state by the running product of the realized means that
``batch_step`` records) and the excursion runner (return times and the
regeneration estimate of the stationary law; a lane drops out at its
return to the empty state) step lanes.  States saturate at
``BATCH_STATE_CAP`` = 2^53, where float64 still counts exactly; a
trajectory that reaches it is flagged ``saturated``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ._sampling import BATCH_STATE_CAP, divide, ledger_step, merge_rows, start_lanes
from .laws import (
    DegenerateMarginal,
    EnvironmentLaw,
    ImmigrationPair,
    Regime,
    classify_regime,
)
from .stats import EmpiricalMeasure


# largest block of excursions advanced together; bounds the lanes' working memory
_BLOCK_LANES = 2**14
# steps between merges of the excursions' visit logs
_MERGE_STEPS = 256


class ExcursionCapExceeded(RuntimeError):
    """Too many excursions hit the step cap for the estimate to be trusted."""


@dataclass(frozen=True)
class LineageTrajectory:
    """One path of the chain; ``saturated`` when it reached ``BATCH_STATE_CAP``."""

    states: np.ndarray
    saturated: bool = False


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


def simulate_path(
    k0: int, n: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator
) -> LineageTrajectory:
    """Simulate n divisions starting from k0 parasites: ``batch_step`` on one lane."""
    # n is listed on its own so that a negative n is refused as a checkpoint
    steps = _checkpointed(start_lanes(k0, 1), [*range(n), n],
                          lambda lane: batch_step(lane, env, imm, rng))
    states = np.concatenate([lane for _, lane in steps])
    return LineageTrajectory(states=states, saturated=bool(states.max() >= BATCH_STATE_CAP))


def _excursions(
    k0: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator, n: int, cap: int
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Run n independent excursions from k0 to the first visit of 0, one lane each.

    Blocks of at most ``_BLOCK_LANES`` lanes advance together through
    ``batch_step``, and each lane drops out at its return.  Returns each
    excursion's return time (``cap`` when capped), the capped mask, and the
    visit counts of the nonzero states that completed excursions passed
    through before their return.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    times = np.full(n, cap, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    visits: dict[int, int] = {}
    for first in range(0, n, _BLOCK_LANES):
        ids = np.arange(first, min(n, first + _BLOCK_LANES))
        states = start_lanes(k0, len(ids))
        # (excursion id, state, visits) of every nonzero visit; merged every
        # _MERGE_STEPS steps, so a lane stuck in few states holds few entries
        seen = [(ids[:0], states[:0], ids[:0])]
        for t in range(1, cap + 1):
            if not len(ids):
                break
            states = batch_step(states, env, imm, rng)
            back = states == 0
            times[ids[back]] = t
            ids, states = ids[~back], states[~back]
            seen.append((ids, states, np.ones_like(ids)))
            if len(seen) > _MERGE_STEPS:
                seen = [merge_rows(*map(np.concatenate, zip(*seen)))]
        capped[ids] = True
        lane_ids, lane_states, lane_visits = merge_rows(*map(np.concatenate, zip(*seen)))
        kept = ~capped[lane_ids]
        values, inverse = np.unique(lane_states[kept], return_inverse=True)
        counts = np.bincount(inverse, weights=lane_visits[kept], minlength=len(values))
        for v, c in zip(values.tolist(), counts.tolist()):
            visits[v] = visits.get(v, 0) + int(c)
    return times, capped, visits


def collect_hitting_times(
    k0: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    samples: int,
    cap: int = 100_000,
) -> HittingSummary:
    """Sample return times, recording capped runs at the cap value."""
    times, capped, _ = _excursions(k0, env, imm, rng, samples, cap)
    return HittingSummary(times=times, cap=cap, capped_fraction=int(capped.sum()) / samples)


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
    times, capped, visits = _excursions(0, env, imm, rng, excursions, cap)
    capped_fraction = int(capped.sum()) / excursions
    if capped_fraction > 0.01:
        raise ExcursionCapExceeded(
            f"{capped_fraction:.1%} of excursions hit the cap of {cap} steps"
        )
    lengths = times[~capped]
    completed = len(lengths)
    total_length = int(lengths.sum())
    return RegenerationEstimate(
        measure=EmpiricalMeasure.from_counts({0: completed, **visits}),
        u_infinity=completed / total_length,
        excursions=completed,
        total_length=total_length,
        capped_fraction=capped_fraction,
        lengths=lengths,
    )


# ---------------------------------------------------------------------------
# Vectorized batch runners


def batch_step(
    states: np.ndarray,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    means_out: np.ndarray | None = None,
) -> np.ndarray:
    """Advance every path one division; optionally records realized means.

    Each lane draws a component and a daughter side, divides as the tree
    does, and keeps that side's daughter.
    """
    comps = env.sample_indices(rng, len(states))
    sides = rng.integers(0, 2, size=len(states))
    new = divide(states, env, comps, imm, rng, keep=sides)[0]
    if means_out is not None:
        means_out[:] = env._means[comps, sides]
    return new


def _checkpointed(state, checkpoints: list[int], advance: Callable) -> Iterator[tuple]:
    """Yield (t, state) at each checkpoint t, from ``state`` at 0 stepped by ``advance``."""
    wanted = set(checkpoints)
    if min(wanted, default=0) < 0:
        raise ValueError(f"checkpoint {min(wanted)} must be nonnegative")
    for t in range(max(wanted, default=-1) + 1):
        if t > 0:
            state = advance(state)
        if t in wanted:
            yield t, state


def simulate_states_batch(
    k0: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator, n_paths: int,
    checkpoints: list[int],
) -> dict[int, np.ndarray]:
    """Sorted states of n_paths independent paths at each checkpoint; no path can be followed."""
    def advance(rows):
        return ledger_step(rows, env, imm, rng, lambda lanes: batch_step(lanes, env, imm, rng),
                           keep_one=True)

    rows = np.zeros(1, np.int64), start_lanes(k0, 1), np.array([n_paths])
    return {t: np.repeat(values, counts) for t, (_, values, counts)
            in _checkpointed(rows, checkpoints, advance)}


def simulate_normalized_batch(
    k0: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    n_paths: int,
    checkpoints: list[int],
) -> dict[int, np.ndarray]:
    """Mean-normalized populations at each checkpoint, across many paths."""
    log_pi = np.zeros(n_paths)
    step_means = np.empty(n_paths)
    # one math.log per realized marginal mean: np.log can differ from it in the last bit
    means = np.unique(env._means)
    logs = np.array([math.log(m) if m > 0.0 else -math.inf for m in means])

    def advance(states):
        states = batch_step(states, env, imm, rng, means_out=step_means)
        if (step_means <= 0.0).any():
            raise DegenerateMarginal("normalized batch needs positive realized means")
        log_pi[:] += logs[np.searchsorted(means, step_means)]
        return states

    return {t: states * np.exp(-log_pi)
            for t, states in _checkpointed(start_lanes(k0, n_paths), checkpoints, advance)}
