"""Vectorized exact sampling primitives shared by the simulators."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .laws import ImmigrationPair

# Batch states saturate here: float64 still counts exactly up to 2**53.
BATCH_STATE_CAP = 2**53


def start_lanes(k0: int, n: int) -> np.ndarray:
    """n copies of the start state k0, which must be nonnegative."""
    if k0 < 0:
        raise ValueError(f"start state {k0} must be nonnegative")
    return np.full(n, k0, dtype=np.int64)


def multinomial_counts(
    rng: np.random.Generator, n: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Multinomial category counts for a different trial count per row.

    Peeling categories off with conditional binomials keeps the draw exact
    and vectorized across rows even when trial counts vary (numpy's own
    multinomial wants a scalar n).  Returns an int64 array of shape
    (len(n), len(probs)) whose rows sum to n.
    """
    remaining = np.asarray(n, dtype=np.int64).copy()
    counts = np.empty((len(remaining), len(probs)), dtype=np.int64)
    rem_p = 1.0
    for j in range(len(probs) - 1):
        frac = probs[j] / rem_p if rem_p > 1e-15 else 1.0
        c = rng.binomial(remaining, min(max(frac, 0.0), 1.0))
        counts[:, j] = c
        remaining -= c
        rem_p -= probs[j]
    counts[:, -1] = remaining
    return counts


def capped_sum(counts: np.ndarray, values: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Per-row ``counts @ values`` clipped to ``BATCH_STATE_CAP``, never wrapped.

    ``trials`` holds the row totals of ``counts`` (a ``multinomial_counts``
    draw sums to its trial counts).  When the largest total times the largest
    value fits in int64 the sum is taken in int64; otherwise in float64, which
    is exact while the true sum is below 2**53 and saturates at the cap above.
    """
    if int(trials.max(initial=0)) * int(values.max()) < 2**63:
        return np.minimum(counts @ values, BATCH_STATE_CAP)
    return np.minimum(counts @ values.astype(float), BATCH_STATE_CAP).astype(np.int64)


def divide(
    states: np.ndarray,
    tables: list[tuple[np.ndarray, tuple[np.ndarray, ...]]],
    picks: np.ndarray,
    imm: ImmigrationPair,
    rng: np.random.Generator,
) -> np.ndarray:
    """One division of every lane: offspring through a drawn table, then contamination.

    Lane i's ``states[i]`` parasites reproduce through ``tables[picks[i]]``,
    a ``(probs, value_columns)`` pair: one multinomial draw over the table's
    atoms, summed against each value column, gives one output row per column.
    Tables none of whose lanes hold a parasite are skipped (a binomial with
    zero trials draws nothing, so skipping moves no draw).  Each row then
    gets ``imm.y0`` contamination where the mother was parasite-free and
    ``imm.y1`` elsewhere, and saturates at ``BATCH_STATE_CAP``.  Returns an
    int64 array of shape (number of value columns, len(states)).
    """
    rows = np.zeros((len(tables[0][1]), len(states)), dtype=np.int64)
    for t, (probs, columns) in enumerate(tables):
        mask = picks == t
        x = states[mask]
        if x.any():
            counts = multinomial_counts(rng, x, probs)
            for row, values in zip(rows, columns):
                row[mask] = capped_sum(counts, values, x)
    free = states == 0
    infected = ~free
    n_free = np.count_nonzero(free)
    draws = np.empty(len(states), dtype=np.int64)
    for row in rows:
        draws[free] = imm.y0.sample_many(rng, n_free)
        draws[infected] = imm.y1.sample_many(rng, len(states) - n_free)
        row += draws
    return np.minimum(rows, BATCH_STATE_CAP, out=rows)
