"""Vectorized exact sampling primitives shared by the simulators."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .laws import ImmigrationPair

# Batch states saturate here: float64 still counts exactly up to 2**53.
BATCH_STATE_CAP = 2**53

# One offspring table of ``divide``: atom probabilities, one value column per
# daughter row drawn, and a binomial split's (Z probs, Z values, p) or None.
Table = tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray, float] | None]


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
    tables: list[Table],
    picks: np.ndarray,
    daughters: int,
    imm: ImmigrationPair,
    rng: np.random.Generator,
) -> np.ndarray:
    """One division of every lane: offspring through a drawn table, then contamination.

    Lane i's ``states[i]`` parasites reproduce through ``tables[picks[i]]``
    into ``daughters`` output rows (two for a whole division, one for a cell
    line that follows one daughter).  A table is ``(probs, value_columns,
    split)``: one multinomial over its atoms, summed against each of its
    ``daughters`` value columns, draws the offspring.  A binomial split's
    table also holds ``split`` = (Z probs, Z values, p), and is drawn from
    it instead: the brood total T, the sum of x iid Z, is split as
    s0 ~ Bin(T, p), then s1 = T - s0 when two rows are drawn.  T is not
    capped, so each daughter is exact or saturated, as on the atoms; where
    x times the largest Z could pass int64 the atoms are drawn instead.
    Tables none of whose lanes hold a parasite are skipped (a binomial with
    zero trials draws nothing, so skipping moves no draw).  Each row then
    gets ``imm.y0`` contamination where the mother was parasite-free and
    ``imm.y1`` elsewhere, each side drawn only when its law is not zero.
    Every row saturates at ``BATCH_STATE_CAP``.  Returns an int64 array of
    shape (daughters, len(states)).
    """
    rows = np.zeros((daughters, len(states)), dtype=np.int64)
    for t, (probs, columns, split) in enumerate(tables):
        mask = picks == t
        x = states[mask]
        if not x.any():
            continue
        if split is not None and int(x.max()) * int(split[1].max()) < 2**63:
            z_probs, z_vals, p = split
            total = multinomial_counts(rng, x, z_probs) @ z_vals
            first = rng.binomial(total, p)
            rows[0, mask] = np.minimum(first, BATCH_STATE_CAP)
            if daughters == 2:
                np.subtract(total, first, out=total)
                rows[1, mask] = np.minimum(total, BATCH_STATE_CAP, out=total)
            continue
        counts = multinomial_counts(rng, x, probs)
        for row, values in zip(rows, columns):
            row[mask] = capped_sum(counts, values, x)
    free = states == 0
    sides = [(mask, law) for mask, law in ((free, imm.y0), (~free, imm.y1)) if not law.is_zero]
    if not sides:
        return rows
    draws = np.zeros(len(states), dtype=np.int64)
    for row in rows:
        for mask, law in sides:
            draws[mask] = law.sample_many(rng, np.count_nonzero(mask))
        row += draws
    return np.minimum(rows, BATCH_STATE_CAP, out=rows)
