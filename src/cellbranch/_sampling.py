"""Vectorized exact sampling primitives, and the one row merge, shared by the simulators."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .laws import EnvironmentLaw, ImmigrationPair

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

    ``probs`` is one law over the categories, or one law per row (shape
    (len(n), categories)); ``Generator.multinomial`` draws every row, each
    by conditional binomials.  One category draws nothing: its counts are
    ``n`` itself, as a column.  Returns an int64 array of shape
    (len(n), categories) whose rows sum to n.
    """
    n = np.asarray(n, dtype=np.int64)
    if probs.shape[-1] == 1:
        return n[:, None]
    return rng.multinomial(n, probs)


def merge_rows(ids: np.ndarray, values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows (id, value, count) sorted by id, then value, the counts of equal rows summed."""
    order = np.lexsort((values, ids))
    ids, values = ids[order], values[order]
    first = np.flatnonzero(np.diff(ids, prepend=-1) | np.diff(values, prepend=-1))
    return ids[first], values[first], np.add.reduceat(counts[order], first)


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
    env: EnvironmentLaw,
    comps: np.ndarray,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """One division of every lane: both daughters' offspring, then contamination.

    Lane i's ``states[i]`` parasites reproduce through component
    ``comps[i]`` of ``env`` into two daughter rows.  A binomial split
    environment records ``env._split`` = (Z, each component's p) and is
    drawn from it, all lanes at once: the brood total T, the sum of x iid Z,
    is split as s0 ~ Bin(T, p), s1 = T - s0.  T is not capped, so each
    daughter is exact or saturated on its own.  Other environments, and a
    split one whose x times the largest Z could pass int64, draw from the
    pair table ``env._atoms``: one multinomial of x trials per lane over its
    component's row, whose counts times the (a, b) pairs give both
    daughters in one product.  ``keep``, one 0 or 1 per lane,
    keeps that daughter's row only, as the cell line follows one daughter.
    Each kept row saturates at ``BATCH_STATE_CAP``, then gets ``imm.y0``
    contamination where the mother was parasite-free and ``imm.y1``
    elsewhere, each side drawn only when its law is not zero.  Returns an
    int64 array of shape (2, len(states)), or (1, len(states)) with ``keep``.
    """
    split = env._split
    if split is not None and int(states.max(initial=0)) * split[0].max_value < 2**63:
        z, ps = split
        total = multinomial_counts(rng, states, z._probs_arr) @ z._vals_arr
        first = rng.binomial(total, ps[comps])
        rows = np.stack((first, np.subtract(total, first, out=total)))
    else:
        values, probs = env._atoms
        counts = multinomial_counts(rng, states, probs[comps] if len(probs) > 1 else probs)
        rows = capped_sum(counts, values, states).T
    if keep is not None:
        rows = np.choose(keep, rows)[None]
    np.minimum(rows, BATCH_STATE_CAP, out=rows)
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
