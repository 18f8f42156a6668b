"""Vectorized exact sampling primitives, the one row merge and the one ledger step."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .laws import EnvironmentLaw, ImmigrationPair

# Batch states saturate here: float64 still counts exactly up to 2**53.
BATCH_STATE_CAP = 2**53

# draws one tree generation may make: each cell divided on its own, and each
# category of a pair table drawn as one multinomial
_ROW_BUDGET = 2**22


class DepthTooLarge(ValueError):
    """Requested tree depth, or one generation's draws, exceeds the tree's bound."""


def start_lanes(k0: int, n: int) -> np.ndarray:
    """n copies of the start state k0, which must lie in [0, ``BATCH_STATE_CAP``]."""
    if not 0 <= k0 <= BATCH_STATE_CAP:
        raise ValueError(f"start state {k0} must be nonnegative and at most {BATCH_STATE_CAP}")
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
    drawn from it, all lanes at once: the brood total T, the sum of x iid Z
    (x times a one-atom Z), is split as s0 ~ Bin(T, p), s1 = T - s0, with
    one scalar p when there is one component.  T is not capped, so each
    daughter is exact or saturated on its own.  Other environments, and a
    split one whose x times the largest Z could pass int64, draw from the
    pair table ``env._atoms``: one multinomial of x trials per lane over its
    component's row, whose counts times the (a, b) pairs give both
    daughters in one product.  ``keep``, one 0 or 1 per lane,
    keeps that daughter's row only, as the cell line follows one daughter.
    Each kept row saturates at ``BATCH_STATE_CAP``, then gets ``imm.y0``
    contamination where the mother was parasite-free and ``imm.y1``
    elsewhere, each side drawn only when its law is not zero.  Returns the
    (2, n) transpose of one int64 (cell, daughter) block of n lanes, or (1, n) with ``keep``.
    """
    split = env._split
    if split is not None and int(states.max(initial=0)) * split[0].max_value < 2**63:
        z, ps = split
        total = (states * z._vals_arr[0] if len(z.values) == 1
                 else multinomial_counts(rng, states, z._probs_arr) @ z._vals_arr)
        rows = np.empty((len(states), 2), np.int64)
        rows[:, 0] = rng.binomial(total, ps[0] if len(ps) == 1 else ps[comps])
        np.subtract(total, rows[:, 0], out=rows[:, 1])
        rows = rows.T
    else:
        values, probs = env._atoms
        counts = multinomial_counts(rng, states, probs[comps] if len(probs) > 1 else probs)
        rows = capped_sum(counts, values, states).T
    if keep is not None:
        rows = np.choose(keep, rows)[None]
    np.minimum(rows, BATCH_STATE_CAP, out=rows)
    if imm.is_zero_pair:
        return rows
    free = states == 0
    sides = [(mask, law) for mask, law in ((free, imm.y0), (~free, imm.y1)) if not law.is_zero]
    draws = np.zeros(len(states), dtype=np.int64)
    for row in rows:
        for mask, law in sides:
            draws[mask] = law.sample_many(rng, np.count_nonzero(mask))
        row += draws
    return np.minimum(rows, BATCH_STATE_CAP, out=rows)


def bulk_rows(values: np.ndarray, counts: np.ndarray, brood, imm: ImmigrationPair) -> np.ndarray:
    """Rows of c cells at v that ``divide_rows`` draws: Q_v known, with fewer than c atoms."""
    z = brood[0] if brood else 0
    finite = all(hasattr(y, "_probs_arr") for y in (imm.y0, imm.y1))  # an atom table each
    # Q_v is known at v = 0 and, under a brood, at every v; c > vz + 1 in float: vz cannot wrap
    return finite & ((values == 0) | (brood is not None)) & (counts > values * float(z) + 1)


def pair_counts(n: np.ndarray, c: np.ndarray, p: float, rng) -> list[np.ndarray]:
    """(row i, s0, pairs) for each s0 that some of c[i] pairs with s0 ~ Bin(n[i], p) took.

    One multinomial draws every row from one table, each row's pmf padded with zeros
    to the widest row's n + 1: rows x (max n + 1) entries, one column (no draw) if all n = 0.
    """
    k = np.arange(n.max() + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    top = n[:, None]
    j = np.minimum(k, top)
    log_pmf = log_fact[top] - log_fact[j] - log_fact[top - j]
    pmf = np.exp(log_pmf + j * math.log(p) + (top - j) * math.log1p(-p)) * (k <= top)
    draws = multinomial_counts(rng, c, pmf / pmf.sum(axis=1, keepdims=True))
    row, s0 = np.nonzero(draws)
    return [row, s0, draws[row, s0]]


def divide_rows(values, counts, brood, imm, rng, keep_one=False) -> list[np.ndarray]:
    """Daughter rows (row i, value, count) of ``bulk_rows``' counts[i] cells at values[i].

    A row's c pairs are one multinomial over Q_v (``pair_counts``), and each kept (row, side)
    one over its contamination.  With ``keep_one`` each cell keeps one daughter, as the cell
    line does: of a pair row's d cells, k ~ Bin(d, 1/2) keep daughter 0 and d - k daughter 1.
    """
    if not values.size:
        return [values] * 3
    z, p = brood or (0, 0.5)  # with no brood, only Q_0 = (0, 0) is known
    n = values * z
    row, s0, pairs = pair_counts(n, counts, p, rng)
    pre = np.concatenate((s0, n[row] - s0))  # daughter 0's rows, then daughter 1's
    k = rng.binomial(pairs, 0.5) if keep_one else pairs
    row, kept = np.concatenate((row, row)), np.concatenate((k, pairs - k if keep_one else pairs))
    free = values[row] == 0
    parts = []
    for mask, law in ((free, imm.y0), (~free, imm.y1)):
        draws = multinomial_counts(rng, kept[mask], law._probs_arr)
        i, j = np.nonzero(draws)
        daughters = np.minimum(pre[mask][i] + law._draws[j], BATCH_STATE_CAP)
        parts.append((row[mask][i], daughters, draws[i, j]))
    return [np.concatenate(x) for x in zip(*parts)]


def ledger_step(rows, env, imm, rng, divide_cells, keep_one=False) -> tuple:
    """Rows (run, value, count) sorted by run, then value, one division on.

    ``divide_rows`` draws the rows that ``bulk_rows`` picks, and ``divide_cells`` the cells
    of the others into two daughters each (the tree's ``advance_generation``) or, with
    ``keep_one``, one.  A step that keeps both daughters raises ``DepthTooLarge`` before any
    draw when it would draw more than ``_ROW_BUDGET`` rows; a keep-one step never draws more
    rows than it holds paths.  One run's daughters are sorted in place and cut where the
    value changes.
    """
    runs, values, counts = rows
    brood = env._brood
    multi = bulk_rows(values, counts, brood, imm)
    alone = counts * ~multi
    if not keep_one:  # each cell alone, and each bulk row's Bin(vz, p) atoms
        z = brood[0] if brood else 0
        drawn = int(alone.sum()) + int(values[multi].sum()) * z + int(multi.sum())
        if drawn > _ROW_BUDGET:
            raise DepthTooLarge(f"a generation would draw {drawn} rows, over budget {_ROW_BUDGET}")
    cells = np.repeat(values, alone)
    cells = divide_cells(cells) if cells.size else cells
    row, kept, n_kept = divide_rows(values[multi], counts[multi], brood, imm, rng, keep_one)
    if runs[-1:].any():  # many runs: the cells divided one by one join the rows to merge
        ids = np.repeat(runs, (2 - keep_one) * alone)
        return merge_rows(np.concatenate((runs[multi][row], ids)), np.concatenate((kept, cells)),
                          np.concatenate((n_kept, np.ones_like(cells))))
    if kept.size:
        cells = np.concatenate((cells, kept))
    cells.sort()
    edge = np.ones(cells.size + 1, bool)  # True where a value starts, and at the end
    np.not_equal(cells[1:], cells[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    values, counts = cells[bounds[:-1]], np.diff(bounds)
    np.add.at(counts, np.searchsorted(values, kept), n_kept - 1)
    return np.zeros(values.size, np.int64), values, counts
