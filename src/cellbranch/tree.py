"""Full cell population on the binary division tree.

Every cell divides into two daughters each generation.  A cell with x
parasites draws one offspring mechanism from the environment, its x parasites
reproduce through that mechanism's joint law (child goes to daughter 0 or
daughter 1), and each daughter independently receives contamination: from the
state-zero law when the mother was parasite-free, from the infected-state law
otherwise.  ``advance_generation`` draws that division through
``_sampling.divide``; the random cell line takes the same division and
keeps one daughter.  A binomially split environment draws the brood total T
of the cell's x parasites (the sum of x iid Z), then s0 ~ Bin(T, p) with the
cell's own p and s1 = T - s0, for all cells at once; other environments
draw every cell from the environment's one table of joint pair atoms, by
one multinomial over the row of the cell's component.

Two traversals cover the practical depth range.  The breadth-first simulator
advances whole generations as arrays and keeps a ledger per generation; runs
with zero contamination track only infected cells (parasite-free cells stay
parasite-free forever, exactly).  The depth-first simulator walks the tree
in blocks of at most 2^16 sibling cells, each advanced by the same
generation step, so it holds O(depth * 2^16) cells and tallies only the
target generation.  ``_check_depth`` is the one bound on both: at most 22
generations breadth-first and 30 depth-first.

A ledger stores a generation as the distinct parasite counts and the number
of cells holding each, two int64 arrays straight from ``np.unique``; every
ledger from cell states is tallied by ``_tally``.

The total parasite count across a generation is itself a Markov chain
whenever each parasite's total brood size has the same law in every realized
environment and contamination ignores the cell state; ``simulate_parasite_totals``
exploits that for the growth-rate experiments, with the same law as the full
tree's totals.  ``growth_exponent`` is the least-squares fit of log counts
against generation that reads those totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._sampling import BATCH_STATE_CAP, capped_sum, divide, multinomial_counts, start_lanes
from .laws import (
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
)
from .stats import EmptySeries

# deepest generation each traversal runs to
_DEPTH_LIMITS = {"bfs": 22, "dfs": 30}

# largest block of sibling cells the depth-first walk advances in one pass
_BLOCK_CELLS = 2**16


class DepthTooLarge(ValueError):
    """Requested tree depth exceeds the traversal's bound."""


def _check_depth(n: int, traversal: str) -> None:
    bound = _DEPTH_LIMITS.get(traversal)
    if bound is None:
        raise ValueError(f"unknown traversal {traversal!r} (bfs | dfs)")
    if n < 0:
        raise ValueError(f"depth {n} must be nonnegative")
    if n > bound:
        raise DepthTooLarge(f"depth {n} exceeds the {traversal} bound {bound}")


@dataclass(frozen=True, eq=False)
class GenerationLedger:
    """Parasite counts over the 2^n cells of generation n.

    ``values`` holds the distinct parasite counts in increasing order and
    ``counts[i]`` the number of cells carrying ``values[i]``, both int64.
    ``cells``, ``infected`` and the exact ``parasites_total`` are derived
    from the two arrays; ``histogram`` copies them into a dict.
    """

    n: int
    values: np.ndarray
    counts: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.counts.sum())

    @property
    def infected(self) -> int:
        free = int(self.counts[0]) if self.values[0] == 0 else 0
        return self.cells - free

    @property
    def parasites_total(self) -> int:
        """Exact parasite count of the generation, a Python int.

        Summed in int64 when the largest value times the cell count cannot
        wrap, and in Python ints otherwise.
        """
        if int(self.values[-1]) * self.cells < 2**63:
            return int(self.values @ self.counts)
        return sum(v * c for v, c in zip(self.values.tolist(), self.counts.tolist()))

    @property
    def histogram(self) -> dict[int, int]:
        """Cells per parasite count, as a dict built on each access."""
        return dict(zip(self.values.tolist(), self.counts.tolist()))


def _tally(n: int, states: np.ndarray, cells: int) -> GenerationLedger:
    """Ledger of generation n, whose ``cells`` cells hold ``states``.

    A contamination-free run keeps only its infected cells, so the
    ``cells - len(states)`` cells missing from ``states`` are parasite-free.
    """
    values, counts = np.unique(states, return_counts=True)
    if cells > states.size:
        values = np.concatenate(([0], values))
        counts = np.concatenate(([cells - states.size], counts))
    return GenerationLedger(n, values, counts)


def advance_generation(
    cells: Sequence[int] | np.ndarray,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
) -> np.ndarray:
    """One division round: returns the daughter states, two per input cell.

    Daughters of cell i land at positions 2i and 2i+1.  Each daughter's
    contamination is drawn independently.
    """
    states = np.asarray(cells, dtype=np.int64)
    if states.size == 0:
        raise ValueError("need at least one cell")
    return divide(states, env, env.sample_indices(rng, states.size), imm, rng).T.ravel()


def simulate_tree_bfs(
    k0: int,
    n_max: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
) -> list[GenerationLedger]:
    """Breadth-first population run; one ledger per generation 0..n_max."""
    _check_depth(n_max, "bfs")
    states = start_lanes(k0, 1)
    ledgers = []
    for g in range(n_max + 1):
        if g > 0 and states.size:
            states = advance_generation(states, env, imm, rng)
        if imm.is_zero_pair:
            # parasite-free cells stay parasite-free: carry only infected ones
            states = states[states > 0]
        ledgers.append(_tally(g, states, 2**g))
    return ledgers


def iter_forest_bfs(
    k0: int,
    n_max: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    n_runs: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Advance n_runs independent trees together, one flat array per generation.

    Yields (generation, states matrix of shape (n_runs, 2**generation)).
    Cells of independent runs are interleaved into a single vector pass, which
    is what makes many-replicate experiments affordable.
    """
    _check_depth(n_max, "bfs")
    states = start_lanes(k0, n_runs)
    yield 0, states.reshape(n_runs, 1)
    for g in range(1, n_max + 1):
        states = advance_generation(states, env, imm, rng)
        yield g, states.reshape(n_runs, 2**g)


def simulate_tree_dfs(
    k0: int,
    n_target: int,
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    rng: np.random.Generator,
    accumulator: dict[int, int] | None = None,
) -> GenerationLedger:
    """Depth-first run over breadth-first blocks, tallying only the target generation.

    Blocks of sibling cells are advanced a generation at a time; a block whose
    next generation would exceed ``_BLOCK_CELLS`` is split in half first, so
    memory stays O(depth * 2^16) cells.  Every cell's daughters are drawn
    independently, so the leaf histogram has the breadth-first simulator's
    law.  When ``accumulator`` is given, the leaf counts are also merged into
    it so replicate trees can share a tally.
    """
    _check_depth(n_target, "dfs")
    leaves: list[tuple[np.ndarray, np.ndarray]] = []
    stack = [(0, start_lanes(k0, 1))]
    while stack:
        depth, states = stack.pop()
        if depth == n_target:
            leaves.append(np.unique(states, return_counts=True))
        elif 2 * states.size > _BLOCK_CELLS:
            half = states.size // 2
            stack.append((depth, states[half:]))
            stack.append((depth, states[:half]))
        else:
            stack.append((depth + 1, advance_generation(states, env, imm, rng)))
    leaf_values, leaf_counts = zip(*leaves)
    values, where = np.unique(np.concatenate(leaf_values), return_inverse=True)
    counts = np.zeros(values.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate(leaf_counts))
    if accumulator is not None:
        for k, c in zip(values.tolist(), counts.tolist()):
            accumulator[k] = accumulator.get(k, 0) + c
    return GenerationLedger(n_target, values, counts)


def infected_fraction_series(ledgers: Sequence[GenerationLedger]) -> np.ndarray:
    """Fraction of infected cells per generation."""
    return np.array([led.infected / led.cells for led in ledgers])


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth exponent of a count series on the log scale."""

    exponent: float
    window: tuple[int, int]
    zero_censored: int


def growth_exponent(series: Sequence[int], window: tuple[int, int] | None = None) -> GrowthFit:
    """Exponential growth rate: least-squares slope of log counts against generation.

    ``window`` is a half-open generation range (start, stop), the last half of
    the generations by default: early generations are skipped because their
    small counts dominate the log scale otherwise.  Zero counts are excluded
    from the fit and reported.
    """
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise EmptySeries("no generations to fit")
    if window is None:
        window = (math.ceil((arr.size - 1) / 2), arr.size)
    start, stop = window
    if not 0 <= start < stop <= arr.size:
        raise ValueError(f"window {window} outside series of length {arr.size}")
    segment = arr[start:stop]
    idx = np.arange(start, stop)
    positive = segment > 0
    censored = int((~positive).sum())
    if positive.sum() < 2:
        raise EmptySeries("fewer than two positive counts in the fit window")
    coeffs = np.polyfit(idx[positive], np.log(segment[positive]), 1)
    return GrowthFit(exponent=float(coeffs[0]), window=window, zero_censored=censored)


def collapsed_total_law(env: EnvironmentLaw) -> FiniteLaw:
    """The shared per-parasite brood-size law, if the environment has one.

    The total-parasite shortcut is valid exactly when every realized
    mechanism gives the same law for a parasite's total number of children.
    """
    first, *others = [law.total_law() for law, _ in env.components]
    if not all(_same_law(first, other) for other in others):
        raise ValueError("environment components disagree on the total brood law")
    return first


def _same_law(a: FiniteLaw, b: FiniteLaw) -> bool:
    """Same atoms, and probabilities within 1e-12 of each other."""
    return a.values == b.values and all(abs(p - q) <= 1e-12 for p, q in zip(a.probs, b.probs))


def simulate_parasite_totals(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    k0: int,
    n_max: int,
    rng: np.random.Generator,
    n_runs: int,
) -> np.ndarray:
    """Generation totals of parasites for many runs, without building trees.

    Requires a shared brood-size law across realized environments and
    state-independent finite contamination; under those preconditions the
    returned (n_runs, n_max+1) series has exactly the law of the full tree's
    per-generation totals.
    """
    z, y = collapsed_total_law(env), imm.y0
    if isinstance(y, HeavyTailLaw) or isinstance(imm.y1, HeavyTailLaw):
        raise ValueError("total-parasite shortcut needs finite contamination laws")
    if not _same_law(y, imm.y1):
        raise ValueError("total-parasite shortcut needs state-independent contamination")
    totals = np.empty((n_runs, n_max + 1), dtype=np.int64)
    current = start_lanes(k0, n_runs)
    totals[:, 0] = current
    for g in range(1, n_max + 1):
        offspring = capped_sum(multinomial_counts(rng, current, z._probs_arr), z._vals_arr, current)
        cells = np.full(n_runs, 2**g, dtype=np.int64)
        arrivals = capped_sum(multinomial_counts(rng, cells, y._probs_arr), y._vals_arr, cells)
        current = np.minimum(offspring + arrivals, BATCH_STATE_CAP)
        totals[:, g] = current
    return totals
