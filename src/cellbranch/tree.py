"""Full cell population on the binary division tree.

Every cell divides into two daughters each generation.  A cell with x
parasites draws one offspring mechanism from the environment, its x parasites
reproduce through that mechanism's joint law (child goes to daughter 0 or
daughter 1), and each daughter independently receives contamination: from the
state-zero law when the mother was parasite-free, from the infected-state law
otherwise.  ``advance_generation`` draws that division cell by cell through
``_sampling.divide``, which the random cell line shares.

The cells of a generation are independent given their mothers' counts (a
bifurcating Markov chain), so a generation's ledger, the distinct counts and
the number of cells holding each, is all the state a tree needs.
``iter_forest_bfs`` is the one engine: it advances many trees as ledger rows
(run, value, count), one call of ``_sampling.ledger_step`` per generation,
which the cell line shares; ``simulate_tree_bfs`` and ``simulate_tree_dfs``
are one-tree views that keep every ledger or only the last.  The step picks
the rows it draws in bulk and divides the others cell by cell through
``advance_generation``.  A tree is at most 62 generations deep (cell counts
are int64), and a generation that would draw more than
``_sampling._ROW_BUDGET`` rows raises ``DepthTooLarge`` before any draw.

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

from ._sampling import (  # DepthTooLarge is re-exported as the tree's depth error
    BATCH_STATE_CAP, DepthTooLarge, capped_sum, divide, ledger_step, multinomial_counts,
    start_lanes,
)
from .laws import EnvironmentLaw, FiniteLaw, HeavyTailLaw, ImmigrationPair
from .stats import EmptySeries

# a generation's 2^n cells are counted in int64
_MAX_DEPTH = 62


def _check_depth(n: int) -> None:
    if n < 0:
        raise ValueError(f"depth {n} must be nonnegative")
    if n > _MAX_DEPTH:
        raise DepthTooLarge(f"depth {n} exceeds the bound {_MAX_DEPTH}: cell counts are int64")


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


def advance_generation(
    cells: Sequence[int] | np.ndarray, env: EnvironmentLaw, imm: ImmigrationPair,
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


def iter_forest_bfs(
    k0: int, n_max: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator,
    n_runs: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance n_runs independent trees together as ledger rows, one generation at a time.

    Yields (generation, runs, values, counts): run r holds counts[i] cells
    with values[i] parasites where runs[i] == r, sorted by run, then value.
    Each generation is one ``_sampling.ledger_step``, which picks the rows it
    draws in bulk, bounds the generation's draws and divides every other row
    cell by cell through ``advance_generation``.
    """
    _check_depth(n_max)
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    rows = np.arange(n_runs), start_lanes(k0, n_runs), np.ones(n_runs, np.int64)
    yield 0, *rows
    for g in range(1, n_max + 1):
        rows = ledger_step(rows, env, imm, rng,
                           lambda cells: advance_generation(cells, env, imm, rng))
        yield g, *rows


def simulate_tree_bfs(
    k0: int, n_max: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator
) -> list[GenerationLedger]:
    """One tree breadth-first: the ledger of every generation 0..n_max."""
    return [
        GenerationLedger(g, values, counts)
        for g, _, values, counts in iter_forest_bfs(k0, n_max, env, imm, rng, 1)
    ]


def simulate_tree_dfs(
    k0: int, n_target: int, env: EnvironmentLaw, imm: ImmigrationPair, rng: np.random.Generator,
    accumulator: dict[int, int] | None = None,
) -> GenerationLedger:
    """One tree, keeping only the ledger of generation n_target.

    When ``accumulator`` is given, the ledger's counts are also merged into
    it so replicate trees can share a tally.
    """
    for _, _, values, counts in iter_forest_bfs(k0, n_target, env, imm, rng, 1):
        pass
    if accumulator is not None:
        for k, c in zip(values.tolist(), counts.tolist()):
            accumulator[k] = accumulator.get(k, 0) + c
    return GenerationLedger(n_target, values, counts)


def infected_fraction_series(ledgers: Sequence[GenerationLedger]) -> np.ndarray:
    """Fraction of infected cells per generation."""
    return np.array([led.infected / led.cells for led in ledgers])


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth exponent of a count series, or of each row of many, on the log scale."""

    exponent: float | np.ndarray
    window: tuple[int, int]
    zero_censored: int | np.ndarray


def growth_exponent(
    series: Sequence[int] | np.ndarray, window: tuple[int, int] | None = None
) -> GrowthFit:
    """Exponential growth rate: least-squares slope of log counts against generation.

    ``window`` is a half-open generation range (start, stop), the last half of
    the generations by default: early generations are skipped because their
    small counts dominate the log scale otherwise.  Zero counts are excluded
    from the fit and reported.  A (runs, generations) array fits every row at
    once, in closed form with zero counts weighted out; its ``exponent`` and
    ``zero_censored`` are then arrays, one entry per row, and every row needs
    two positive counts in the window.
    """
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise EmptySeries("no generations to fit")
    length = arr.shape[-1]
    if window is None:
        window = (math.ceil((length - 1) / 2), length)
    start, stop = window
    if not 0 <= start < stop <= length:
        raise ValueError(f"window {window} outside series of length {length}")
    segment = arr[..., start:stop]
    positive = segment > 0
    used = positive.sum(axis=-1)
    if used.min() < 2:
        raise EmptySeries("fewer than two positive counts in the fit window")
    idx = np.arange(start, stop)
    x = (idx - (positive @ idx / used)[..., None]) * positive  # centered on each row's fit points
    y = np.log(segment, out=np.zeros_like(segment), where=positive)
    slope = (x * y).sum(-1) / (x * x).sum(-1)
    censored = stop - start - used
    if arr.ndim == 1:
        return GrowthFit(exponent=float(slope), window=window, zero_censored=int(censored))
    return GrowthFit(exponent=slope, window=window, zero_censored=censored)


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
