"""Experiment runners: replicate fan-out, deterministic merges, artifacts.

Replicates are sharded into fixed-size blocks; block b of a run draws from a
generator derived from (master seed, domain, b).  Block boundaries do not
depend on the worker count and every merge is an order-independent
reduction, so results depend only on the config and seed, never on
scheduling.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ._sampling import merge_rows
from .config import ConfigError, RunConfig, _integer, _require
from .laws import EnvironmentLaw, ImmigrationPair
from .lineage import simulate_states_batch
from .oracle import (
    build_kernel,
    hitting_tail,
    propagate,
    renewal_limit,
    renewal_sequence,
    stationary_solve,
)
from .runio import write_csv, write_json, write_manifest
from .tree import _check_depth, simulate_tree_bfs, simulate_tree_dfs

LINEAGE_DOMAIN = 1
TREE_DOMAIN = 2
LINEAGE_BLOCK = 8192
_ORACLE_QUANTITIES = ("pmf", "renewal", "stationary", "hitting_tail")


def substream(master_seed: int, domain: int, block: int) -> np.random.Generator:
    """Generator derived from (seed, domain, block); independent of scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(domain, block))
    )


def _split_blocks(total: int, block_size: int) -> list[tuple[int, int]]:
    """(start, count) per block; boundaries depend only on the totals."""
    return [
        (start, min(block_size, total - start)) for start in range(0, total, block_size)
    ]


def _map_blocks(fn, jobs: list, workers: int) -> list:
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# --- lineage -----------------------------------------------------------------


def _lineage_block(job) -> np.ndarray:
    env, imm, k0, checkpoints, seed, block_index, count = job
    rng = substream(seed, LINEAGE_DOMAIN, block_index)
    rows = []
    for t, states in simulate_states_batch(k0, env, imm, rng, count, checkpoints).items():
        first = np.flatnonzero(np.diff(states, prepend=-1))  # sorted: each value's first lane
        rows.append(np.column_stack(np.broadcast_arrays(t, states[first],
                                                        np.diff(first, append=count))))
    return np.concatenate(rows)


def run_lineage(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    k0: int,
    checkpoints: list[int],
    replicates: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Empirical state distribution of the cell line at each checkpoint.

    Returns int64 rows (checkpoint, state, paths), sorted by checkpoint,
    then state; each checkpoint's paths sum to ``replicates``.
    """
    jobs = [
        (env, imm, k0, checkpoints, seed, bi, count)
        for bi, (_, count) in enumerate(_split_blocks(replicates, LINEAGE_BLOCK))
    ]
    rows = np.concatenate(_map_blocks(_lineage_block, jobs, workers))
    return np.column_stack(merge_rows(*rows.T))


# --- tree --------------------------------------------------------------------


def _tree_block(job) -> np.ndarray:
    env, imm, k0, n_max, traversal, seed, block_index, start_run, count = job
    rng = substream(seed, TREE_DOMAIN, block_index)
    rows = []
    for run_id in range(start_run, start_run + count):
        if traversal == "dfs":
            ledgers = [simulate_tree_dfs(k0, n_max, env, imm, rng)]
        else:
            ledgers = simulate_tree_bfs(k0, n_max, env, imm, rng)
        rows += [np.column_stack(np.broadcast_arrays(run_id, led.n, led.values, led.counts))
                 for led in ledgers]
    return np.concatenate(rows)


def run_tree(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    k0: int,
    n_max: int,
    replicates: int,
    seed: int,
    traversal: str = "bfs",
    workers: int = 1,
) -> np.ndarray:
    """Per-run generation ledgers as int64 rows (run_id, generation, parasite count, cells).

    ``bfs`` writes every generation and ``dfs`` only generation ``n_max``;
    both run the same tree.  The rows come sorted by run, generation, then
    parasite count without a sort: blocks in run order, ledgers in
    generation order, values ascending.  An unknown traversal, or a depth
    past the tree's bound, raises ``ConfigError`` before anything is simulated.
    """
    if traversal not in ("bfs", "dfs"):
        raise ConfigError(f"unknown traversal {traversal!r} (bfs | dfs)")
    try:
        _check_depth(n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    block_size = max(1, min(64, 2**18 // 2**n_max))
    jobs = [
        (env, imm, k0, n_max, traversal, seed, bi, start, count)
        for bi, (start, count) in enumerate(_split_blocks(replicates, block_size))
    ]
    return np.concatenate(_map_blocks(_tree_block, jobs, workers))


# --- experiment dispatch -----------------------------------------------------


def run_experiment(cfg: RunConfig, out_dir: Path, workers: int = 1) -> list[str]:
    """Dispatch on the experiment kind; returns the artifact paths written."""
    started = time.time()
    kind = _require(cfg.experiment, "kind", "experiment")
    outputs: list[str] = []

    def write(name: str, writer, *payload) -> None:
        writer(out_dir / name, *payload)
        outputs.append(str(out_dir / name))

    if kind in ("lineage", "tree"):
        n = _integer(_require(cfg.experiment, "n", "experiment"), "experiment.n")
        replicates = _integer(
            _require(cfg.experiment, "replicates", "experiment"), "experiment.replicates"
        )
        if replicates < 1:
            raise ConfigError(f"replicates must be at least 1, got {replicates}")

    if kind == "lineage":
        checkpoints = cfg.experiment.get("checkpoints", [n])
        if not isinstance(checkpoints, list):
            raise ConfigError(f"checkpoints must be a list, got {checkpoints!r}")
        checkpoints = [_integer(c, "experiment.checkpoints") for c in checkpoints]
        if not checkpoints or min(checkpoints) < 0:
            raise ConfigError(f"checkpoints must be nonnegative and not empty, got {checkpoints}")
        rows = run_lineage(cfg.env, cfg.imm, cfg.k0, checkpoints, replicates, cfg.seed, workers)
        write("lineage_states.csv", write_csv, ("checkpoint", "state", "count"), rows)
        cps, at = np.unique(rows[:, 0], return_inverse=True)
        totals = np.zeros(cps.size, object)  # Python ints: a sum of states can pass int64
        np.add.at(totals, at, rows[:, 1].astype(object) * rows[:, 2])
        free = rows[:, 1] == 0
        empty = dict(zip(rows[free, 0].tolist(), rows[free, 2].tolist()))
        summary = {
            str(cp): {
                "replicates": replicates,
                "mean": total / replicates,
                "fraction_empty": empty.get(cp, 0) / replicates,
            }
            for cp, total in zip(cps.tolist(), totals)
        }
        write("lineage_summary.json", write_json, summary)

    elif kind == "tree":
        traversal = cfg.experiment.get("traversal", "bfs")
        if not isinstance(traversal, str):
            raise ConfigError(f"traversal must be a string, got {traversal!r}")
        rows = run_tree(cfg.env, cfg.imm, cfg.k0, n, replicates, cfg.seed, traversal, workers)
        write("tree_ledgers.csv", write_csv, ("run_id", "n", "k", "count"), rows)
        # every run holds 2**g cells at each generation g it writes, so only
        # the free cells (k == 0 rows) are summed, as Python ints: totals can pass int64
        _, gen, k, c = rows.T
        free = dict.fromkeys(np.flatnonzero(np.bincount(gen)).tolist(), 0)
        for g, count in zip(gen[k == 0].tolist(), c[k == 0].tolist()):
            free[g] += count
        summary = {
            "replicates": replicates,
            "traversal": traversal,
            "mean_infected_fraction": {
                str(g): (replicates * 2**g - f) / (replicates * 2**g) for g, f in free.items()
            },
        }
        write("tree_summary.json", write_json, summary)

    elif kind == "oracle":
        K = _integer(cfg.experiment.get("K", 512), "experiment.K")
        n = _integer(cfg.experiment.get("n", 50), "experiment.n")
        if K < 0 or n < 0:
            raise ConfigError(f"oracle K and n must be nonnegative, got K={K}, n={n}")
        cap = _integer(cfg.experiment.get("cap", 100_000), "experiment.cap")
        if cap < 1:
            raise ConfigError(f"cap must be at least 1, got {cap}")
        budget = cfg.experiment.get("overflow_budget", 1e-6)
        if budget is not None and (type(budget) not in (int, float) or not budget >= 0):
            raise ConfigError(f"overflow_budget must be a number >= 0 or null, got {budget!r}")
        quantities = cfg.experiment.get("quantities", list(_ORACLE_QUANTITIES))
        if not isinstance(quantities, list):
            raise ConfigError(f"quantities must be a list, got {quantities!r}")
        unknown = [q for q in quantities if q not in _ORACLE_QUANTITIES]
        if unknown:
            raise ConfigError(f"unknown oracle quantities {unknown}, expected {_ORACLE_QUANTITIES}")
        kernel = build_kernel(cfg.env, cfg.imm, K, overflow_budget=budget)
        if "pmf" in quantities:
            result = propagate(kernel, cfg.k0, n)
            rows = [(str(k), repr(float(p))) for k, p in enumerate(result.probs)]
            rows.append(("overflow", repr(result.overflow)))
            write("oracle_pmf.csv", write_csv, ("state", "probability"), rows)
        if "renewal" in quantities:
            limit = renewal_limit(kernel, cap=cap)
            u = renewal_sequence(kernel, n)
            renewal = {
                "u_infinity": limit.u_infinity,
                "expected_return_time": limit.expected_return_time,
                "remainder_bound": limit.remainder_bound,
                "u_sequence_tail": list(u[-10:]),
            }
            write("oracle_renewal.json", write_json, renewal)
        if "stationary" in quantities:
            result = stationary_solve(kernel)
            rows = [
                (k, repr(float(a)), repr(float(b)))
                for k, (a, b) in enumerate(zip(result.pmf, result.excursion))
            ]
            write("oracle_stationary.csv", write_csv,
                  ("state", "power_iteration", "excursion_formula"), rows)
        if "hitting_tail" in quantities:
            tail = hitting_tail(kernel, cfg.k0, n)
            rows = [(i + 1, repr(float(t))) for i, t in enumerate(tail)]
            write("oracle_hitting_tail.csv", write_csv, ("n", "tail_probability"), rows)

    else:
        raise ConfigError(f"unknown experiment kind {kind!r} (lineage | tree | oracle)")

    manifest = write_manifest(out_dir, cfg.raw, cfg.seed, outputs, started)
    outputs.append(str(manifest))
    return outputs
