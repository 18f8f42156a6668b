"""Experiment runners: replicate fan-out, deterministic merges, artifacts.

Replicates are sharded into fixed-size blocks; block b of a run draws from a
generator derived from (master seed, domain, b).  Block boundaries do not
depend on the worker count and every merge is an order-independent
reduction, so results depend only on the config and seed, never on
scheduling.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _require
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
from .tree import _check_depth, _tally, iter_forest_bfs, simulate_tree_bfs, simulate_tree_dfs

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
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# --- lineage -----------------------------------------------------------------


def _lineage_block(job) -> dict[int, Counter]:
    env, imm, k0, checkpoints, seed, block_index, count = job
    rng = substream(seed, LINEAGE_DOMAIN, block_index)
    states = simulate_states_batch(k0, env, imm, rng, count, checkpoints=checkpoints)
    return {cp: Counter(arr.tolist()) for cp, arr in states.items()}


def run_lineage(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    k0: int,
    checkpoints: list[int],
    replicates: int,
    seed: int,
    workers: int = 1,
) -> dict[int, Counter]:
    """Empirical state distribution of the cell line at each checkpoint."""
    jobs = [
        (env, imm, k0, checkpoints, seed, bi, count)
        for bi, (_, count) in enumerate(_split_blocks(replicates, LINEAGE_BLOCK))
    ]
    merged: dict[int, Counter] = {cp: Counter() for cp in checkpoints}
    for partial in _map_blocks(_lineage_block, jobs, workers):
        for cp, counter in partial.items():
            merged[cp].update(counter)
    return merged


# --- tree --------------------------------------------------------------------


def _tree_block(job) -> list[tuple[int, int, int, int]]:
    env, imm, k0, n_max, traversal, seed, block_index, start_run, count = job
    rng = substream(seed, TREE_DOMAIN, block_index)
    runs = range(start_run, start_run + count)
    if traversal == "dfs":
        ledgers = ((run_id, simulate_tree_dfs(k0, n_max, env, imm, rng)) for run_id in runs)
    elif imm.is_zero_pair:
        ledgers = (
            (run_id, ledger)
            for run_id in runs
            for ledger in simulate_tree_bfs(k0, n_max, env, imm, rng)
        )
    else:
        ledgers = (
            (run_id, _tally(g, row, 2**g))
            for g, states in iter_forest_bfs(k0, n_max, env, imm, rng, count)
            for run_id, row in zip(runs, states)
        )
    return [
        (run_id, ledger.n, k, c)
        for run_id, ledger in ledgers
        for k, c in zip(ledger.values.tolist(), ledger.counts.tolist())
    ]


def run_tree(
    env: EnvironmentLaw,
    imm: ImmigrationPair,
    k0: int,
    n_max: int,
    replicates: int,
    seed: int,
    traversal: str = "bfs",
    workers: int = 1,
) -> list[tuple[int, int, int, int]]:
    """Per-run generation ledgers as (run_id, generation, parasite count, cells) rows.

    An unknown traversal, or a depth the traversal cannot run, raises
    ``ConfigError`` before anything is simulated.
    """
    try:
        _check_depth(n_max, traversal)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    block_size = max(1, min(64, 2**18 // 2**n_max))
    jobs = [
        (env, imm, k0, n_max, traversal, seed, bi, start, count)
        for bi, (start, count) in enumerate(_split_blocks(replicates, block_size))
    ]
    rows: list[tuple[int, int, int, int]] = []
    for partial in _map_blocks(_tree_block, jobs, workers):
        rows.extend(partial)
    rows.sort()
    return rows


# --- experiment dispatch -----------------------------------------------------


def run_experiment(cfg: RunConfig, out_dir: Path, workers: int = 1) -> list[str]:
    """Dispatch on the experiment kind; returns the artifact paths written."""
    started = time.time()
    kind = _require(cfg.experiment, "kind", "experiment")
    outputs: list[str] = []
    if kind in ("lineage", "tree"):
        n = int(_require(cfg.experiment, "n", "experiment"))
        replicates = int(_require(cfg.experiment, "replicates", "experiment"))
        if replicates < 1:
            raise ConfigError(f"replicates must be at least 1, got {replicates}")

    if kind == "lineage":
        checkpoints = [int(c) for c in cfg.experiment.get("checkpoints", [n])]
        if not checkpoints or min(checkpoints) < 0:
            raise ConfigError(f"checkpoints must be nonnegative and not empty, got {checkpoints}")
        merged = run_lineage(cfg.env, cfg.imm, cfg.k0, checkpoints, replicates, cfg.seed, workers)
        rows = [
            (cp, state, count)
            for cp in sorted(merged)
            for state, count in sorted(merged[cp].items())
        ]
        path = out_dir / "lineage_states.csv"
        write_csv(path, ("checkpoint", "state", "count"), rows)
        outputs.append(str(path))
        summary = {
            str(cp): {
                "replicates": replicates,
                "mean": sum(s * c for s, c in counter.items()) / replicates,
                "fraction_empty": counter.get(0, 0) / replicates,
            }
            for cp, counter in merged.items()
        }
        spath = out_dir / "lineage_summary.json"
        write_json(spath, summary)
        outputs.append(str(spath))

    elif kind == "tree":
        traversal = cfg.experiment.get("traversal", "bfs")
        rows = run_tree(cfg.env, cfg.imm, cfg.k0, n, replicates, cfg.seed, traversal, workers)
        path = out_dir / "tree_ledgers.csv"
        write_csv(path, ("run_id", "n", "k", "count"), rows)
        outputs.append(str(path))
        infected = Counter()
        cells = Counter()
        for _, g, k, c in rows:
            cells[g] += c
            if k > 0:
                infected[g] += c
        spath = out_dir / "tree_summary.json"
        write_json(
            spath,
            {
                "replicates": replicates,
                "traversal": traversal,
                "mean_infected_fraction": {
                    str(g): infected.get(g, 0) / cells[g] for g in sorted(cells)
                },
            },
        )
        outputs.append(str(spath))

    elif kind == "oracle":
        K = int(cfg.experiment.get("K", 512))
        n = int(cfg.experiment.get("n", 50))
        if K < 0 or n < 0:
            raise ConfigError(f"oracle K and n must be nonnegative, got K={K}, n={n}")
        budget = cfg.experiment.get("overflow_budget", 1e-6)
        quantities = cfg.experiment.get("quantities", list(_ORACLE_QUANTITIES))
        unknown = [q for q in quantities if q not in _ORACLE_QUANTITIES]
        if unknown:
            raise ConfigError(f"unknown oracle quantities {unknown}, expected {_ORACLE_QUANTITIES}")
        kernel = build_kernel(cfg.env, cfg.imm, K, overflow_budget=budget)
        if "pmf" in quantities:
            result = propagate(kernel, cfg.k0, n)
            rows = [(str(k), repr(float(p))) for k, p in enumerate(result.probs)]
            rows.append(("overflow", repr(result.overflow)))
            path = out_dir / "oracle_pmf.csv"
            write_csv(path, ("state", "probability"), rows)
            outputs.append(str(path))
        if "renewal" in quantities:
            limit = renewal_limit(kernel, cap=int(cfg.experiment.get("cap", 100_000)))
            u = renewal_sequence(kernel, n)
            path = out_dir / "oracle_renewal.json"
            write_json(
                path,
                {
                    "u_infinity": limit.u_infinity,
                    "expected_return_time": limit.expected_return_time,
                    "remainder_bound": limit.remainder_bound,
                    "u_sequence_tail": list(u[-10:]),
                },
            )
            outputs.append(str(path))
        if "stationary" in quantities:
            result = stationary_solve(kernel)
            path = out_dir / "oracle_stationary.csv"
            write_csv(
                path,
                ("state", "power_iteration", "excursion_formula"),
                [
                    (k, repr(float(a)), repr(float(b)))
                    for k, (a, b) in enumerate(zip(result.pmf, result.excursion))
                ],
            )
            outputs.append(str(path))
        if "hitting_tail" in quantities:
            tail = hitting_tail(kernel, cfg.k0, n)
            path = out_dir / "oracle_hitting_tail.csv"
            write_csv(
                path,
                ("n", "tail_probability"),
                [(i + 1, repr(float(t))) for i, t in enumerate(tail)],
            )
            outputs.append(str(path))

    else:
        raise ConfigError(f"unknown experiment kind {kind!r} (lineage | tree | oracle)")

    manifest = write_manifest(out_dir, cfg.raw, cfg.seed, outputs, started)
    outputs.append(str(manifest))
    return outputs
