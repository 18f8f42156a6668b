"""Which cellbranch entry points are traced, and the per-layer metrics read from them.

Span names use the module name without its leading underscore, since metric
names must start with a letter (``_sampling`` becomes ``sampling``).
"""

from __future__ import annotations

from pathlib import Path

from spans import LayerStats, Span, Target, aggregate, child_count


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _regeneration_counts(args, kwargs, est) -> dict:
    attempted = _arg(args, kwargs, 3, "excursions")
    cap = _arg(args, kwargs, 4, "cap", 100_000)
    capped = round(est.capped_fraction * attempted)
    return {"steps": est.total_length + capped * cap, "excursions": attempted, "capped": capped}


def _bfs_counts(args, kwargs, ledgers) -> dict:
    imm = _arg(args, kwargs, 3, "imm")
    if imm.is_zero_pair:
        infected = [led.infected for led in ledgers]
        daughters = 2 * sum(infected[:-1])
        return {"cells": daughters, "zero_daughters": daughters, "zero_kept": sum(infected[1:])}
    return {"cells": sum(led.cells for led in ledgers[1:])}


def _write_csv_counts(args, kwargs, _) -> dict:
    rows = _arg(args, kwargs, 2, "rows")
    out = {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}
    if hasattr(rows, "__len__"):
        out["rows"] = len(rows)
    return out


TARGETS = [
    Target("cellbranch.laws", "build_binomial_split", "laws.build_binomial_split"),
    Target("cellbranch.laws", "FiniteLaw.sample_many", "laws.FiniteLaw.sample_many",
           lambda a, k, r: {"draws": len(r)}),
    Target("cellbranch.laws", "HeavyTailLaw.sample_many", "laws.HeavyTailLaw.sample_many",
           lambda a, k, r: {"draws": len(r)}),
    Target("cellbranch._sampling", "multinomial_counts", "sampling.multinomial_counts",
           lambda a, k, r: {"rows": r.shape[0], "binomial_draws": r.shape[0] * (r.shape[1] - 1)}),
    Target("cellbranch.lineage", "batch_step", "lineage.batch_step",
           lambda a, k, r: {"path_steps": len(r)}),
    Target("cellbranch.lineage", "simulate_states_batch", "lineage.simulate_states_batch"),
    Target("cellbranch.lineage", "simulate_normalized_batch", "lineage.simulate_normalized_batch"),
    Target("cellbranch.lineage", "stationary_by_regeneration",
           "lineage.stationary_by_regeneration", _regeneration_counts),
    Target("cellbranch.lineage", "collect_hitting_times", "lineage.collect_hitting_times",
           lambda a, k, r: {"steps": int(r.times.sum()), "samples": len(r.times),
                            "capped": round(r.capped_fraction * len(r.times))}),
    Target("cellbranch.tree", "advance_generation", "tree.advance_generation",
           lambda a, k, r: {"cells_in": len(r) // 2}),
    Target("cellbranch.tree", "simulate_tree_bfs", "tree.simulate_tree_bfs", _bfs_counts),
    Target("cellbranch.tree", "iter_forest_bfs", "tree.iter_forest_bfs",
           lambda a, k, item: {"cells": item[1].size if item[0] > 0 else 0}, generator=True),
    Target("cellbranch.tree", "simulate_parasite_totals", "tree.simulate_parasite_totals"),
    Target("cellbranch.tree", "simulate_tree_dfs", "tree.simulate_tree_dfs",
           lambda a, k, r: {"nodes": 2 ** (r.n + 1) - 1}),
    Target("cellbranch.oracle", "build_kernel", "oracle.build_kernel",
           lambda a, k, r: {"rows": r.size, "max_overflow": float(r.overflow.max())}),
    Target("cellbranch.oracle", "propagate", "oracle.propagate"),
    Target("cellbranch.oracle", "stationary_solve", "oracle.stationary_solve",
           lambda a, k, r: {"iterations": r.iterations, "max_escape_rate": r.escape_rate}),
    Target("cellbranch.oracle", "renewal_limit", "oracle.renewal_limit",
           lambda a, k, r: {"steps": r.steps}),
    Target("cellbranch.oracle", "hitting_tail", "oracle.hitting_tail"),
    Target("cellbranch.oracle", "survival_no_immigration", "oracle.survival_no_immigration"),
    Target("cellbranch.stats", "EmpiricalMeasure.from_samples", "stats.EmpiricalMeasure.from_samples"),
    Target("cellbranch.stats", "tv_distance", "stats.tv_distance"),
    Target("cellbranch.config", "load_config", "config.load_config"),
    Target("cellbranch.experiments", "run_experiment", "experiments.run_experiment"),
    Target("cellbranch.experiments", "run_tree", "experiments.run_tree"),
    Target("cellbranch.experiments", "run_lineage", "experiments.run_lineage"),
    Target("cellbranch.runio", "write_csv", "runio.write_csv", _write_csv_counts),
]

# Verify suites each workload can run, library and CLI; their spans are opened
# by the benchmark itself around each suite.
SUITE_SPANS = (
    "oracle-equivalence",
    "normalized-limit",
    "growth-exponent",
    "divergence",
    "clt-stabilization",
    "toy-renewal",
    "binomial-criterion",
    "critical-survival",
    "geometric-tail",
    "cli-geometric-tail",
    "cli-oracle-equivalence",
)

# (metric, unit): ``<span>.calls`` and ``<span>.self_s`` read the span's call
# count and self time, ``<span>.<count>`` a count recorded on it; the rest
# are derived in ``layer_metrics``.
PER_LAYER = [
    ("laws.build_binomial_split.calls", "count"),
    ("laws.build_binomial_split.self_s", "s"),
    ("laws.FiniteLaw.sample_many.self_s", "s"),
    ("laws.FiniteLaw.sample_many.draws", "count"),
    ("laws.HeavyTailLaw.sample_many.self_s", "s"),
    ("laws.HeavyTailLaw.sample_many.draws", "count"),
    ("sampling.multinomial_counts.calls", "count"),
    ("sampling.multinomial_counts.self_s", "s"),
    ("sampling.multinomial_counts.rows", "count"),
    ("sampling.multinomial_counts.binomial_draws", "count"),
    ("lineage.batch_step.calls", "count"),
    ("lineage.batch_step.self_s", "s"),
    ("lineage.batch_step.path_steps", "count"),
    ("lineage.simulate_states_batch.self_s", "s"),
    ("lineage.simulate_normalized_batch.self_s", "s"),
    ("lineage.stationary_by_regeneration.self_s", "s"),
    ("lineage.stationary_by_regeneration.steps", "count"),
    ("lineage.stationary_by_regeneration.excursions_per_s", "1/s"),
    ("lineage.stationary_by_regeneration.capped_fraction", "ratio"),
    ("lineage.collect_hitting_times.self_s", "s"),
    ("lineage.collect_hitting_times.steps", "count"),
    ("lineage.collect_hitting_times.capped_fraction", "ratio"),
    ("tree.advance_generation.calls", "count"),
    ("tree.advance_generation.self_s", "s"),
    ("tree.advance_generation.cells_in", "count"),
    ("tree.simulate_tree_bfs.self_s", "s"),
    ("tree.simulate_tree_bfs.cells", "count"),
    ("tree.simulate_tree_bfs.infected_kept_ratio", "ratio"),
    ("tree.iter_forest_bfs.self_s", "s"),
    ("tree.iter_forest_bfs.cells", "count"),
    ("tree.simulate_parasite_totals.self_s", "s"),
    ("tree.simulate_tree_dfs.calls", "count"),
    ("tree.simulate_tree_dfs.self_s", "s"),
    ("tree.simulate_tree_dfs.nodes", "count"),
    ("oracle.build_kernel.calls", "count"),
    ("oracle.build_kernel.self_s", "s"),
    ("oracle.build_kernel.rows", "count"),
    ("oracle.stationary_solve.self_s", "s"),
    ("oracle.stationary_solve.iterations", "count"),
    ("oracle.propagate.self_s", "s"),
    ("oracle.renewal_limit.self_s", "s"),
    ("oracle.renewal_limit.steps", "count"),
    ("oracle.hitting_tail.self_s", "s"),
    ("oracle.survival_no_immigration.calls", "count"),
    ("oracle.survival_no_immigration.self_s", "s"),
    ("oracle.survival_no_immigration.kernel_fallbacks", "count"),
    ("oracle.overflow_max", "ratio"),
    ("oracle.escape_rate", "ratio"),
    ("stats.EmpiricalMeasure.from_samples.self_s", "s"),
    ("stats.tv_distance.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.run_tree.self_s", "s"),
    ("experiments.run_lineage.self_s", "s"),
    ("runio.write_csv.self_s", "s"),
    ("runio.write_csv.rows", "count"),
    ("runio.write_csv.bytes", "B"),
    ("tree_cells_per_s", "1/s"),
    ("batch_path_steps_per_s", "1/s"),
    ("scalar_steps_per_s", "1/s"),
    ("dfs_nodes_per_s", "1/s"),
    *[(f"verify.{suite}.s", "s") for suite in SUITE_SPANS],
    ("verify.checks_failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(span_lists: list[list[Span]], extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric, zero where the workload never reached that layer."""
    agg = aggregate(span_lists)
    empty = LayerStats()

    def get(name: str) -> LayerStats:
        return agg.get(name, empty)

    def count(name: str, key: str) -> float:
        return get(name).counts.get(key, 0)

    derived = {
        "lineage.stationary_by_regeneration.excursions_per_s": _ratio(
            count("lineage.stationary_by_regeneration", "excursions"),
            get("lineage.stationary_by_regeneration").total_s,
        ),
        "lineage.stationary_by_regeneration.capped_fraction": _ratio(
            count("lineage.stationary_by_regeneration", "capped"),
            count("lineage.stationary_by_regeneration", "excursions"),
        ),
        "lineage.collect_hitting_times.capped_fraction": _ratio(
            count("lineage.collect_hitting_times", "capped"),
            count("lineage.collect_hitting_times", "samples"),
        ),
        "tree.simulate_tree_bfs.infected_kept_ratio": _ratio(
            count("tree.simulate_tree_bfs", "zero_kept"),
            count("tree.simulate_tree_bfs", "zero_daughters"),
        ),
        "oracle.survival_no_immigration.kernel_fallbacks": sum(
            child_count(spans, "oracle.survival_no_immigration", "oracle.build_kernel")
            for spans in span_lists
        ),
        "oracle.overflow_max": count("oracle.build_kernel", "max_overflow"),
        "oracle.escape_rate": count("oracle.stationary_solve", "max_escape_rate"),
        "tree_cells_per_s": _ratio(
            count("tree.simulate_tree_bfs", "cells") + count("tree.iter_forest_bfs", "cells"),
            get("tree.simulate_tree_bfs").total_s + get("tree.iter_forest_bfs").total_s,
        ),
        "batch_path_steps_per_s": _ratio(
            count("lineage.batch_step", "path_steps"), get("lineage.batch_step").total_s
        ),
        "scalar_steps_per_s": _ratio(
            count("lineage.stationary_by_regeneration", "steps")
            + count("lineage.collect_hitting_times", "steps"),
            get("lineage.stationary_by_regeneration").total_s
            + get("lineage.collect_hitting_times").total_s,
        ),
        "dfs_nodes_per_s": _ratio(
            count("tree.simulate_tree_dfs", "nodes"), get("tree.simulate_tree_dfs").total_s
        ),
    }
    for suite in SUITE_SPANS:
        derived[f"verify.{suite}.s"] = get(f"verify.{suite}").total_s
    derived.update(extra)

    out = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            out[metric] = float(derived[metric])
            continue
        span, _, field = metric.rpartition(".")
        stats = get(span)
        if field == "calls":
            out[metric] = float(stats.calls)
        elif field == "self_s":
            out[metric] = stats.self_s
        else:
            out[metric] = float(stats.counts.get(field, 0))
    return out
