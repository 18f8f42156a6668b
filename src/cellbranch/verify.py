"""Verification suites: every claim the library stands behind, checked end to end.

Each suite pits a Monte Carlo simulator against an exact oracle (or an exact
closed form) at a pinned tolerance and reports one result per check.  The
suites double as the acceptance gate of the test suite and as the payload of
the ``verify`` subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator

import numpy as np

from .experiments import substream
from .laws import (
    FiniteLaw,
    ImmigrationPair,
    binomial_recovery_criterion,
    build_binomial_split,
    expected_log_inverse_p,
    uniform_grid_p,
)
from .lineage import (
    simulate_normalized_batch,
    simulate_states_batch,
    stationary_by_regeneration,
)
from .oracle import (
    build_kernel,
    hitting_tail,
    propagate,
    renewal_limit,
    renewal_sequence,
    stationary_solve,
    survival_no_immigration,
)
from .presets import (
    critical_contaminated,
    heavy_tail_contaminated,
    split_environment,
    subcritical_binomial,
    subcritical_geometric,
    supercritical_contaminated,
    toy_chain,
)
from .stats import EmpiricalMeasure, sqrtn_stabilization, tv_distance
from .tree import (
    growth_exponent,
    infected_fraction_series,
    iter_forest_bfs,
    simulate_parasite_totals,
    simulate_tree_bfs,
)

DEFAULT_SEED = 20250801
Z99 = NormalDist().inv_cdf(0.995)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.measured} (tol: {self.tolerance}) [{self.seconds:.1f}s]"


def _rng(seed: int, tag: int) -> np.random.Generator:
    return substream(seed, 777, tag)


# what a check yields: (name, passed, measured, tolerance); run_suite times it
_Verdict = tuple[str, bool, str, str]


# --- AC: Monte Carlo matches the exact kernel --------------------------------


def check_oracle_equivalence(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Chain law at generation 30 versus kernel propagation, three toy sets."""
    sets = {
        "toy-chain": toy_chain(),
        "subcritical-binomial": subcritical_binomial(),
        "subcritical-geometric": subcritical_geometric(),
    }
    for tag, (name, (env, imm)) in enumerate(sets.items()):
        exact = propagate(build_kernel(env, imm, 512), 0, 30)
        states = simulate_states_batch(0, env, imm, _rng(seed, 10 + tag), 10**5, [30])[30]
        tv = tv_distance(EmpiricalMeasure.from_samples(states), exact)
        yield f"oracle-equivalence/{name}", tv < 0.02, f"TV = {tv:.4f}", "< 0.02"


# --- AC: renewal identity -----------------------------------------------------


def check_renewal_identity(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Limit of return probabilities equals the reciprocal mean return time."""
    env, imm = toy_chain()
    kernel = build_kernel(env, imm, 512)
    limit = renewal_limit(kernel)
    u = renewal_sequence(kernel, 400)
    diff = abs(u[400] - limit.u_infinity)
    yield "renewal-identity/oracle", diff < 1e-9, f"|u_400 - u_inf| = {diff:.2e}", "< 1e-9"
    est = stationary_by_regeneration(env, imm, _rng(seed, 20), excursions=10**5)
    se = est.lengths.std(ddof=1) / (est.lengths.mean() ** 2 * math.sqrt(est.excursions))
    gap = abs(est.u_infinity - limit.u_infinity)
    yield (
        "renewal-identity/regeneration",
        gap <= Z99 * se,
        f"|u_hat - u_inf| = {gap:.2e}, 99% margin {Z99 * se:.2e}",
        "within 99% CI",
    )


# --- AC: leaf proportions = stationary law ------------------------------------


def check_stationary_tree(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Deep-generation leaf histogram vs regeneration vs kernel stationary law.

    One 200-tree forest gives both reads: its leaves at generation 16, pooled,
    and each tree's proportions at generation 8 against their exact means.
    """
    env, imm = subcritical_binomial()
    kernel = build_kernel(env, imm, 512)
    exact = stationary_solve(kernel)
    exact8 = propagate(kernel, 0, 8)
    n_trees = 200
    for g, runs, values, counts in iter_forest_bfs(0, 16, env, imm, _rng(seed, 30), n_trees):
        if g == 8:
            per_tree = {
                k: np.bincount(runs, counts * (values == k), minlength=n_trees) / 2**8
                for k in np.flatnonzero(exact8.probs > 1e-4)
            }
    leaves = EmpiricalMeasure.from_counts(dict(enumerate(np.bincount(values, counts))))
    est = stationary_by_regeneration(env, imm, _rng(seed, 31), excursions=10**5)
    tvs = {
        "leaves-vs-kernel": tv_distance(leaves, exact.pmf),
        "leaves-vs-regeneration": tv_distance(leaves, est.measure),
        "regeneration-vs-kernel": tv_distance(est.measure, exact.pmf),
    }
    for pair, tv in tvs.items():
        yield f"stationary-tree/{pair}", tv < 0.05, f"TV = {tv:.4f}", "< 0.05"

    worst = 0.0
    ok = True
    for k, fractions in per_tree.items():
        se = fractions.std(ddof=1) / math.sqrt(n_trees)
        z = abs(float(fractions.mean()) - float(exact8.probs[k])) / max(se, 1e-12)
        worst = max(worst, z)
        ok &= z < 3.0
    yield (
        "stationary-tree/mean-proportions",
        ok,
        f"worst |z| = {worst:.2f} over {len(per_tree)} states",
        "< 3 sigma each",
    )


# --- AC: recovery dichotomy ----------------------------------------------------


def check_recovery(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Infected fraction vanishes without contamination iff growth is not supercritical.

    Note: at twenty generations the critical set's infected fraction has mean
    0.1538 (it decays like 1/n), so the pinned 0.01-at-95% threshold is not
    attainable there; the check is reported as measured.
    """
    n_max = 20
    n_runs = 100
    cases = {
        "subcritical": split_environment(1),
        "critical": split_environment(2),
        "supercritical": split_environment(4),
    }
    for tag, (name, env) in enumerate(cases.items()):
        rng = _rng(seed, 40 + tag)
        final_fractions = np.empty(n_runs)
        surviving = np.zeros(n_runs, dtype=bool)
        monotone = True
        for r in range(n_runs):
            ledgers = simulate_tree_bfs(1, n_max, env, ImmigrationPair.zero(), rng)
            series = infected_fraction_series(ledgers)
            monotone &= bool(np.all(np.diff(series) <= 1e-15))
            final_fractions[r] = series[-1]
            surviving[r] = ledgers[-1].parasites_total > 0
        if name == "supercritical":
            alive = final_fractions[surviving]
            frac = float((alive > 0.05).mean()) if len(alive) else 0.0
            passed = frac >= 0.5
            measured = f"{frac:.2f} of surviving runs above 0.05"
            tolerance = ">= 0.50"
        else:
            frac = float((final_fractions < 0.01).mean())
            passed = frac >= 0.95
            measured = f"{frac:.2f} of runs below 0.01 (mean fraction {final_fractions.mean():.3f}"
            if name == "critical":
                # Many-to-one: the mean infected fraction is the cell line's survival.
                exact = survival_no_immigration(env, 1, n_max).upper[n_max]
                measured += f", exact {exact:.4f}"
            measured += ")"
            tolerance = ">= 0.95"
        yield f"recovery/{name}", passed, measured, tolerance
        yield (
            f"recovery/{name}-monotone",
            monotone,
            "nonincreasing in every run" if monotone else "violated",
            "100% of runs",
        )


# --- AC: binomial repartition criterion ----------------------------------------


def check_binomial_criterion(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Almost-sure recovery boundary for a uniformly split brood."""
    del seed  # exact computation throughout
    grid = uniform_grid_p(64)
    e_log = expected_log_inverse_p(grid)
    yield (
        "binomial-criterion/grid",
        abs(e_log - 1.0) < 0.01,
        f"E log(1/P) = {e_log:.4f}",
        "within 0.01 of 1",
    )
    ok = binomial_recovery_criterion(2.0, e_log) and not binomial_recovery_criterion(4.0, e_log)
    yield (
        "binomial-criterion/dichotomy",
        ok,
        f"doubling recovers: {binomial_recovery_criterion(2.0, e_log)}, "
        f"quadrupling recovers: {binomial_recovery_criterion(4.0, e_log)}",
        "True / False",
    )
    # Each side reads the end of the survival bracket that is harder to pass.
    horizons = [10, 20, 30, 40]
    env2 = build_binomial_split(FiniteLaw.delta(2), grid)
    surv2 = survival_no_immigration(env2, 1, 40).upper[horizons]
    ok2 = surv2[-1] < 0.05 and all(a > b for a, b in zip(surv2, surv2[1:]))
    yield (
        "binomial-criterion/recovering-side",
        ok2,
        f"survival upper bound at n=40: {surv2[-1]:.4f}",
        "< 0.05 and decreasing",
    )
    env4 = build_binomial_split(FiniteLaw.delta(4), grid)
    surv4 = survival_no_immigration(env4, 1, 40).lower[horizons]
    yield (
        "binomial-criterion/persistent-side",
        min(surv4) > 0.2,
        f"min survival lower bound through n=40: {min(surv4):.4f}",
        "> 0.2",
    )


# --- AC: critical survival scaling ----------------------------------------------


def check_critical_survival(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Square-root-rescaled survival of the critical set over n in [16, 256].

    The critical toy has a deterministic environment, whose survival decays
    like 1/n rather than 1/sqrt(n); the rescaled band over a factor-16 span
    of n then drifts by slightly more than 3, so this check documents the
    measured band.
    """
    del seed
    survival = survival_no_immigration(split_environment(2), 1, 256).upper
    values = [math.sqrt(n) * survival[n] for n in range(16, 257)]
    ratio = max(values) / min(values)
    yield (
        "critical-survival/band",
        ratio <= 3.0,
        f"band ratio = {ratio:.3f} (edges {min(values):.3f}..{max(values):.3f})",
        "<= 3.0",
    )


# --- AC: geometric return-time tail ----------------------------------------------


def check_geometric_tail(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Return-time tail ratios converge to a constant below one."""
    del seed
    env, imm = subcritical_geometric()
    kernel = build_kernel(env, imm, 512)
    tail = hitting_tail(kernel, 0, 100)
    ratios = tail[1:] / tail[:-1]
    last = ratios[-20:]
    spread = float(last.max() - last.min())
    ok = spread < 0.01 and last[-1] < 0.99
    yield (
        "geometric-tail/ratio",
        ok,
        f"limit ratio = {last[-1]:.4f}, last-20 spread = {spread:.2e}",
        "spread < 0.01 and ratio < 0.99",
    )


# --- AC: normalized limit ---------------------------------------------------------


def check_normalized_limit(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Mean-normalized population converges; its mean matches the geometric series."""
    env = split_environment(6)  # realized mean 3 on both sides
    imm = ImmigrationPair.state_independent(FiniteLaw.delta(1))
    w = simulate_normalized_batch(0, env, imm, _rng(seed, 60), 10**5, checkpoints=[15, 20])
    mean = float(w[20].mean())
    median_step = float(np.median(np.abs(w[20] - w[15])))
    yield "normalized-limit/mean", abs(mean - 0.5) < 0.02, f"E[W_20] = {mean:.4f}", "0.5 +- 0.02"
    yield (
        "normalized-limit/settling",
        median_step < 0.05,
        f"median |W_20 - W_15| = {median_step:.4f}",
        "< 0.05",
    )


# --- AC: total-parasite growth rate -----------------------------------------------


def check_growth_exponent(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Per-generation totals grow like max(2, m) to the n."""
    imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))
    cases = {
        "tripling": (FiniteLaw.delta(3), math.log(3)),
        "slow-growth": (FiniteLaw((1, 2), (0.5, 0.5)), math.log(2)),
    }
    for tag, (name, (z_law, target)) in enumerate(cases.items()):
        env = build_binomial_split(z_law, [(0.5, 1.0)])
        totals = simulate_parasite_totals(env, imm, 0, 20, _rng(seed, 70 + tag), n_runs=1000)
        fits = growth_exponent(totals).exponent
        gap = abs(float(np.mean(fits)) - target)
        yield (
            f"growth-exponent/{name}",
            gap < 0.15,
            f"mean exponent gap = {gap:.4f}",
            "within 0.15",
        )
    env4 = split_environment(4)
    totals = simulate_parasite_totals(env4, imm, 0, 3, _rng(seed, 72), n_runs=10**5)
    finals = totals[:, 3].astype(float)
    margin = Z99 * finals.std(ddof=1) / math.sqrt(len(finals))
    gap = abs(finals.mean() - 28.0)
    yield (
        "growth-exponent/three-generation-mean",
        gap <= margin,
        f"mean = {finals.mean():.3f}, 99% margin {margin:.3f}",
        "28 within 99% CI",
    )


# --- AC: divergence regimes --------------------------------------------------------


def _monotone_up_to_ci(fractions: list[float], n_paths: int) -> tuple[bool, float]:
    worst = -math.inf
    ok = True
    for a, b in zip(fractions, fractions[1:]):
        margin = Z99 * math.sqrt(
            a * (1 - a) / n_paths + b * (1 - b) / n_paths
        )
        worst = max(worst, b - a - margin)
        ok &= b <= a + margin
    return ok, worst


def check_divergence(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """States run away in the critical, heavy-tail, and supercritical regimes."""
    n_paths = 4000
    checkpoints = list(range(50, 501, 50))
    cases = {
        "critical-contaminated": critical_contaminated(),
        "heavy-tail": heavy_tail_contaminated(),
    }
    for tag, (name, (env, imm)) in enumerate(cases.items()):
        states = simulate_states_batch(0, env, imm, _rng(seed, 80 + tag), n_paths, checkpoints)
        fractions = [float((states[cp] <= 10).mean()) for cp in checkpoints]
        mono, worst = _monotone_up_to_ci(fractions, n_paths)
        ok = mono and fractions[-1] < fractions[0]
        yield (
            f"divergence/{name}",
            ok,
            f"P(state <= 10): {fractions[0]:.3f} -> {fractions[-1]:.3f}, "
            f"worst CI excess {worst:.4f}",
            "monotone up to 99% CI and overall decrease",
        )
    env, imm = supercritical_contaminated()
    ledger = simulate_tree_bfs(0, 16, env, imm, _rng(seed, 82))[-1]
    worst_prop = int(ledger.counts[ledger.values <= 5].max(initial=0)) / ledger.cells
    yield (
        "divergence/supercritical-tree",
        worst_prop < 0.05,
        f"max proportion with <= 5 parasites at n=16: {worst_prop:.5f}",
        "< 0.05",
    )


# --- AC: prefix-proportion stabilization ---------------------------------------------


def check_clt_stabilization(seed: int = DEFAULT_SEED) -> Iterator[_Verdict]:
    """Rescaled prefix proportions of parasite-free cells: mean 0, variance settles."""
    env, imm = toy_chain()
    f0 = float(stationary_solve(build_kernel(env, imm, 64)).pmf[0])
    n_runs = 200
    samples: dict[int, np.ndarray] = {}
    cum_zero = np.zeros(n_runs)
    for g, runs, values, counts in iter_forest_bfs(0, 16, env, imm, _rng(seed, 90), n_runs):
        cum_zero += np.bincount(runs, counts * (values == 0), minlength=n_runs)
        if g in (8, 12, 16):
            samples[g] = cum_zero / 2 ** (g + 1)
    report = sqrtn_stabilization(samples, f0)
    yield (
        "clt-stabilization/centering",
        report.mean_consistent_with_zero,
        f"means = {[f'{m:.3f}' for m in report.means]}",
        "99% CI covers 0 at every n",
    )
    yield (
        "clt-stabilization/variance",
        report.variance_stabilized,
        f"variance ratio (n=16 vs n=12) = {report.variance_ratio:.3f}",
        "in [0.5, 2]",
    )


SUITES = {
    "oracle-equivalence": check_oracle_equivalence,
    "toy-renewal": check_renewal_identity,
    "stationary-tree": check_stationary_tree,
    "recovery": check_recovery,
    "binomial-criterion": check_binomial_criterion,
    "critical-survival": check_critical_survival,
    "geometric-tail": check_geometric_tail,
    "normalized-limit": check_normalized_limit,
    "growth-exponent": check_growth_exponent,
    "divergence": check_divergence,
    "clt-stabilization": check_clt_stabilization,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one suite, or all of them; each check is timed from the previous result.

    Checks that share one computation thus count it once, in the first of them.
    """
    if name == "all":
        suites = list(SUITES.values())
    elif name in SUITES:
        suites = [SUITES[name]]
    else:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}, all")
    results = []
    last = time.time()
    for suite in suites:
        for check, passed, measured, tolerance in suite(seed):
            now = time.time()
            results.append(CheckResult(check, bool(passed), measured, tolerance, now - last))
            last = now
    return results
