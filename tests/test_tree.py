"""Binary-tree population checks: ledger exactness, traversal law equality."""

import math

import numpy as np
import pytest

from cellbranch._sampling import BATCH_STATE_CAP
from cellbranch.experiments import TREE_DOMAIN, run_tree, substream
from cellbranch.laws import (
    BivariateOffspringLaw,
    EnvironmentLaw,
    FiniteLaw,
    ImmigrationPair,
    build_binomial_split,
    build_cluster_split,
)
from cellbranch.oracle import build_kernel, propagate, stationary_solve
from cellbranch.presets import subcritical_binomial
from cellbranch.stats import EmptySeries, EmpiricalMeasure, tv_distance
from cellbranch.tree import (
    DepthTooLarge,
    PrefixLedger,
    _tally,
    advance_generation,
    collapsed_total_law,
    growth_exponent,
    infected_fraction_series,
    iter_forest_bfs,
    prefix_ledgers,
    simulate_parasite_totals,
    simulate_tree_bfs,
    simulate_tree_dfs,
    total_parasites_series,
)


def dying_env():
    return EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 1.0),))


def toy_imm():
    return ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def sub_env():
    return build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])


class TestAdvanceGeneration:
    def test_contamination_reaches_both_daughters(self):
        imm = ImmigrationPair(
            FiniteLaw.delta(1), FiniteLaw.delta(0), require_contamination_condition=False
        )
        rng = np.random.default_rng(0)
        assert list(advance_generation([0], dying_env(), imm, rng)) == [1, 1]

    def test_all_offspring_to_first_daughter(self):
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(1, 0), 1.0),))
        rng = np.random.default_rng(1)
        assert list(advance_generation([3], env, ImmigrationPair.zero(), rng)) == [3, 0]

    def test_daughters_contaminated_independently(self):
        rng = np.random.default_rng(2)
        children = advance_generation([0] * 10**5, dying_env(), toy_imm(), rng)
        both = (children[0::2] > 0) & (children[1::2] > 0)
        assert abs(both.mean() - 0.25) < 0.01

    def test_children_are_interleaved(self):
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(1, 0), 1.0),))
        rng = np.random.default_rng(3)
        children = advance_generation([5, 0, 2], env, ImmigrationPair.zero(), rng)
        assert list(children) == [5, 0, 0, 0, 2, 0]

    def test_offspring_past_int64_saturates(self):
        # 2^52 parasites with broods of 4096: each daughter's true count is near 2^63
        env = build_cluster_split(FiniteLaw.delta(4096), [(0.5, 1.0)])
        rng = np.random.default_rng(4)
        children = advance_generation([2**52], env, ImmigrationPair.zero(), rng)
        assert list(children) == [BATCH_STATE_CAP, BATCH_STATE_CAP]


    def test_contamination_keyed_on_each_mothers_state(self):
        imm = ImmigrationPair(
            FiniteLaw.delta(1), FiniteLaw.delta(3), require_contamination_condition=False
        )
        rng = np.random.default_rng(5)
        assert list(advance_generation([0, 5], dying_env(), imm, rng)) == [1, 1, 3, 3]


class TestBfs:
    def test_root_only(self):
        rng = np.random.default_rng(0)
        ledgers = simulate_tree_bfs(7, 0, sub_env(), toy_imm(), rng)
        assert len(ledgers) == 1
        assert ledgers[0].histogram == {7: 1}

    def test_zero_immigration_from_empty_root(self):
        rng = np.random.default_rng(1)
        ledgers = simulate_tree_bfs(0, 6, sub_env(), ImmigrationPair.zero(), rng)
        for g, led in enumerate(ledgers):
            assert led.histogram == {0: 2**g}
            assert led.infected == 0

    def test_ledger_invariants_every_generation(self):
        rng = np.random.default_rng(2)
        ledgers = simulate_tree_bfs(1, 8, sub_env(), toy_imm(), rng)
        for g, led in enumerate(ledgers):
            assert led.cells == 2**g
            assert sum(led.histogram.values()) == led.cells
            assert led.cells - led.histogram.get(0, 0) == led.infected
            assert sum(k * c for k, c in led.histogram.items()) == led.parasites_total

    def test_mean_generation_proportions_match_chain_law(self):
        # cell picked uniformly at random in generation n carries the chain's law
        env, imm = dying_env(), toy_imm()
        exact = propagate(build_kernel(env, imm, 16), 0, 6)
        rng = np.random.default_rng(3)
        freqs: dict[int, list] = {}
        n_trees = 200
        for g, states in iter_forest_bfs(0, 6, env, imm, rng, n_trees):
            if g == 6:
                for k in range(4):
                    freqs[k] = (states == k).mean(axis=1)
        for k, per_tree in freqs.items():
            se = per_tree.std(ddof=1) / math.sqrt(n_trees)
            assert abs(per_tree.mean() - exact.probs[k]) < 3 * se + 1e-9

    def test_depth_bound(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DepthTooLarge):
            simulate_tree_bfs(0, 23, sub_env(), toy_imm(), rng)


class TestDfs:
    def test_zero_immigration_leaves(self):
        rng = np.random.default_rng(0)
        led = simulate_tree_dfs(0, 8, sub_env(), ImmigrationPair.zero(), rng)
        assert led.histogram == {0: 256}

    def test_single_level_matches_advance_law(self):
        env, imm = sub_env(), toy_imm()
        rng = np.random.default_rng(5)
        dfs_states = []
        for _ in range(20_000):
            led = simulate_tree_dfs(1, 1, env, imm, rng)
            for k, c in led.histogram.items():
                dfs_states.extend([k] * c)
        direct = advance_generation([1] * 20_000, env, imm, np.random.default_rng(6))
        tv = tv_distance(
            EmpiricalMeasure.from_samples(dfs_states), EmpiricalMeasure.from_samples(direct)
        )
        assert tv < 0.02

    def test_matches_bfs_in_law_at_depth_ten(self):
        env, imm = sub_env(), toy_imm()
        rng = np.random.default_rng(7)
        bfs_counts: dict[int, int] = {}
        for _ in range(20):
            led = simulate_tree_bfs(0, 10, env, imm, rng)[-1]
            for k, c in led.histogram.items():
                bfs_counts[k] = bfs_counts.get(k, 0) + c
        dfs_counts: dict[int, int] = {}
        for _ in range(20):
            simulate_tree_dfs(0, 10, env, imm, rng, accumulator=dfs_counts)
        tv = tv_distance(
            EmpiricalMeasure.from_counts(bfs_counts), EmpiricalMeasure.from_counts(dfs_counts)
        )
        assert tv < 0.02

    def test_accumulator_merges(self):
        rng = np.random.default_rng(8)
        acc: dict[int, int] = {}
        for _ in range(3):
            simulate_tree_dfs(0, 4, sub_env(), toy_imm(), rng, accumulator=acc)
        assert sum(acc.values()) == 3 * 16

    def test_depth_bound(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DepthTooLarge):
            simulate_tree_dfs(0, 31, sub_env(), toy_imm(), rng)

    def test_split_blocks_past_block_size(self):
        env, imm = subcritical_binomial()
        rng = np.random.default_rng(10)
        acc: dict[int, int] = {}
        led = simulate_tree_dfs(0, 17, env, imm, rng, accumulator=acc)
        assert led.cells == 2**17
        assert sum(acc.values()) == 2**17
        assert acc == led.histogram
        exact = stationary_solve(build_kernel(env, imm, 512)).pmf
        assert tv_distance(EmpiricalMeasure.from_counts(acc), exact) < 0.02


class TestInfectedFraction:
    def test_monotone_under_zero_contamination(self):
        super_env = build_binomial_split(FiniteLaw.delta(4), [(0.5, 1.0)])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ledgers = simulate_tree_bfs(1, 12, super_env, ImmigrationPair.zero(), rng)
            series = infected_fraction_series(ledgers)
            assert np.all(np.diff(series) <= 1e-15)

    def test_empty_tree_is_constant_zero(self):
        rng = np.random.default_rng(1)
        ledgers = simulate_tree_bfs(0, 6, sub_env(), ImmigrationPair.zero(), rng)
        assert infected_fraction_series(ledgers) == pytest.approx(np.zeros(7))


class TestParasiteTotals:
    def gw_setup(self, z: int):
        env = build_binomial_split(FiniteLaw.delta(z), [(0.5, 1.0)])
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))
        return env, imm

    def test_collapsed_total_law_extraction(self):
        env, _ = self.gw_setup(4)
        law = collapsed_total_law(env)
        assert law.values == (4,)

    def test_collapsed_total_law_rejects_mixed_broods(self):
        env = EnvironmentLaw(
            ((BivariateOffspringLaw.delta(1, 1), 0.5), (BivariateOffspringLaw.delta(2, 2), 0.5))
        )
        with pytest.raises(ValueError):
            collapsed_total_law(env)

    def test_mean_totals_after_three_generations(self):
        # growth mean 4 and half an immigrant per daughter: expected total 28
        env, imm = self.gw_setup(4)
        rng = np.random.default_rng(10)
        totals = simulate_parasite_totals(env, imm, 0, 3, rng, n_runs=20_000)
        assert abs(totals[:, 3].mean() - 28.0) < 1.0

    def test_totals_past_int64_saturate(self):
        # 4096 * 2^52 = 2^64 wraps to 0 in int64: a false extinction
        env = build_binomial_split(FiniteLaw.delta(4096), [(0.5, 1.0)])
        rng = np.random.default_rng(14)
        totals = simulate_parasite_totals(env, ImmigrationPair.zero(), 2**52, 2, rng, n_runs=3)
        assert (totals[:, 1:] == BATCH_STATE_CAP).all()

    def test_totals_chain_matches_real_trees(self):
        env, imm = self.gw_setup(4)
        rng = np.random.default_rng(11)
        forest_totals = None
        for g, states in iter_forest_bfs(0, 3, env, imm, rng, 20_000):
            if g == 3:
                forest_totals = states.sum(axis=1)
        chain_totals = simulate_parasite_totals(env, imm, 0, 3, np.random.default_rng(12), 20_000)
        tv = tv_distance(
            EmpiricalMeasure.from_samples(forest_totals),
            EmpiricalMeasure.from_samples(chain_totals[:, 3]),
        )
        assert tv < 0.03
        assert abs(forest_totals.mean() - chain_totals[:, 3].mean()) < 1.5

    def test_series_helpers(self):
        env, imm = self.gw_setup(4)
        rng = np.random.default_rng(13)
        ledgers = simulate_tree_bfs(0, 4, env, imm, rng)
        series = total_parasites_series(ledgers)
        assert len(series) == 5
        assert all(isinstance(v, int) for v in series)


class TestGrowthExponent:
    def test_recovers_doubling_rate(self):
        # fit on the last half, where the log n correction is ~1/n
        series = [2.0**n * max(n, 1) for n in range(120)]
        fit = growth_exponent(series)
        assert fit.exponent == pytest.approx(math.log(2), abs=0.02)
        assert fit.zero_censored == 0

    def test_zero_censoring_reported(self):
        series = [0, 0, 1, 2, 4, 8, 0, 32, 64, 128, 256, 512]
        fit = growth_exponent(series)
        assert fit.zero_censored == 1

    def test_geometric_series_is_exact(self):
        fit = growth_exponent([0.5**n for n in range(30)], window=(0, 30))
        assert fit.exponent == pytest.approx(math.log(0.5), abs=1e-12)

    def test_constant_series(self):
        assert growth_exponent([3.0] * 12).exponent == pytest.approx(0.0, abs=1e-12)

    def test_explicit_window(self):
        series = [2.0**n * n for n in range(1, 120)]
        # indices 50..100 of the positive-n series
        fit = growth_exponent(series, window=(49, 100))
        assert fit.exponent == pytest.approx(math.log(2), abs=0.02)
        assert fit.window == (49, 100)

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            growth_exponent([])

    def test_too_short_rejected(self):
        with pytest.raises(EmptySeries):
            growth_exponent([1.0])

    @pytest.mark.parametrize(
        "length, window",
        [(3, (1, 9)), (10, (5, 100)), (10, (-2, 4)), (10, (3, 3))],
        ids=["short-series", "past-end", "negative-start", "empty-window"],
    )
    def test_window_outside_series_rejected(self, length, window):
        with pytest.raises(ValueError, match="outside series"):
            growth_exponent(range(1, length + 1), window=window)

    def test_all_zero_window_rejected(self):
        with pytest.raises(EmptySeries):
            growth_exponent([4, 2, 1, 0, 0, 0, 0])

    def test_exponent_near_log3_for_tripling_population(self):
        env = build_binomial_split(FiniteLaw.delta(3), [(0.5, 1.0)])
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))
        rng = np.random.default_rng(14)
        totals = simulate_parasite_totals(env, imm, 0, 20, rng, n_runs=200)
        fits = [growth_exponent(row).exponent for row in totals]
        assert abs(np.mean(fits) - math.log(3)) < 0.15


class TestPrefixLedgers:
    def test_counts_cover_all_cells_seen(self):
        rng = np.random.default_rng(15)
        ledgers = simulate_tree_bfs(0, 6, sub_env(), toy_imm(), rng)
        prefixes = prefix_ledgers(ledgers)
        for n, pref in enumerate(prefixes):
            assert pref.denominator == 2 ** (n + 1)
            assert sum(pref.counts.values()) == 2 ** (n + 1) - 1
            assert sum(pref.proportions().values()) == pytest.approx(1 - 1 / pref.denominator)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            PrefixLedger(n=1, counts={0: 2}, denominator=4)


class TestLedgerTally:
    def test_totals_come_from_the_states(self):
        states = np.random.default_rng(16).integers(0, 7, size=500)
        led = _tally(9, states, len(states))
        assert list(led.values) == sorted(set(states.tolist()))
        assert led.histogram == {v: int((states == v).sum()) for v in set(states.tolist())}
        assert led.cells == len(states)
        assert led.infected == int((states > 0).sum())
        assert led.parasites_total == sum(states.tolist())
        assert isinstance(led.parasites_total, int)

    def test_zero_pair_ledger_carries_parasite_free_cells(self):
        # every parasite goes to daughter 0: one infected cell per generation
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(1, 0), 1.0),))
        rng = np.random.default_rng(17)
        ledgers = simulate_tree_bfs(3, 5, env, ImmigrationPair.zero(), rng)
        assert ledgers[0].histogram == {3: 1}
        for g, led in enumerate(ledgers[1:], start=1):
            assert led.histogram == {0: 2**g - 1, 3: 1}
            assert (led.cells, led.infected, led.parasites_total) == (2**g, 1, 3)

    def test_total_past_int64_is_exact(self):
        # 2^53 * 2^11 = 2^64 wraps to 0 in an int64 dot product
        led = _tally(11, np.full(2**11, BATCH_STATE_CAP, dtype=np.int64), 2**11)
        assert led.parasites_total == 2**64
        assert led.infected == 2**11


def coin_imm():
    return ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))


@pytest.mark.parametrize(
    "run",
    [
        lambda rng: simulate_tree_bfs(-3, 3, sub_env(), toy_imm(), rng),
        lambda rng: simulate_tree_bfs(-3, 3, sub_env(), ImmigrationPair.zero(), rng),
        lambda rng: list(iter_forest_bfs(-3, 3, sub_env(), toy_imm(), rng, 4)),
        lambda rng: simulate_tree_dfs(-3, 3, sub_env(), toy_imm(), rng),
        lambda rng: simulate_parasite_totals(sub_env(), coin_imm(), -3, 2, rng, 3),
    ],
    ids=["bfs", "bfs-zero-pair", "forest", "dfs", "totals"],
)
def test_negative_start_rejected(run):
    with pytest.raises(ValueError, match="nonnegative"):
        run(np.random.default_rng(0))


@pytest.mark.parametrize(
    "run",
    [
        lambda rng: simulate_tree_bfs(1, -1, sub_env(), toy_imm(), rng),
        lambda rng: simulate_tree_bfs(1, -1, sub_env(), ImmigrationPair.zero(), rng),
        lambda rng: list(iter_forest_bfs(1, -1, sub_env(), toy_imm(), rng, 2)),
        lambda rng: simulate_tree_dfs(1, -1, sub_env(), toy_imm(), rng),
    ],
    ids=["bfs", "bfs-zero-pair", "forest", "dfs"],
)
def test_negative_depth_rejected(run, deadline):
    # the depth-first walk once never returned here, so it runs under a deadline
    with deadline(2.0), pytest.raises(ValueError, match="nonnegative"):
        run(np.random.default_rng(0))


class TestRunTree:
    """``run_tree`` rows against the simulators driven on the same block streams."""

    # run_tree's blocks hold 64 runs at these depths
    BLOCK = 64

    def expected_rows(self, env, imm, k0, n_max, replicates, seed, traversal):
        rows = []
        for block, start in enumerate(range(0, replicates, self.BLOCK)):
            rng = substream(seed, TREE_DOMAIN, block)
            runs = range(start, min(start + self.BLOCK, replicates))
            if traversal == "dfs":
                for run_id in runs:
                    led = simulate_tree_dfs(k0, n_max, env, imm, rng)
                    rows += [(run_id, n_max, k, c) for k, c in led.histogram.items()]
            elif imm.is_zero_pair:
                for run_id in runs:
                    for led in simulate_tree_bfs(k0, n_max, env, imm, rng):
                        rows += [(run_id, led.n, k, c) for k, c in led.histogram.items()]
            else:
                for g, states in iter_forest_bfs(k0, n_max, env, imm, rng, len(runs)):
                    for run_id, row in zip(runs, states):
                        vals, cnts = np.unique(row, return_counts=True)
                        rows += [(run_id, g, int(v), int(c)) for v, c in zip(vals, cnts)]
        return sorted(rows)

    @pytest.mark.parametrize(
        "traversal, imm, k0",
        [("bfs", coin_imm(), 1), ("bfs", ImmigrationPair.zero(), 2), ("dfs", coin_imm(), 1)],
        ids=["contaminated-bfs", "zero-pair-bfs", "dfs"],
    )
    def test_rows_match_the_simulators(self, traversal, imm, k0):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        n_max, replicates, seed = 6, 70, 3
        rows = run_tree(env, imm, k0, n_max, replicates, seed, traversal)
        groups: dict[tuple[int, int], int] = {}
        for run_id, n, _, c in rows:
            groups[run_id, n] = groups.get((run_id, n), 0) + c
        generations = [n_max] if traversal == "dfs" else range(n_max + 1)
        assert groups == {(r, n): 2**n for r in range(replicates) for n in generations}
        assert rows == self.expected_rows(env, imm, k0, n_max, replicates, seed, traversal)
