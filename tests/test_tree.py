"""Binary-tree population checks: ledger exactness, traversal law equality."""

import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cellbranch import _sampling, lineage
from cellbranch._sampling import (
    BATCH_STATE_CAP, divide_rows, ledger_step, multinomial_counts, start_lanes,
)
from cellbranch.config import ConfigError
from cellbranch.experiments import TREE_DOMAIN, run_tree, substream
from cellbranch.laws import (
    BivariateOffspringLaw,
    EnvironmentLaw,
    FiniteLaw,
    ImmigrationPair,
    build_binomial_split,
    build_cluster_split,
    uniform_grid_p,
)
from cellbranch.lineage import batch_step, simulate_path, simulate_states_batch
from cellbranch.oracle import build_kernel, propagate, stationary_solve, survival_no_immigration
from cellbranch.presets import (
    dying_environment, heavy_tail_contaminated, split_environment, subcritical_binomial,
)
from cellbranch.stats import EmptySeries, EmpiricalMeasure, tv_distance
from cellbranch.tree import (
    DepthTooLarge,
    GenerationLedger,
    advance_generation,
    collapsed_total_law,
    growth_exponent,
    infected_fraction_series,
    iter_forest_bfs,
    simulate_parasite_totals,
    simulate_tree_bfs,
    simulate_tree_dfs,
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

    def test_zero_pair_draws_only_the_offspring(self):
        law = BivariateOffspringLaw((((1, 1), 0.5), ((2, 0), 0.3), ((0, 0), 0.2)))
        env = EnvironmentLaw(((law, 1.0),))
        cells = np.array([3, 0, 5, 1])
        rng = np.random.default_rng(7)
        children = advance_generation(cells, env, ImmigrationPair.zero(), rng)
        offspring_only = np.random.default_rng(7)
        env.sample_indices(offspring_only, cells.size)
        values, probs = env._atoms
        counts = multinomial_counts(offspring_only, cells, probs)
        assert rng.bit_generator.state == offspring_only.bit_generator.state
        assert list(children) == list((counts @ values).ravel())


def _split_env():
    # a non-delta brood and two components whose split parameters differ
    return build_binomial_split(FiniteLaw((1, 3), (0.5, 0.5)), [(0.3, 0.5), (0.8, 0.5)])


def _atoms_env():
    # components of two binomial splits with different broods: no shared Z, so no _split
    a = build_binomial_split(FiniteLaw((1, 3), (0.5, 0.5)), [(0.3, 1.0)])
    b = build_binomial_split(FiniteLaw.delta(2), [(0.8, 1.0)])
    return EnvironmentLaw(((a.laws[0], 0.5), (b.laws[0], 0.5)))


def _cluster_env():
    # whole broods go to one daughter, with a different p per component
    return build_cluster_split(FiniteLaw((1, 2), (0.5, 0.5)), [(0.3, 0.5), (0.8, 0.5)])


def _disjoint_env():
    # explicit components with no (a, b) pair in common
    a = BivariateOffspringLaw((((1, 0), 0.6), ((0, 2), 0.4)))
    b = BivariateOffspringLaw((((1, 1), 0.5), ((3, 0), 0.2), ((0, 0), 0.3)))
    return EnvironmentLaw(((a, 0.4), (b, 0.6)))


def _pair_key(s0, s1):
    return 100 * s0 + s1


class TestMultinomialCounts:
    def test_per_row_probabilities_replay_row_by_row(self):
        n = np.array([0, 5, 17, 1000])
        probs = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]])
        counts = multinomial_counts(np.random.default_rng(13), n, probs)
        assert list(counts.sum(axis=1)) == list(n) and not counts[probs == 0].any()
        replay = np.random.default_rng(13)
        rows = [replay.multinomial(int(k), p) for k, p in zip(n, probs)]
        assert counts.tolist() == np.array(rows).tolist()

    def test_one_category_draws_nothing(self):
        rng = np.random.default_rng(14)
        before = rng.bit_generator.state
        n = np.array([0, 3, BATCH_STATE_CAP])
        for probs in (np.array([1.0]), np.ones((3, 1))):
            assert multinomial_counts(rng, n, probs).tolist() == [[0], [3], [BATCH_STATE_CAP]]
        assert rng.bit_generator.state == before

    def test_rows_at_the_cap(self):
        n = np.full(4, BATCH_STATE_CAP)
        probs = np.array([0.25, 0.25, 0.5])
        counts = multinomial_counts(np.random.default_rng(15), n, probs)
        assert counts.min() >= 0 and list(counts.sum(axis=1)) == list(n)
        assert np.abs(counts / BATCH_STATE_CAP - probs).max() < 1e-6


class TestSplitDraws:
    def test_binomial_split_records_its_brood_and_parameter(self):
        z = FiniteLaw((1, 3), (0.5, 0.5))
        split_z, ps = _split_env()._split
        assert split_z == z and list(ps) == [0.3, 0.8]
        assert build_cluster_split(z, [(0.3, 1.0)])._split is None
        assert _atoms_env()._split is None

    @pytest.mark.parametrize("env, brood", [
        (dying_environment(), (0, 0.5)),
        (split_environment(2, 0.3), (2, 0.3)),
        (split_environment(2, 0.0), None),
        (split_environment(2, 1.0), None),
        (build_binomial_split(FiniteLaw((1, 3), (0.5, 0.5)), [(0.3, 1.0)]), None),
        (build_binomial_split(FiniteLaw.delta(2), uniform_grid_p(4)), None),
        (build_cluster_split(FiniteLaw.delta(2), [(0.5, 1.0)]), None),
        (EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 0.5),) * 2), (0, 0.5)),
        (build_binomial_split(FiniteLaw.delta(0), [(0.3, 1.0)]), (0, 0.5)),
    ], ids=["dying", "split", "p-zero", "p-one", "multi-atom-z", "uniform-grid", "cluster",
            "explicit-zero", "z-zero"])
    def test_environment_records_its_brood_and_means(self, env, brood):
        assert env._brood == brood
        assert env._means.tolist() == [[law.m0, law.m1] for law in env.laws]

    def test_split_is_fixed_at_construction(self):
        env = _split_env()
        copy = pickle.loads(pickle.dumps(env))  # as sent to --workers processes
        assert copy == env and hash(copy) == hash(env)
        assert copy._split[0] == env._split[0] and list(copy._split[1]) == [0.3, 0.8]
        # a replaced environment is built afresh: no split carried over to new components
        cluster = build_cluster_split(FiniteLaw.delta(2), [(0.5, 1.0)]).components
        assert dataclasses.replace(env, components=cluster)._split is None
        assert dataclasses.replace(env) == env

    def test_contamination_atoms_past_int64_saturate(self):
        # an atom near 2**63 added to a daughter once wrapped to a negative count
        big = FiniteLaw((0, 2**63 - 1), (0.5, 0.5))
        env, imm = split_environment(2), ImmigrationPair(big, big)
        rng = np.random.default_rng(3)
        runs = [led.values for led in simulate_tree_bfs(1, 3, env, imm, rng)]
        runs += [values for _, _, values, _ in iter_forest_bfs(1, 3, env, imm, rng, 4)]
        runs += list(simulate_states_batch(1, env, imm, rng, 64, [1, 2, 3]).values())
        runs.append(simulate_path(1, 8, env, imm, rng).states)
        for values in runs:
            assert values.min() >= 0 and values.max() <= BATCH_STATE_CAP
        assert big.values == (0, 2**63 - 1)  # the law itself stays exact

    def test_split_environment_draws_every_cell_at_once(self):
        # one brood total per cell, then one binomial over all cells with each cell's own p
        env = _split_env()
        cells = np.arange(64) % 7
        rng = np.random.default_rng(12)
        children = advance_generation(cells, env, ImmigrationPair.zero(), rng)
        twin = np.random.default_rng(12)
        comps = env.sample_indices(twin, cells.size)
        total = multinomial_counts(twin, cells, np.array([0.5, 0.5])) @ np.array([1, 3])
        s0 = twin.binomial(total, np.array([0.3, 0.8])[comps])
        assert rng.bit_generator.state == twin.bit_generator.state
        assert list(children) == list(np.column_stack((s0, total - s0)).ravel())

    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("z", [FiniteLaw.delta(4), FiniteLaw((1, 3), (0.5, 0.5))],
                             ids=["one-atom", "two-atom"])
    def test_one_component_draws_the_per_cell_p_stream(self, z, p):
        # one component draws Bin(T, p) with a scalar p: the same stream as a per-cell p array,
        # for small totals (inversion) and large ones (BTPE) alike
        env = build_binomial_split(z, [(p, 1.0)])
        cells = np.arange(4000) % 400 * 25
        for step in (advance_generation, batch_step):
            rng, twin = np.random.default_rng(31), np.random.default_rng(31)
            out = step(cells, env, ImmigrationPair.zero(), rng)
            sides = twin.integers(0, 2, size=cells.size) if step is batch_step else None
            total = multinomial_counts(twin, cells, z._probs_arr) @ z._vals_arr
            s0 = twin.binomial(total, np.full(cells.size, p))
            pairs = np.column_stack((s0, total - s0))
            expected = pairs.ravel() if sides is None else pairs[np.arange(cells.size), sides]
            assert out.tolist() == expected.tolist()
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_joint_daughters_match_the_convolved_pair_law(self):
        rng = np.random.default_rng(8)
        for env in (_split_env(), _atoms_env(), _cluster_env(), _disjoint_env()):
            exact: dict[int, float] = {}
            for law, w in env.components:
                joint = {(0, 0): 1.0}
                for _ in range(3):
                    step: dict[tuple[int, int], float] = {}
                    for (a, b), q in joint.items():
                        for (j, k), r in law.support:
                            step[(a + j, b + k)] = step.get((a + j, b + k), 0.0) + q * r
                    joint = step
                for (a, b), q in joint.items():
                    exact[_pair_key(a, b)] = exact.get(_pair_key(a, b), 0.0) + w * q
            children = advance_generation(np.full(200_000, 3), env, ImmigrationPair.zero(), rng)
            keys = _pair_key(children[0::2], children[1::2])
            assert tv_distance(EmpiricalMeasure.from_samples(keys), exact) < 0.01

    def test_cell_line_step_matches_kernel_row(self):
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw((0, 1), (0.7, 0.3)))
        rng = np.random.default_rng(9)
        for env in (_split_env(), _atoms_env(), _cluster_env(), _disjoint_env()):
            exact = propagate(build_kernel(env, imm, 64, overflow_budget=None), 3, 1)
            states = batch_step(np.full(200_000, 3), env, imm, rng)
            assert tv_distance(EmpiricalMeasure.from_samples(states), exact) < 0.01

    @given(
        x=st.integers(BATCH_STATE_CAP - 2**20, BATCH_STATE_CAP),
        z=st.integers(0, 4),
        p=st.floats(0.0, 1.0),
        contaminated=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_stay_in_range_at_the_cap(self, x, z, p, contaminated):
        split = build_binomial_split(FiniteLaw.delta(z), [(p, 1.0)])
        pair = EnvironmentLaw(((BivariateOffspringLaw(split.laws[0].support), 1.0),))
        coin = FiniteLaw.bernoulli(0.5)
        imm = ImmigrationPair(coin, coin) if contaminated else ImmigrationPair.zero()
        rng = np.random.default_rng(10)
        cells = np.array([x, x - 1, 1])
        for env in (split, pair):
            for step in (advance_generation, batch_step):
                out = step(cells, env, imm, rng)
                assert out.min() >= 0 and out.max() <= BATCH_STATE_CAP
        if not contaminated:
            children = advance_generation(cells, split, imm, rng)
            for c, s0, s1 in zip(cells.tolist(), children[0::2].tolist(), children[1::2].tolist()):
                # each daughter is exact or saturated on its own
                if max(s0, s1) < BATCH_STATE_CAP:
                    assert s0 + s1 == c * z
                else:
                    assert s0 + s1 >= min(c * z, BATCH_STATE_CAP)

    def test_saturated_mother_has_saturated_daughters(self):
        cap = np.array([BATCH_STATE_CAP])
        rng = np.random.default_rng(11)
        for z in (4, 1024):  # 1024 * 2**53 passes int64, so the atoms are drawn
            env = split_environment(z)
            children = advance_generation(cap, env, ImmigrationPair.zero(), rng)
            assert list(children) == [BATCH_STATE_CAP] * 2
            assert list(batch_step(cap, env, ImmigrationPair.zero(), rng)) == [BATCH_STATE_CAP]

    @given(
        p=st.floats(0.1, 0.9),
        k0=st.integers(1, 64),
        contaminated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_one_lane_batch_and_tree_saturate_together(self, p, k0, contaminated, seed):
        # each parasite's brood of 4096 passes 2**53 within 8 divisions on every path
        env = build_binomial_split(FiniteLaw.delta(4096), [(p, 1)])
        coin = FiniteLaw.bernoulli(0.5)
        imm = ImmigrationPair(coin, coin) if contaminated else ImmigrationPair.zero()
        rng = np.random.default_rng(seed)
        assert simulate_path(k0, 8, env, imm, rng).states[8] == BATCH_STATE_CAP
        states = simulate_states_batch(k0, env, imm, rng, 64, [8])[8]
        assert states.tolist() == [BATCH_STATE_CAP] * 64
        last = simulate_tree_bfs(k0, 8, env, imm, rng)[8]
        assert last.values.tolist() == [BATCH_STATE_CAP] and last.counts.tolist() == [2**8]

    @given(
        p=st.floats(0.1, 0.9),
        k0=st.integers(1, 64),
        contaminated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_cluster_split_stays_in_range_at_the_cap(self, p, k0, contaminated, seed):
        env = build_cluster_split(FiniteLaw.delta(4096), [(p, 1)])
        coin = FiniteLaw.bernoulli(0.5)
        imm = ImmigrationPair(coin, coin) if contaminated else ImmigrationPair.zero()
        rng = np.random.default_rng(seed)
        path = simulate_path(k0, 8, env, imm, rng).states
        batch = simulate_states_batch(k0, env, imm, rng, 64, [4, 8])
        for states in (path, batch[4], batch[8]):
            assert states.min() >= 0 and states.max() <= BATCH_STATE_CAP
        for led in simulate_tree_bfs(k0, 8, env, imm, rng):
            assert led.values.min() >= 0 and led.values.max() <= BATCH_STATE_CAP
            assert led.counts.min() > 0 and led.cells == 2**led.n


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
        for g, runs, values, counts in iter_forest_bfs(0, 6, env, imm, rng, n_trees):
            if g == 6:
                for k in range(4):
                    freqs[k] = np.bincount(runs, counts * (values == k), minlength=n_trees) / 2**g
        for k, per_tree in freqs.items():
            se = per_tree.std(ddof=1) / math.sqrt(n_trees)
            assert abs(per_tree.mean() - exact.probs[k]) < 3 * se + 1e-9

    def test_depth_bound(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DepthTooLarge):
            simulate_tree_bfs(0, 63, sub_env(), toy_imm(), rng)


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
            simulate_tree_dfs(0, 63, sub_env(), toy_imm(), rng)

    def test_split_blocks_past_block_size(self):
        # 2^40 cells at depth 40, held as a handful of ledger rows
        env, imm = subcritical_binomial()
        rng = np.random.default_rng(10)
        acc: dict[int, int] = {}
        led = simulate_tree_dfs(0, 40, env, imm, rng, accumulator=acc)
        assert led.cells == 2**40
        assert sum(acc.values()) == 2**40
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
        # both against the exact law of T_3, where T_g = 4 T_{g-1} + Bin(2^g, 1/2), T_0 = 0
        exact = np.array([1.0])
        for g in range(1, 4):
            grown = np.zeros(4 * (exact.size - 1) + 1)
            grown[::4] = exact
            exact = np.convolve(grown, [math.comb(2**g, k) / 2 ** 2**g for k in range(2**g + 1)])
        assert np.count_nonzero(exact) == 57 and exact @ np.arange(exact.size) == pytest.approx(28)
        env, imm = self.gw_setup(4)
        rng = np.random.default_rng(11)
        forest_totals = None
        for g, runs, values, counts in iter_forest_bfs(0, 3, env, imm, rng, 20_000):
            if g == 3:
                forest_totals = np.bincount(runs, values * counts, minlength=20_000)
        chain_totals = simulate_parasite_totals(env, imm, 0, 3, np.random.default_rng(12), 20_000)
        for totals in (forest_totals, chain_totals[:, 3]):
            assert tv_distance(EmpiricalMeasure.from_samples(totals.astype(np.int64)), exact) < 0.03
        assert abs(forest_totals.mean() - chain_totals[:, 3].mean()) < 1.5

    def test_parasites_total_is_python_int(self):
        env, imm = self.gw_setup(4)
        rng = np.random.default_rng(13)
        ledgers = simulate_tree_bfs(0, 4, env, imm, rng)
        assert len(ledgers) == 5
        assert all(isinstance(led.parasites_total, int) for led in ledgers)


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

    def test_rows_fit_at_once_as_one_by_one(self):
        rng = np.random.default_rng(15)
        series = rng.integers(1, 50, size=(40, 16)) * np.exp2(np.arange(16))
        series[0, 12] = series[1, 9:11] = series[2, 3] = 0  # the last zero is outside the window
        fit = growth_exponent(series, window=(8, 16))
        assert fit.window == (8, 16) and fit.exponent.shape == (40,)
        for row, exponent, censored in zip(series, fit.exponent, fit.zero_censored):
            one = growth_exponent(row, window=(8, 16))
            assert exponent == pytest.approx(one.exponent, abs=1e-12)
            assert censored == one.zero_censored == (row[8:] == 0).sum()
            idx = np.flatnonzero(row[8:]) + 8
            assert exponent == pytest.approx(np.polyfit(idx, np.log(row[idx]), 1)[0], abs=1e-12)
        assert fit.zero_censored[:4].tolist() == [1, 2, 0, 0]

    def test_rows_default_window_is_the_last_half(self):
        series = np.array([[2.0**n for n in range(11)], [3.0**n for n in range(11)]])
        fit = growth_exponent(series)
        assert fit.window == (5, 11) and fit.zero_censored.tolist() == [0, 0]
        assert fit.exponent == pytest.approx([math.log(2), math.log(3)], abs=1e-12)

    def test_rows_need_two_positive_counts_each(self):
        with pytest.raises(EmptySeries):
            growth_exponent(np.array([[1, 2, 4, 8], [1, 2, 4, 0]]), window=(2, 4))
        with pytest.raises(EmptySeries):
            growth_exponent(np.zeros((0, 5)))

    def test_exponent_near_log3_for_tripling_population(self):
        env = build_binomial_split(FiniteLaw.delta(3), [(0.5, 1.0)])
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))
        rng = np.random.default_rng(14)
        totals = simulate_parasite_totals(env, imm, 0, 20, rng, n_runs=200)
        fits = [growth_exponent(row).exponent for row in totals]
        assert abs(np.mean(fits) - math.log(3)) < 0.15


class TestLedgerTally:
    def test_totals_come_from_the_states(self):
        states = np.random.default_rng(16).integers(0, 7, size=500)
        led = GenerationLedger(9, *np.unique(states, return_counts=True))
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
        led = GenerationLedger(11, np.array([BATCH_STATE_CAP]), np.array([2**11]))
        assert led.parasites_total == 2**64
        assert led.infected == 2**11


# parasite counts for the merge: small ones that collide, the two ends, and any in between
_merge_values = st.one_of(st.integers(0, 8), st.sampled_from([0, BATCH_STATE_CAP]),
                          st.integers(0, BATCH_STATE_CAP))


def tree_step(rows, env, imm, rng):
    """One generation of the tree's rows through the shared ledger step."""
    return ledger_step(rows, env, imm, rng, lambda cells: advance_generation(cells, env, imm, rng))


class TestLedgerEngine:
    """The forest advanced as (run, value, count) rows."""

    @staticmethod
    def exact_daughters(p):
        # rows (0, c) and (3, c) of a brood-2 split: daughters of the free mothers get Y0;
        # the others hold Bin(6, p) or Bin(6, 1 - p), then Y1
        y0, y1 = np.array([0.5, 0.5]), np.array([0.5, 0.3, 0.2])
        sides = [np.array([math.comb(6, k) * q**k * (1 - q) ** (6 - k) for k in range(7)])
                 for q in (p, 1 - p)]
        infected = np.convolve((sides[0] + sides[1]) / 2, y1)
        return np.concatenate((y0, np.zeros(infected.size - 2))) / 2 + infected / 2

    def test_multinomial_and_per_cell_rows_match_the_pair_law(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.3, 1.0)])
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw((0, 1, 2), (0.5, 0.3, 0.2)))
        exact = self.exact_daughters(0.3)
        rng = np.random.default_rng(20)
        c = 20_000
        assert env._brood == (2, 0.3)
        rows = (np.zeros(2, dtype=np.int64), np.array([0, 3]), np.array([c, c]))
        _, values, counts = tree_step(rows, env, imm, rng)
        bulk = EmpiricalMeasure.from_counts(dict(zip(values.tolist(), counts.tolist())))
        assert counts.sum() == 4 * c
        cells = advance_generation(np.repeat([0, 3], c), env, imm, rng)
        for measure in (bulk, EmpiricalMeasure.from_samples(cells)):
            assert tv_distance(measure, exact) < 0.01

    def test_rows_drawn_in_bulk_only_past_the_support(self):
        # a row of 7 cells at v = 3 meets Bin(6, p)'s 7 atoms: divided cell by cell
        env = split_environment(2)
        rows = (np.zeros(2, dtype=np.int64), np.array([0, 3]), np.array([2, 7]))
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        tree_step(rows, env, ImmigrationPair.zero(), rng)
        advance_generation(np.full(7, 3), env, ImmigrationPair.zero(), twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert _split_env()._brood is None and dying_env()._brood == (0, 0.5)

    def test_critical_trees_at_depth_forty(self):
        env, zero, n_trees, depth = split_environment(2), ImmigrationPair.zero(), 20, 40
        rng = np.random.default_rng(22)
        for g, runs, values, counts in iter_forest_bfs(1, depth, env, zero, rng, n_trees):
            assert np.all(np.diff(runs * 2**53 + values) > 0)  # sorted by run, then value
            assert (np.bincount(runs, counts, minlength=n_trees) == 2.0**g).all()
        infected = np.bincount(runs[values > 0], counts[values > 0], minlength=n_trees) / 2**depth
        exact = survival_no_immigration(env, 1, depth).upper[depth]
        assert exact == pytest.approx(0.0858, abs=1e-4)
        se = infected.std(ddof=1) / math.sqrt(n_trees)
        assert abs(infected.mean() - exact) < 3 * se

    def test_depth_past_int64_raises_before_any_draw(self):
        rng = np.random.default_rng(23)
        before = rng.bit_generator.state
        for run in (
            lambda: simulate_tree_bfs(1, 63, sub_env(), toy_imm(), rng),
            lambda: simulate_tree_dfs(1, 63, sub_env(), toy_imm(), rng),
            lambda: next(iter_forest_bfs(1, 63, sub_env(), toy_imm(), rng, 2)),
        ):
            with pytest.raises(DepthTooLarge, match="bound 62"):
                run()
        assert rng.bit_generator.state == before

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            next(iter_forest_bfs(1, 3, sub_env(), toy_imm(), np.random.default_rng(26), 0))

    def test_generation_over_the_row_budget_raises(self, monkeypatch):
        monkeypatch.setattr(_sampling, "_ROW_BUDGET", 2**10)
        rng = np.random.default_rng(24)
        with pytest.raises(DepthTooLarge, match="budget"):
            simulate_tree_bfs(1, 20, split_environment(4), ImmigrationPair.zero(), rng)

    def test_row_budget_binds_only_steps_that_keep_both_daughters(self, monkeypatch):
        # heavy-tail contamination has no atom table, so every lane is divided one by one
        monkeypatch.setattr(_sampling, "_ROW_BUDGET", 2**10)
        divided = []

        def spy(lanes, *args, **kwargs):
            divided.append(lanes.size)
            return batch_step(lanes, *args, **kwargs)

        monkeypatch.setattr(lineage, "batch_step", spy)
        env, imm = heavy_tail_contaminated()
        states = simulate_states_batch(0, env, imm, np.random.default_rng(28), 4096, [6])
        assert states[6].size == 4096 and len(divided) == 6 and min(divided) > 2**10
        assert DepthTooLarge is _sampling.DepthTooLarge
        with pytest.raises(DepthTooLarge, match="budget"):
            simulate_tree_bfs(1, 20, split_environment(4), ImmigrationPair.zero(),
                              np.random.default_rng(24))

    def test_first_generations_do_not_depend_on_the_depth(self):
        env, imm = subcritical_binomial()
        deep = iter_forest_bfs(0, 16, env, imm, np.random.default_rng(29), 200)
        shallow = list(iter_forest_bfs(0, 8, env, imm, np.random.default_rng(29), 200))
        for (g, *rows), (h, *twin) in zip(deep, shallow):
            assert g == h and all(np.array_equal(a, b) for a, b in zip(rows, twin))
        assert g == 8

    @given(
        cells=st.lists(_merge_values, max_size=40),
        kept=st.lists(st.tuples(_merge_values, st.integers(1, 2**40)), max_size=40),
    )
    @example(cells=[3, 3, 0], kept=[(BATCH_STATE_CAP, 5), (7, 1), (3, 2)])
    @example(cells=[], kept=[(0, 4), (BATCH_STATE_CAP, 2), (0, 1)])
    @example(cells=[BATCH_STATE_CAP, 0, 0], kept=[])
    @settings(max_examples=200, deadline=None)
    def test_one_run_merge_equals_unique_and_add_at(self, cells, kept):
        assume(cells or kept)
        cells = np.array(cells, dtype=np.int64)
        values = np.array([v for v, _ in kept], dtype=np.int64)
        n_kept = np.array([n for _, n in kept], dtype=np.int64)
        expected, counts = np.unique(np.concatenate((cells, values)), return_counts=True)
        np.add.at(counts, np.searchsorted(expected, values), n_kept - 1)
        # a row whose cells each keep one daughter, from ``cells``, and a bulk row drawn as
        # ``kept``; with no cells, every row is a bulk row and none is divided one by one
        rows = np.zeros(2, np.int64), np.array([1, 2]), np.array([max(cells.size, 1), 1])
        multi = np.array([not cells.size, True])
        drawn = [np.zeros(values.size, np.int64), values, n_kept]
        with mock.patch.object(_sampling, "divide_rows", lambda *args, **kwargs: drawn), \
                mock.patch.object(_sampling, "bulk_rows", lambda *args: multi):
            runs, got, got_counts = ledger_step(rows, split_environment(2), ImmigrationPair.zero(),
                                                None, lambda _: cells.copy(), keep_one=True)
        assert got.tolist() == expected.tolist() and got_counts.tolist() == counts.tolist()
        assert not runs.any() and runs.size == got.size

    def test_contamination_past_the_cap_saturates_in_bulk_rows(self, monkeypatch):
        # Y0 puts 2^53 + 5 parasites into a free mother's daughters.  Once the v = 0 row holds
        # two cells it is a bulk row, so the clip at 2^53 happens inside divide_rows
        imm = ImmigrationPair(FiniteLaw((0, 2**53 + 5), (0.5, 0.5)), FiniteLaw((0, 3), (0.5, 0.5)))
        env = dying_environment()
        drawn = []

        def spy(values, *args, **kwargs):
            out = divide_rows(values, *args, **kwargs)
            drawn.append((values, out[1]))
            return out

        monkeypatch.setattr(_sampling, "divide_rows", spy)
        rng = np.random.default_rng(27)
        for g, _, values, counts in iter_forest_bfs(0, 6, env, imm, rng, 1):
            assert values.max() <= BATCH_STATE_CAP and counts.min() > 0
            assert counts.sum() == 2**g
        assert values.max() == BATCH_STATE_CAP
        assert any((v == 0).any() and (d == BATCH_STATE_CAP).any() for v, d in drawn)
        drawn.clear()
        states = simulate_states_batch(0, env, imm, rng, 64, list(range(7)))
        for t in range(1, 7):
            assert states[t].size == 64 and states[t].max() == BATCH_STATE_CAP
        assert any((v == 0).any() and (d == BATCH_STATE_CAP).any() for v, d in drawn)

    def test_many_runs_with_values_near_the_cap(self):
        # 1024 runs times 2^53 + 1 values pass int64: the rows sort on value ranks
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(1, 0), 1.0),))
        rng = np.random.default_rng(25)
        *_, (g, runs, values, counts) = iter_forest_bfs(
            BATCH_STATE_CAP, 2, env, ImmigrationPair.zero(), rng, 1024
        )
        assert list(runs) == list(np.repeat(np.arange(1024), 2))
        assert list(values) == [0, BATCH_STATE_CAP] * 1024
        assert list(counts) == [3, 1] * 1024


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


@pytest.mark.parametrize("k0", [BATCH_STATE_CAP + 1, 2**64])
def test_start_above_the_cap_rejected(k0):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at most"):
        simulate_path(k0, 2, sub_env(), toy_imm(), rng)
    with pytest.raises(ValueError, match="at most"):
        list(iter_forest_bfs(k0, 2, sub_env(), toy_imm(), rng, 2))
    assert start_lanes(BATCH_STATE_CAP, 2).tolist() == [BATCH_STATE_CAP] * 2


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
            for run_id in range(start, min(start + self.BLOCK, replicates)):
                if traversal == "dfs":
                    ledgers = [simulate_tree_dfs(k0, n_max, env, imm, rng)]
                else:
                    ledgers = simulate_tree_bfs(k0, n_max, env, imm, rng)
                for led in ledgers:
                    rows += [(run_id, led.n, k, c) for k, c in led.histogram.items()]
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
        assert rows.dtype == np.int64 and rows.shape[1] == 4
        groups: dict[tuple[int, int], int] = {}
        for run_id, n, _, c in rows.tolist():
            groups[run_id, n] = groups.get((run_id, n), 0) + c
        generations = [n_max] if traversal == "dfs" else range(n_max + 1)
        assert groups == {(r, n): 2**n for r in range(replicates) for n in generations}
        # the expected rows are sorted, so run_tree's rows need no sort
        expected = self.expected_rows(env, imm, k0, n_max, replicates, seed, traversal)
        assert rows.tolist() == [list(row) for row in expected]

    def test_unknown_traversal_rejected(self):
        with pytest.raises(ConfigError, match="unknown traversal"):
            run_tree(sub_env(), coin_imm(), 1, 3, 2, 0, "dfz")
