"""Random cell line simulation checks against enumeration and kernel oracles."""

import numpy as np
import pytest

from cellbranch import lineage
from cellbranch._sampling import BATCH_STATE_CAP, capped_sum, start_lanes
from cellbranch.laws import (
    BivariateOffspringLaw,
    DegenerateMarginal,
    EnvironmentLaw,
    FiniteLaw,
    ImmigrationPair,
    build_binomial_split,
    build_cluster_split,
)
from cellbranch.lineage import (
    ExcursionCapExceeded,
    batch_step,
    collect_hitting_times,
    simulate_normalized_batch,
    simulate_path,
    simulate_states_batch,
    stationary_by_regeneration,
)
from cellbranch.oracle import build_kernel, propagate, stationary_solve, survival_no_immigration
from cellbranch.presets import critical_contaminated, heavy_tail_contaminated, split_environment
from cellbranch.stats import EmpiricalMeasure, tv_distance


def dying_env():
    return EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 1.0),))


def toy_chain():
    return dying_env(), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def sub_binom():
    env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
    return env, ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def sub_geom():
    env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
    g = FiniteLaw.geometric_truncated(0.5, 20)
    return env, ImmigrationPair(g, g)


def super_env():
    return build_binomial_split(FiniteLaw.delta(4), [(0.5, 1.0)])


class TestStep:
    def test_empty_cell_stays_empty_without_contamination(self):
        rng = np.random.default_rng(0)
        mean = np.empty(1)
        z = batch_step(np.array([0]), dying_env(), ImmigrationPair.zero(), rng, means_out=mean)
        assert list(z) == [0]
        assert list(mean) == [0.0]

    def test_dead_offspring_leaves_only_immigration(self):
        rng = np.random.default_rng(1)
        imm = ImmigrationPair(
            FiniteLaw.bernoulli(0.5), FiniteLaw.delta(3), require_contamination_condition=False
        )
        assert list(batch_step(np.array([5]), dying_env(), imm, rng)) == [3]

    def test_means_follow_each_lanes_component_and_side(self):
        # (component, side) means 1, 0, 2 and 3, each beside the daughter its lane keeps
        env = EnvironmentLaw(
            (
                (BivariateOffspringLaw.delta(1, 0), 0.5),
                (BivariateOffspringLaw((((3, 2), 0.5), ((1, 4), 0.5))), 0.5),
            )
        )
        rng = np.random.default_rng(5)
        means = np.empty(10_000)
        ones = np.ones(10_000, dtype=np.int64)
        out = batch_step(ones, env, ImmigrationPair.zero(), rng, means_out=means)
        kept = {m: set(out[means == m].tolist()) for m in np.unique(means).tolist()}
        assert kept == {0.0: {0}, 1.0: {1}, 2.0: {1, 3}, 3.0: {2, 4}}

    def test_contamination_keyed_on_each_lanes_state(self):
        imm = ImmigrationPair(
            FiniteLaw.delta(1), FiniteLaw.delta(3), require_contamination_condition=False
        )
        rng = np.random.default_rng(4)
        assert list(batch_step(np.array([0, 5]), dying_env(), imm, rng)) == [1, 3]

    def test_bernoulli_contamination_mean(self):
        env, imm = toy_chain()
        rng = np.random.default_rng(2)
        states = simulate_states_batch(0, env, imm, rng, 10**6, checkpoints=[1])[1]
        assert abs(states.mean() - 0.5) < 0.002

    def test_scalar_step_matches_contamination_mean(self):
        env, imm = toy_chain()
        rng = np.random.default_rng(3)
        draws = [int(batch_step(np.array([0]), env, imm, rng)[0]) for _ in range(20_000)]
        assert abs(np.mean(draws) - 0.5) < 0.011  # 3 sigma


class TestSimulatePath:
    def test_zero_steps(self):
        rng = np.random.default_rng(0)
        traj = simulate_path(9, 0, *sub_binom(), rng)
        assert list(traj.states) == [9]

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_path(1, -1, *sub_binom(), np.random.default_rng(0))

    def test_absorbing_collapse(self):
        rng = np.random.default_rng(4)
        traj = simulate_path(7, 6, dying_env(), ImmigrationPair.zero(), rng)
        assert list(traj.states) == [7, 0, 0, 0, 0, 0, 0]

    def test_toy_chain_two_step_return(self):
        env, imm = toy_chain()
        rng = np.random.default_rng(5)
        states = simulate_states_batch(0, env, imm, rng, 10**5, checkpoints=[2])[2]
        assert abs(np.mean(states == 0) - 0.75) < 0.01

    def test_saturation_flag(self):
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(9, 9), 1.0),))
        rng = np.random.default_rng(6)
        traj = simulate_path(1, 70, env, ImmigrationPair.zero(), rng)
        assert traj.saturated
        assert traj.states.max() == BATCH_STATE_CAP

    def test_saturation_flag_under_binomial_split(self):
        # a brood of 4 split with p = 1/2 doubles a large state every step
        env = build_binomial_split(FiniteLaw.delta(4), [(0.5, 1.0)])
        rng = np.random.default_rng(6)
        traj = simulate_path(64, 70, env, ImmigrationPair.zero(), rng)
        assert traj.saturated
        assert traj.states[-1] == BATCH_STATE_CAP

    def test_deterministic_given_seed(self):
        env, imm = sub_geom()
        a = simulate_path(2, 40, env, imm, np.random.default_rng(99))
        b = simulate_path(2, 40, env, imm, np.random.default_rng(99))
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("model", [critical_contaminated, heavy_tail_contaminated])
    def test_states_replay_batch_step_on_one_lane(self, model):
        env, imm = model()
        rng, twin = np.random.default_rng(33), np.random.default_rng(33)
        traj = simulate_path(2, 40, env, imm, rng)
        states = [start_lanes(2, 1)]
        for _ in range(40):
            states.append(batch_step(states[-1], env, imm, twin))
        assert np.array_equal(traj.states, np.concatenate(states))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestHittingTime:
    def test_immediate_return(self):
        rng = np.random.default_rng(0)
        summary = collect_hitting_times(0, dying_env(), ImmigrationPair.zero(), rng, 1, cap=10)
        assert list(summary.times) == [1]
        assert summary.capped_fraction == 0.0

    def test_toy_chain_mean_return(self):
        env, imm = toy_chain()
        rng = np.random.default_rng(7)
        summary = collect_hitting_times(0, env, imm, rng, samples=10**5, cap=50)
        assert summary.capped_fraction == 0.0
        assert abs(summary.times.mean() - 1.5) < 0.01
        assert set(np.unique(summary.times)) == {1, 2}

    def test_supercritical_capped_fraction_matches_survival(self):
        env = super_env()
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))
        rng = np.random.default_rng(8)
        summary = collect_hitting_times(1, env, imm, rng, samples=60, cap=1000)
        # with no immigration in infected states, capping is surviving
        expected = survival_no_immigration(env, 1, 1000).upper[-1]
        assert summary.capped_fraction > 0.0
        assert abs(summary.capped_fraction - expected) < 4 * np.sqrt(expected * (1 - expected) / 60)


class TestRegeneration:
    def test_toy_chain_estimates(self):
        env, imm = toy_chain()
        rng = np.random.default_rng(9)
        est = stationary_by_regeneration(env, imm, rng, excursions=10**5)
        assert abs(est.measure.frequency(0) - 2.0 / 3.0) < 0.01
        assert abs(est.measure.frequency(1) - 1.0 / 3.0) < 0.01
        assert abs(est.u_infinity - 2.0 / 3.0) < 0.01

    def test_frequencies_sum_to_one(self):
        env, imm = sub_geom()
        rng = np.random.default_rng(10)
        est = stationary_by_regeneration(env, imm, rng, excursions=2000)
        assert sum(est.measure.as_dict().values()) == pytest.approx(1.0)

    def test_absorbing_chain_gives_point_mass(self):
        rng = np.random.default_rng(11)
        est = stationary_by_regeneration(dying_env(), ImmigrationPair.zero(), rng, excursions=500)
        assert est.measure.as_dict() == {0: 1.0}
        assert est.u_infinity == 1.0

    def test_matches_kernel_stationary(self):
        env, imm = sub_binom()
        rng = np.random.default_rng(12)
        est = stationary_by_regeneration(env, imm, rng, excursions=10**5)
        exact = stationary_solve(build_kernel(env, imm, 64))
        assert tv_distance(est.measure, exact.pmf) < 0.02

    def test_capped_excursions_leave_no_visits(self):
        # an infected cell keeps exactly one parasite forever, so it never returns
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(1, 1), 1.0),))
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.005), FiniteLaw.delta(0))
        rng = np.random.default_rng(22)
        with pytest.warns(UserWarning):
            est = stationary_by_regeneration(env, imm, rng, excursions=2000, cap=50)
        capped = round(est.capped_fraction * 2000)
        assert est.capped_fraction > 0
        assert est.measure.as_dict() == {0: 1.0}
        assert est.u_infinity == 1.0
        assert est.measure.total == est.total_length
        assert est.excursions + capped == 2000

    def test_visit_log_merges_leave_the_estimate_unchanged(self, monkeypatch):
        env, imm = sub_geom()
        runs = []
        for merge_steps in (1, 10**9):
            monkeypatch.setattr(lineage, "_MERGE_STEPS", merge_steps)
            est = stationary_by_regeneration(env, imm, np.random.default_rng(23), 5000, cap=35)
            assert est.measure.total == est.total_length
            runs.append((est.measure.counts, est.total_length, est.capped_fraction))
        assert runs[0] == runs[1]
        assert runs[0][2] > 0

    def test_supercritical_warns_and_caps(self):
        env = super_env()
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))
        rng = np.random.default_rng(13)
        with pytest.warns(UserWarning):
            with pytest.raises(ExcursionCapExceeded):
                stationary_by_regeneration(env, imm, rng, excursions=100, cap=200)


class TestNormalizedProcess:
    def test_deterministic_growth_is_flat(self):
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(3, 3), 1.0),))
        rng = np.random.default_rng(14)
        w = simulate_normalized_batch(1, env, ImmigrationPair.zero(), rng, 8, checkpoints=[0, 6, 12])
        for t in (0, 6, 12):
            assert w[t] == pytest.approx(np.ones(8))

    def test_empty_chain_is_zero(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        rng = np.random.default_rng(15)
        w = simulate_normalized_batch(0, env, ImmigrationPair.zero(), rng, 8, checkpoints=[10])
        assert (w[10] == 0.0).all()

    def test_zero_mean_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DegenerateMarginal):
            simulate_normalized_batch(1, dying_env(), ImmigrationPair.zero(), rng, 8, checkpoints=[3])

    def test_geometric_series_mean_with_unit_immigration(self):
        # marginal mean 3 on both sides, one immigrant per division
        env = build_binomial_split(FiniteLaw.delta(6), [(0.5, 1.0)])
        imm = ImmigrationPair.state_independent(FiniteLaw.delta(1))
        rng = np.random.default_rng(17)
        w = simulate_normalized_batch(0, env, imm, rng, 10**5, checkpoints=[20])[20]
        assert abs(w.mean() - 0.5) < 0.02


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda *model: simulate_path(-3, 4, *model), id="simulate_path"),
        pytest.param(lambda *model: collect_hitting_times(-2, *model, samples=5),
                     id="collect_hitting_times"),
        pytest.param(lambda *model: simulate_states_batch(-3, *model, 4, [1]),
                     id="simulate_states_batch"),
        pytest.param(lambda *model: simulate_normalized_batch(-3, *model, 4, [1]),
                     id="simulate_normalized_batch"),
    ],
)
def test_negative_start_rejected(run):
    with pytest.raises(ValueError, match="nonnegative"):
        run(*toy_chain(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda *model: simulate_states_batch(0, *model, 4, [-1, 5]),
                     id="simulate_states_batch"),
        pytest.param(lambda *model: simulate_normalized_batch(0, *model, 4, [-2, 3]),
                     id="simulate_normalized_batch"),
    ],
)
def test_negative_checkpoint_rejected(run):
    with pytest.raises(ValueError, match="nonnegative"):
        run(*sub_binom(), np.random.default_rng(0))


def test_checkpoints_in_any_order_and_repeated():
    env, imm = sub_geom()
    out = simulate_states_batch(2, env, imm, np.random.default_rng(1), 50, [4, 0, 4, 2])
    again = simulate_states_batch(2, env, imm, np.random.default_rng(1), 50, [0, 2, 4])
    assert list(out) == [0, 2, 4]
    assert all(np.array_equal(out[t], again[t]) for t in again)
    assert list(out[0]) == [2] * 50


class TestBatchAgainstOracle:
    def test_batch_law_matches_kernel(self):
        env, imm = sub_geom()
        kernel = build_kernel(env, imm, 128)
        exact = propagate(kernel, 0, 8)
        rng = np.random.default_rng(18)
        states = simulate_states_batch(0, env, imm, rng, 40_000, checkpoints=[8])[8]
        assert tv_distance(EmpiricalMeasure.from_samples(states), exact) < 0.02

    def test_scalar_law_matches_kernel(self):
        env, imm = sub_geom()
        kernel = build_kernel(env, imm, 128)
        exact = propagate(kernel, 0, 8)
        rng = np.random.default_rng(19)
        finals = [simulate_path(0, 8, env, imm, rng).states[-1] for _ in range(8000)]
        assert tv_distance(EmpiricalMeasure.from_samples(finals), exact) < 0.03

    def test_one_step_matches_kernel_row_on_two_asymmetric_components(self):
        # components and sides with distinct marginals: a mis-indexed table changes the law
        env = EnvironmentLaw(
            (
                (BivariateOffspringLaw((((3, 0), 0.6), ((0, 1), 0.4))), 0.3),
                (BivariateOffspringLaw((((1, 2), 0.5), ((0, 0), 0.5))), 0.7),
            )
        )
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw((0, 1), (0.7, 0.3)))
        exact = propagate(build_kernel(env, imm, 64, overflow_budget=None), 3, 1)
        rng = np.random.default_rng(22)
        states = batch_step(np.full(200_000, 3), env, imm, rng)
        assert tv_distance(EmpiricalMeasure.from_samples(states), exact) < 0.01

    def test_convergence_to_stationary_in_tv(self):
        env, imm = sub_binom()
        exact = stationary_solve(build_kernel(env, imm, 64)).pmf
        rng = np.random.default_rng(20)
        out = simulate_states_batch(0, env, imm, rng, 30_000, checkpoints=[5, 50])
        tv_5 = tv_distance(EmpiricalMeasure.from_samples(out[5]), exact)
        tv_50 = tv_distance(EmpiricalMeasure.from_samples(out[50]), exact)
        assert tv_50 < 0.02
        assert tv_50 <= tv_5 + 0.01


class TestLedger:
    """The cell line advanced as rows (value, count), merged every step."""

    def test_one_bulk_step_matches_the_kernel_row(self, monkeypatch):
        # p = 0.3 makes the two daughters' laws differ: keeping the wrong side changes the law
        env = split_environment(3, p=0.3)
        imm = ImmigrationPair.state_independent(FiniteLaw.bernoulli(0.5))
        exact = propagate(build_kernel(env, imm, 64, overflow_budget=None), 3, 1)
        monkeypatch.setattr(lineage, "batch_step", None)  # a lane step would fail here
        states = simulate_states_batch(3, env, imm, np.random.default_rng(30), 200_000, [1])[1]
        assert states.dtype == np.int64 and states.size == 200_000
        assert tv_distance(EmpiricalMeasure.from_samples(states), exact) < 0.01

    @pytest.mark.parametrize(
        "model, k0, n_paths",
        [(heavy_tail_contaminated, 0, 500), (critical_contaminated, 2, 1)],
        ids=["heavy-tail", "one-lane"],
    )
    def test_rows_with_no_bulk_row_replay_batch_step(self, model, k0, n_paths):
        # each step is batch_step over np.repeat of the last step's sorted rows: a sorted array
        env, imm = model()
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        out = simulate_states_batch(k0, env, imm, rng, n_paths, [0, 5, 20])
        states = start_lanes(k0, n_paths)
        for t in range(1, 21):
            states = np.sort(batch_step(states, env, imm, twin))
            if t in out:
                assert np.array_equal(out[t], states)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_long_run_keeps_every_path_and_the_law(self):
        env, imm = critical_contaminated()
        n_paths, checkpoints = 20_000, [0, 3, 100, 300]
        out = simulate_states_batch(0, env, imm, np.random.default_rng(32), n_paths, checkpoints)
        assert list(out) == checkpoints
        assert all(out[t].size == n_paths and out[t].dtype == np.int64 for t in checkpoints)
        exact = propagate(build_kernel(env, imm, 64, overflow_budget=None), 0, 3)
        assert tv_distance(EmpiricalMeasure.from_samples(out[3]), exact) < 0.02


class TestSaturation:
    def test_batch_offspring_past_int64_saturates(self):
        env = build_cluster_split(FiniteLaw.delta(4096), [(0.5, 1.0)])
        rng = np.random.default_rng(21)
        out = batch_step(np.array([2**52, 2**52]), env, ImmigrationPair.zero(), rng)
        assert list(out) == [BATCH_STATE_CAP, BATCH_STATE_CAP]

    def test_wide_sums_stay_exact_below_the_cap(self):
        # trials * max value passes 2^63, so the sums are taken in float64
        counts = np.array(
            [[3, 2**52 - 3, 0], [2**12 + 1, 2**52 - 2**12 - 1, 0], [0, 0, 2**52]], dtype=np.int64
        )
        values = np.array([2**40 + 1, 0, 2**11], dtype=np.int64)
        out = capped_sum(counts, values, np.full(3, 2**52))
        assert out.dtype == np.int64
        assert list(out) == [3 * (2**40 + 1), (2**12 + 1) * (2**40 + 1), BATCH_STATE_CAP]
