"""Offspring law construction, regime classification, and sampling checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellbranch.laws import (
    BivariateOffspringLaw,
    DegenerateMarginal,
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    InvalidContamination,
    Regime,
    binomial_recovery_criterion,
    build_binomial_split,
    build_cluster_split,
    classify_regime,
    expected_log_inverse_p,
    uniform_grid_p,
)


def law_as_dict(law: BivariateOffspringLaw) -> dict:
    return {pair: prob for pair, prob in law.support}


def single(env: EnvironmentLaw) -> BivariateOffspringLaw:
    assert len(env.components) == 1
    return env.components[0][0]


class TestBinomialSplit:
    def test_one_parasite_even_split(self):
        env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx({(1, 0): 0.5, (0, 1): 0.5})

    def test_two_children_even_split(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx(
            {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
        )

    def test_no_children_any_split(self):
        env = build_binomial_split(FiniteLaw.delta(0), [(0.3, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx({(0, 0): 1.0})

    def test_small_brood_matches_closed_form_exactly(self):
        env = build_binomial_split(FiniteLaw.delta(6), [(0.3, 1.0)])
        terms = [
            ((a, 6 - a), 1.0 * math.comb(6, a) * 0.3**a * (1.0 - 0.3) ** (6 - a)) for a in range(7)
        ]
        assert single(env).support == BivariateOffspringLaw(tuple(terms)).support

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_brood_past_float_binomial_coefficients(self, p):
        # C(2000, 1000) ~ 2e600 does not fit a float; those terms go through log space
        for z in (2000, 20000):
            law = single(build_binomial_split(FiniteLaw.delta(z), [(p, 1.0)]))
            assert abs(sum(q for _, q in law.support) - 1.0) < 1e-12
            assert abs(law.marginal(0).mean - z * p) < 1e-9 * z / 2000

    @given(
        z_probs=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_offspring_law_preserved(self, z_probs, p):
        w = np.array(z_probs) / sum(z_probs)
        z_law = FiniteLaw(tuple(range(len(w))), tuple(w))
        env = build_binomial_split(z_law, [(p, 1.0)])
        total = single(env).total_law()
        assert total.values == z_law.values
        assert total.probs == pytest.approx(z_law.probs, abs=1e-12)


class TestClusterSplit:
    def test_whole_brood_one_side(self):
        env = build_cluster_split(FiniteLaw.delta(3), [(1.0, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx({(3, 0): 1.0})

    def test_two_cluster_even(self):
        env = build_cluster_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx({(2, 0): 0.5, (0, 2): 0.5})

    def test_zero_or_one_cluster(self):
        z = FiniteLaw((0, 1), (0.5, 0.5))
        env = build_cluster_split(z, [(0.5, 1.0)])
        assert law_as_dict(single(env)) == pytest.approx(
            {(0, 0): 0.5, (1, 0): 0.25, (0, 1): 0.25}
        )

    @given(
        z_probs=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
        p=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_split_gives_exchangeable_pairs(self, z_probs, p):
        w = np.array(z_probs) / sum(z_probs)
        z_law = FiniteLaw(tuple(range(1, len(w) + 1)), tuple(w))
        env = build_cluster_split(z_law, [(p, 0.5), (1.0 - p, 0.5)])
        joint: dict = {}
        for law, weight in env.components:
            for pair, prob in law.support:
                joint[pair] = joint.get(pair, 0.0) + weight * prob
        for (a, b), prob in joint.items():
            assert joint[(b, a)] == pytest.approx(prob, abs=1e-12)


class TestDerivedLaws:
    """Marginals, brood totals and realized marginals merge repeated atoms."""

    def test_total_and_marginals_merge_repeated_values(self):
        law = BivariateOffspringLaw((((0, 2), 0.25), ((1, 1), 0.5), ((2, 0), 0.25)))
        assert law.total_law() == FiniteLaw.delta(2)
        assert law.marginal(0) == law.marginal(1) == FiniteLaw((0, 1, 2), (0.25, 0.5, 0.25))

    def test_marginal_merges_within_a_side(self):
        law = BivariateOffspringLaw((((0, 1), 0.25), ((0, 2), 0.25), ((3, 1), 0.5)))
        assert law.marginal(0) == FiniteLaw((0, 3), (0.5, 0.5))
        assert law.marginal(1) == FiniteLaw((1, 2), (0.75, 0.25))
        assert law.total_law() == FiniteLaw((1, 2, 4), (0.25, 0.25, 0.5))

    def test_realized_marginals_merge_the_two_sides(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        assert env.realized_marginals() == [(FiniteLaw((0, 1, 2), (0.25, 0.5, 0.25)), 1.0)]

    def test_realized_marginals_merge_across_components(self):
        # side 0 at p = 1/4 is side 1 at p = 3/4, and the other way round
        env = build_binomial_split(FiniteLaw.delta(2), [(0.25, 0.5), (0.75, 0.5)])
        assert env.realized_marginals() == [
            (FiniteLaw((0, 1, 2), (0.5625, 0.375, 0.0625)), 0.5),
            (FiniteLaw((0, 1, 2), (0.0625, 0.375, 0.5625)), 0.5),
        ]

    def test_realized_marginals_merge_only_equal_laws(self):
        # 1 - 0.7 is not 0.3 in floating point, so the mirrored marginals differ
        # in their last bits and stay apart
        env = build_binomial_split(FiniteLaw.delta(2), [(0.3, 0.5), (0.7, 0.5)])
        assert [w for _, w in env.realized_marginals()] == [0.25] * 4


class TestMixedLogMean:
    def test_critical_value(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        assert env.mixed_log_mean() == pytest.approx(0.0, abs=1e-15)

    def test_subcritical_value(self):
        env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
        assert env.mixed_log_mean() == pytest.approx(-math.log(2))

    def test_supercritical_value(self):
        env = build_binomial_split(FiniteLaw.delta(4), [(0.5, 1.0)])
        assert env.mixed_log_mean() == pytest.approx(math.log(2))

    def test_degenerate_marginal_rejected(self):
        env = EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 1.0),))
        with pytest.raises(DegenerateMarginal):
            env.mixed_log_mean()

    @given(z=st.integers(1, 6), p=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_log_decomposition_for_deterministic_broods(self, z, p):
        env = build_binomial_split(FiniteLaw.delta(z), [(p, 1.0)])
        expected = math.log(z) + 0.5 * (math.log(p) + math.log(1.0 - p))
        assert env.mixed_log_mean() == pytest.approx(expected, abs=1e-10)


class TestClassifyRegime:
    def imm(self):
        return ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))

    def test_subcritical(self):
        env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
        report = classify_regime(env, self.imm())
        assert report.regime is Regime.SUBCRITICAL
        assert report.log_immigration_finite == (True, True)

    def test_critical(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        assert classify_regime(env, self.imm()).regime is Regime.CRITICAL

    def test_supercritical(self):
        env = build_binomial_split(FiniteLaw.delta(4), [(0.5, 1.0)])
        assert classify_regime(env, self.imm()).regime is Regime.SUPERCRITICAL

    def test_heavy_tail_flag(self):
        env = build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), HeavyTailLaw())
        assert classify_regime(env, imm).log_immigration_finite == (True, False)

    def test_invariant_under_component_duplication(self):
        z = FiniteLaw((1, 3), (0.5, 0.5))
        base = build_binomial_split(z, [(0.3, 1.0)])
        law = base.components[0][0]
        doubled = EnvironmentLaw(((law, 0.5), (law, 0.5)))
        a = classify_regime(base, self.imm())
        b = classify_regime(doubled, self.imm())
        assert a.regime is b.regime
        assert a.log_mean == pytest.approx(b.log_mean, abs=1e-14)


class TestRecoveryCriterion:
    def test_uniform_split_recovers_doubling(self):
        assert binomial_recovery_criterion(2.0, 1.0) is True

    def test_boundary_counts_as_recovery(self):
        assert binomial_recovery_criterion(math.e, 1.0) is True

    def test_fast_growth_defeats_uniform_split(self):
        assert binomial_recovery_criterion(4.0, 1.0) is False

    def test_uniform_grid_log_inverse_mean(self):
        # Midpoint rule on E log(1/P) for uniform P: exact value 1.
        assert expected_log_inverse_p(uniform_grid_p(64)) == pytest.approx(1.0, abs=0.01)


class TestSampling:
    def test_single_component_always_returned(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        rng = np.random.default_rng(0)
        assert (env.sample_indices(rng, 50) == 0).all()

    def test_weighted_component_frequency(self):
        a = BivariateOffspringLaw.delta(1, 1)
        b = BivariateOffspringLaw.delta(2, 2)
        env = EnvironmentLaw(((a, 0.5), (b, 0.5)))
        rng = np.random.default_rng(1234)
        idx = env.sample_indices(rng, 10**6)
        freq = float(np.mean(idx == 0))
        assert abs(freq - 0.5) < 0.002  # 4 sigma of a fair binomial

    def test_degenerate_weights(self):
        a = BivariateOffspringLaw.delta(1, 1)
        b = BivariateOffspringLaw.delta(2, 2)
        env = EnvironmentLaw(((a, 1.0), (b, 0.0)))
        rng = np.random.default_rng(7)
        assert (env.sample_indices(rng, 50) == 0).all()


class TestValidation:
    def test_environment_needs_components(self):
        with pytest.raises(ValueError):
            EnvironmentLaw(())

    def test_offspring_pairs_must_be_distinct(self):
        with pytest.raises(ValueError):
            BivariateOffspringLaw((((1, 0), 0.5), ((1, 0), 0.5)))

    def test_offspring_counts_nonnegative(self):
        with pytest.raises(ValueError):
            BivariateOffspringLaw((((-1, 0), 1.0),))


class TestFiniteLaw:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteLaw((0, 1), (0.5, 0.6))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            FiniteLaw((-1, 1), (0.5, 0.5))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteLaw((1, 1), (0.5, 0.5))

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 0.0)])
    def test_rejects_nan_and_inf(self, probs):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            FiniteLaw((0, 1), probs)

    def test_rejects_no_atoms(self):
        # so the split builders never see an empty brood law
        with pytest.raises(ValueError, match="at least one atom"):
            FiniteLaw((), ())

    def test_geometric_truncated_mean(self):
        law = FiniteLaw.geometric_truncated(0.5, 20)
        exact = sum(v * p for v, p in zip(law.values, law.probs))
        assert law.mean == pytest.approx(exact)
        assert law.p_zero == pytest.approx(0.5, abs=1e-6)

    def test_sample_many_frequencies(self):
        law = FiniteLaw((0, 2, 5), (0.2, 0.5, 0.3))
        rng = np.random.default_rng(11)
        draws = law.sample_many(rng, 200_000)
        for v, p in zip(law.values, law.probs):
            assert abs(np.mean(draws == v) - p) < 0.005


class TestHeavyTail:
    def test_pmf_normalizes(self):
        law = HeavyTailLaw()
        body, escaped = law.pmf_array(65538)
        assert body.sum() + escaped == pytest.approx(1.0, abs=1e-9)
        assert escaped > 0.01  # genuinely heavy tail

    def test_zero_mass_is_half(self):
        law = HeavyTailLaw()
        rng = np.random.default_rng(3)
        draws = law.sample_many(rng, 100_000)
        assert abs(np.mean(draws == 0) - 0.5) < 0.006
        assert abs(np.mean(draws == 1) - law.pmf_array(2)[0][1]) < 0.006

    def test_tail_draws_are_large(self):
        law = HeavyTailLaw()
        rng = np.random.default_rng(17)
        draws = law.sample_many(rng, 50_000)
        assert draws.max() > 10**6  # ~2% of draws land beyond a million

    def test_flags(self):
        law = HeavyTailLaw()
        assert law.mean == math.inf
        assert law.log_plus_finite is False


class TestImmigrationPair:
    def test_standard_pair_accepted(self):
        ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))

    def test_zero_pair_accepted(self):
        assert ImmigrationPair.zero().is_zero_pair

    @pytest.mark.parametrize("heavy_side", [0, 1])
    def test_heavy_tail_side_is_not_zero(self, heavy_side):
        laws = [FiniteLaw.delta(0), FiniteLaw.delta(0)]
        laws[heavy_side] = HeavyTailLaw()
        assert not ImmigrationPair(*laws, require_contamination_condition=False).is_zero_pair

    def test_always_contaminating_rejected(self):
        with pytest.raises(InvalidContamination):
            ImmigrationPair(FiniteLaw.delta(1), FiniteLaw.delta(0))

    def test_never_contaminating_rejected(self):
        with pytest.raises(InvalidContamination):
            ImmigrationPair(FiniteLaw.delta(0), FiniteLaw.bernoulli(0.5))

    def test_state_independent_escape_hatch(self):
        pair = ImmigrationPair.state_independent(FiniteLaw.delta(1))
        assert pair.y0 is pair.y1
