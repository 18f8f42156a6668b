"""Truncated-kernel oracle checks against hand enumeration and closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellbranch.laws import (
    BivariateOffspringLaw,
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    build_binomial_split,
    build_cluster_split,
    uniform_grid_p,
)
from cellbranch.oracle import (
    _FFT_BLOCK,
    NonConvergent,
    TruncationTooSmall,
    build_kernel,
    hitting_tail,
    propagate,
    renewal_limit,
    renewal_sequence,
    stationary_solve,
    survival_no_immigration,
)
from cellbranch.presets import (
    heavy_tail_contaminated,
    split_environment,
)


def dying_env() -> EnvironmentLaw:
    return EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 1.0),))


def toy_chain():
    """Two-state chain: offspring all die, fresh cells get a fair coin of parasites."""
    return dying_env(), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def subcritical_env() -> EnvironmentLaw:
    return build_binomial_split(FiniteLaw.delta(1), [(0.5, 1.0)])


def geometric_set():
    env = subcritical_env()
    g = FiniteLaw.geometric_truncated(0.5, 20)
    return env, ImmigrationPair(g, g)


def dense_reference_kernel(env, imm, K):
    """The kernel from one dense (K+1)-long convolution per marginal and per row."""
    size = K + 1
    offspring = np.zeros((size, size))
    offspring[0, 0] = 1.0
    for marg, weight in env.realized_marginals():
        pmf, _ = marg.pmf_array(size)
        cur = np.array([1.0])
        for x in range(1, size):
            cur = np.convolve(cur, pmf)[:size]
            offspring[x, : len(cur)] += weight * cur
    y0_pmf, _ = imm.y0.pmf_array(size)
    y1_pmf, _ = imm.y1.pmf_array(size)
    matrix = np.array(
        [np.convolve(row, y0_pmf if x == 0 else y1_pmf)[:size] for x, row in enumerate(offspring)]
    )
    overflow = np.clip(1.0 - matrix.sum(axis=1), 0.0, None)
    heavy = isinstance(imm.y0, HeavyTailLaw) or isinstance(imm.y1, HeavyTailLaw)
    return matrix, overflow, heavy


def assert_matches_reference(env, imm, K):
    kernel = build_kernel(env, imm, K, overflow_budget=None)
    matrix, overflow, heavy = dense_reference_kernel(env, imm, K)
    assert np.abs(kernel.matrix - matrix).max() <= 1e-15
    assert np.abs(kernel.overflow - overflow).max() <= 1e-15
    assert kernel.heavy_truncated == heavy


def normalized_weights(n):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(lambda w: np.array(w) / sum(w))


@st.composite
def finite_laws(draw, max_value, max_atoms):
    values = draw(st.lists(st.integers(0, max_value), min_size=1, max_size=max_atoms, unique=True))
    return FiniteLaw(tuple(values), tuple(draw(normalized_weights(len(values)))))


@st.composite
def offspring_laws(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda ab: sum(ab) <= 5),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return BivariateOffspringLaw(tuple(zip(pairs, draw(normalized_weights(len(pairs))))))


@st.composite
def kernel_inputs(draw):
    """(env, imm, K) for the dense-reference comparisons; y1 may be heavy-tailed."""
    laws = draw(st.lists(offspring_laws(), min_size=1, max_size=3))
    mix = draw(normalized_weights(len(laws)))
    y0 = draw(finite_laws(max_value=12, max_atoms=6))
    y1 = draw(st.one_of(finite_laws(max_value=12, max_atoms=6), st.just(HeavyTailLaw())))
    env = EnvironmentLaw(tuple(zip(laws, mix)))
    imm = ImmigrationPair(y0, y1, require_contamination_condition=False)
    return env, imm, draw(st.integers(8, 48))


def dense_excursion(matrix, overflow, cap):
    """Expected return time and visits from a plain ``w @ Q`` taboo loop."""
    Q = matrix[1:, 1:]
    w, esc = matrix[0, 1:].copy(), float(overflow[0])
    visits = np.zeros(len(matrix))
    visits[0] = 1.0
    expected, steps = 1.0, 0
    while steps < cap and w.sum() > 1e-17:
        expected += w.sum() + esc
        visits[1:] += w
        esc += float(w @ overflow[1:])
        w = w @ Q
        steps += 1
    return expected, visits, steps


class TestBuildKernel:
    def test_toy_chain_rows(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        assert kernel.matrix[0] == pytest.approx([0.5, 0.5, 0.0, 0.0])
        for x in (1, 2, 3):
            assert kernel.matrix[x] == pytest.approx([1.0, 0.0, 0.0, 0.0])
        assert kernel.overflow == pytest.approx(np.zeros(4))

    def test_zero_immigration_dying_env(self):
        kernel = build_kernel(dying_env(), ImmigrationPair.zero(), 4)
        for x in range(5):
            assert kernel.matrix[x] == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0])

    def test_one_parasite_row_is_binomial(self):
        # critical mean: top rows overflow any truncation, so lift the budget
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        kernel = build_kernel(env, ImmigrationPair.zero(), 8, overflow_budget=None)
        assert kernel.matrix[1, :3] == pytest.approx([0.25, 0.5, 0.25])
        assert kernel.matrix[1, 3:] == pytest.approx(np.zeros(6))

    def test_row_zero_is_state_zero_immigration_law(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 64)
        expected, _ = imm.y0.pmf_array(65)
        assert kernel.matrix[0] == pytest.approx(expected)

    def test_mass_defect_small(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 64)
        assert kernel.row_mass_defect() < 1e-10

    def test_truncation_budget_enforced(self):
        env, imm = geometric_set()
        with pytest.raises(TruncationTooSmall):
            build_kernel(env, imm, 4)

    def test_heavy_tail_is_flagged_not_rejected(self):
        env = subcritical_env()
        imm = ImmigrationPair(FiniteLaw.bernoulli(0.5), HeavyTailLaw())
        kernel = build_kernel(env, imm, 64)
        assert kernel.heavy_truncated
        assert kernel.overflow.max() > 1e-3

    @given(kernel_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, inputs):
        assert_matches_reference(*inputs)

    @pytest.mark.parametrize(
        "env, imm, K",
        [
            (*heavy_tail_contaminated(), 300),
            # every FFT block of heavy-tail rows full, none partial
            (*heavy_tail_contaminated(), 10 * _FFT_BLOCK),
            (build_binomial_split(FiniteLaw.delta(4), uniform_grid_p(64)),
             ImmigrationPair.zero(), 96),
        ],
        ids=["heavy-tail", "heavy-tail-full-blocks", "uniform-grid"],
    )
    def test_matches_dense_reference_at_presets(self, env, imm, K):
        assert_matches_reference(env, imm, K)

    def test_negative_truncation_rejected(self):
        env, imm = toy_chain()
        with pytest.raises(ValueError, match="nonnegative") as info:
            build_kernel(env, imm, -1)
        assert not isinstance(info.value, TruncationTooSmall)

    def test_marginal_support_up_to_truncation(self):
        K = 16
        env = build_cluster_split(FiniteLaw.delta(K), [(0.5, 1.0)])
        kernel = build_kernel(env, ImmigrationPair.zero(), K, overflow_budget=None)
        assert kernel.matrix[1, [0, K]] == pytest.approx([0.5, 0.5])
        assert kernel.overflow[2] == pytest.approx(0.25)
        with pytest.raises(TruncationTooSmall):
            build_kernel(
                build_cluster_split(FiniteLaw.delta(K + 1), [(0.5, 1.0)]),
                ImmigrationPair.zero(),
                K,
                overflow_budget=None,
            )


class TestTrimmedSteps:
    """Every iterating oracle against a plain dense ``v @ M`` loop on the same kernel."""

    @given(kernel_inputs(), st.integers(0, 8), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_iteration(self, inputs, k0, n):
        kernel = build_kernel(*inputs, overflow_budget=None)
        M, ov = kernel.matrix, kernel.overflow

        v, mass_out = np.eye(len(M))[k0], 0.0
        u = [1.0]
        e0 = np.eye(len(M))[0]
        for _ in range(n):
            mass_out += float(v @ ov)
            v = v @ M
            e0 = e0 @ M
            u.append(e0[0])
        result = propagate(kernel, k0, n)
        assert np.abs(result.probs - v).max() <= 1e-15
        assert abs(result.overflow - mass_out) <= 1e-15
        assert np.abs(renewal_sequence(kernel, n) - u).max() <= 1e-15

        w, esc = M[k0, 1:].copy(), float(ov[k0])
        tail = []
        for _ in range(n):
            tail.append(w.sum() + esc)
            esc += float(w @ ov[1:])
            w = w @ M[1:, 1:]
        assert np.abs(hitting_tail(kernel, k0, n) - tail).max(initial=0.0) <= 1e-15

        cap = 500
        expected, visits, steps = dense_excursion(M, ov, cap)
        limit = renewal_limit(kernel, cap=cap, tail_tol=math.inf)
        assert limit.steps == steps
        assert abs(limit.expected_return_time - expected) <= 1e-15 * expected

        p = np.full(len(M), 1.0 / len(M))
        for its in range(1, 301):
            nxt = p @ M
            nxt /= nxt.sum()
            diff = float(np.abs(nxt - p).sum())
            p = nxt
            if diff < 1e-12:
                break
        else:
            with pytest.raises(NonConvergent):
                stationary_solve(kernel, max_iterations=300, excursion_cap=cap)
            return
        result = stationary_solve(kernel, max_iterations=300, excursion_cap=cap)
        assert result.iterations == its
        assert np.abs(result.pmf - p).max() <= 1e-15
        assert np.abs(result.excursion - visits / visits.sum()).max() <= 1e-15


class TestNegativeHorizon:
    @pytest.mark.parametrize(
        "call",
        [
            lambda kernel: propagate(kernel, 0, -3),
            lambda kernel: renewal_sequence(kernel, -1),
            lambda kernel: hitting_tail(kernel, 0, -1),
        ],
        ids=["propagate", "renewal_sequence", "hitting_tail"],
    )
    def test_rejected(self, call):
        kernel = build_kernel(*toy_chain(), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            call(kernel)


class TestExcursionCap:
    @pytest.mark.parametrize(
        "call",
        [
            lambda kernel: renewal_limit(kernel, cap=0),
            lambda kernel: stationary_solve(kernel, excursion_cap=0),
        ],
        ids=["renewal_limit", "stationary_solve"],
    )
    def test_cap_below_one_rejected(self, call):
        kernel = build_kernel(*toy_chain(), 16)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            call(kernel)


class TestExcursionMemo:
    """The taboo excursion is shared per kernel and cap, never across caps."""

    def test_stationary_after_capped_renewal_matches_fresh(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 128)
        with pytest.raises(NonConvergent):
            renewal_limit(kernel, cap=3)
        reused = stationary_solve(kernel)
        fresh = stationary_solve(build_kernel(env, imm, 128))
        assert np.array_equal(reused.excursion, fresh.excursion)
        assert np.array_equal(reused.pmf, fresh.pmf)
        assert reused.escape_rate == fresh.escape_rate

    def test_renewal_after_capped_stationary_matches_fresh(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 128)
        stationary_solve(kernel, excursion_cap=3)
        assert renewal_limit(kernel) == renewal_limit(build_kernel(env, imm, 128))

    @pytest.mark.parametrize("make", [geometric_set, heavy_tail_contaminated])
    def test_renewal_after_stationary_matches_fresh(self, make):
        env, imm = make()
        kernel = build_kernel(env, imm, 128)
        stationary_solve(kernel)
        try:
            fresh = renewal_limit(build_kernel(env, imm, 128))
        except NonConvergent as exc:
            with pytest.raises(NonConvergent) as info:
                renewal_limit(kernel)
            assert str(info.value) == str(exc)
        else:
            assert renewal_limit(kernel) == fresh


class TestPropagate:
    def test_zero_steps_is_point_mass(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        result = propagate(kernel, 2, 0)
        assert result.probs == pytest.approx([0.0, 0.0, 1.0, 0.0])

    def test_toy_chain_two_steps(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        result = propagate(kernel, 0, 2)
        assert result.probs[0] == pytest.approx(0.75)
        assert result.probs[1] == pytest.approx(0.25)

    def test_halving_survival_without_immigration(self):
        kernel = build_kernel(subcritical_env(), ImmigrationPair.zero(), 16)
        for n in (1, 5, 10, 20):
            result = propagate(kernel, 1, n)
            assert 1.0 - result.probs[0] == pytest.approx(2.0**-n, abs=1e-12)

    def test_mass_conserved_along_the_way(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 64)
        for n in (1, 7, 30):
            result = propagate(kernel, 3, n)
            assert result.probs.sum() + result.overflow == pytest.approx(1.0, abs=1e-10)


class TestRenewal:
    def test_toy_chain_limit(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        limit = renewal_limit(kernel)
        assert limit.expected_return_time == pytest.approx(1.5, abs=1e-12)
        assert limit.u_infinity == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_sequence_reaches_limit(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        u = renewal_sequence(kernel, 400)
        assert u[0] == 1.0
        assert u[1] == pytest.approx(0.5)
        assert abs(u[400] - 2.0 / 3.0) < 1e-12

    def test_never_leaving_zero(self):
        kernel = build_kernel(dying_env(), ImmigrationPair.zero(), 3)
        u = renewal_sequence(kernel, 10)
        assert u == pytest.approx(np.ones(11))
        assert renewal_limit(kernel).u_infinity == pytest.approx(1.0)

    def test_escape_fails_loudly(self):
        env = subcritical_env()
        imm = ImmigrationPair(HeavyTailLaw(), FiniteLaw.delta(0))
        kernel = build_kernel(env, imm, 64)
        with pytest.raises(NonConvergent):
            renewal_limit(kernel)


class TestHittingTail:
    def test_toy_chain_from_zero(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        tail = hitting_tail(kernel, 0, 5)
        assert tail == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.0])

    def test_absorbed_at_zero(self):
        kernel = build_kernel(dying_env(), ImmigrationPair.zero(), 3)
        assert hitting_tail(kernel, 0, 6) == pytest.approx(np.zeros(6))

    def test_geometric_tail_ratio_converges(self):
        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 256)
        tail = hitting_tail(kernel, 0, 100)
        ratios = tail[1:] / tail[:-1]
        last = ratios[-20:]
        assert last.max() - last.min() < 1e-9
        assert last[-1] < 0.99


class TestStationary:
    def test_toy_chain_distribution(self):
        env, imm = toy_chain()
        kernel = build_kernel(env, imm, 3)
        result = stationary_solve(kernel)
        assert result.pmf[:2] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-11)

    def test_absorbing_zero(self):
        kernel = build_kernel(dying_env(), ImmigrationPair.zero(), 3)
        result = stationary_solve(kernel)
        assert result.pmf[0] == pytest.approx(1.0, abs=1e-11)

    def test_two_routes_agree(self):
        for env, imm in (toy_chain(), geometric_set()):
            kernel = build_kernel(env, imm, 128)
            result = stationary_solve(kernel)
            tv = 0.5 * np.abs(result.pmf - result.excursion).sum()
            assert tv < 1e-9

    def test_iteration_budget_enforced(self):
        from cellbranch.oracle import NonConvergent

        env, imm = geometric_set()
        kernel = build_kernel(env, imm, 64)
        with pytest.raises(NonConvergent):
            stationary_solve(kernel, max_iterations=2)

    def test_escape_rate_weights_every_state_once(self):
        # the immigration-free state 0 escapes too, but only by its stationary weight
        imm = ImmigrationPair(HeavyTailLaw(), FiniteLaw.delta(0))
        kernel = build_kernel(split_environment(1), imm, 64)
        result = stationary_solve(kernel)
        assert kernel.overflow[0] > 0.05
        assert result.escape_rate == pytest.approx(result.pmf @ kernel.overflow, abs=1e-15)
        assert result.escape_rate < 0.03

    @pytest.mark.filterwarnings("error")
    def test_all_mass_escaping_fails_at_once(self, deadline):
        env = build_cluster_split(FiniteLaw.delta(5), [(0.5, 1.0)])
        imm = ImmigrationPair(
            FiniteLaw.delta(9), FiniteLaw.delta(9), require_contamination_condition=False
        )
        kernel = build_kernel(env, imm, 8, overflow_budget=None)
        assert kernel.matrix.sum() == 0.0
        with deadline(2.0), pytest.raises(NonConvergent, match="escapes above K=8"):
            stationary_solve(kernel)


class TestSurvival:
    def test_subcritical_thinning(self):
        survival = survival_no_immigration(subcritical_env(), 1, 30)
        assert survival.lower is survival.upper
        for n in (0, 1, 4, 10, 30):
            assert survival.upper[n] == pytest.approx(2.0**-n, abs=1e-13)

    def test_multiple_starters_share_environment(self):
        env = subcritical_env()
        # with an effectively deterministic environment, starters thin independently
        assert survival_no_immigration(env, 3, 5).upper[5] == pytest.approx(
            1.0 - (1.0 - 2.0**-5) ** 3, abs=1e-12
        )

    def test_supercritical_limit_is_fixed_point(self):
        env = build_binomial_split(FiniteLaw.delta(3), [(0.5, 1.0)])
        q = 0.0
        for _ in range(10_000):
            q = (0.5 + 0.5 * q) ** 3
        assert survival_no_immigration(env, 1, 4000).upper[-1] == pytest.approx(1.0 - q, abs=1e-9)

    def test_critical_survival_matches_direct_iteration(self):
        env = build_binomial_split(FiniteLaw.delta(2), [(0.5, 1.0)])
        s = 0.0
        for _ in range(256):
            s = (0.5 + 0.5 * s) ** 2
        assert survival_no_immigration(env, 1, 256).upper[-1] == pytest.approx(1.0 - s, abs=1e-13)

    def test_bracket_is_exact_without_escape(self):
        # A brood of one never leaves 0..k0: each line survives a step with
        # the realized Bernoulli mean q, so given the environment survival is
        # 1 - (1 - prod q)^k0.  Enumerate the multisets of the 10 realized q.
        env = build_binomial_split(FiniteLaw.delta(1), [(0.3, 0.5), (0.8, 0.5)])
        qs = (0.2, 0.3, 0.7, 0.8)
        exact = 0.0
        for combo in itertools.combinations_with_replacement(qs, 10):
            ways = math.factorial(10) / math.prod(math.factorial(combo.count(q)) for q in qs)
            exact += ways / 4**10 * (1.0 - (1.0 - math.prod(combo)) ** 2)
        survival = survival_no_immigration(env, 2, 10)
        assert survival.lower[10] == pytest.approx(survival.upper[10], abs=1e-15)
        assert survival.upper[10] == pytest.approx(exact, abs=1e-14)
        assert exact == pytest.approx(0.0019435065401180, abs=1e-15)

    def test_brackets_nest_as_truncation_grows(self):
        env = build_binomial_split(FiniteLaw.delta(4), uniform_grid_p(64))
        brackets = [survival_no_immigration(env, 1, 40, K=K) for K in (64, 128, 512)]
        for coarse, fine in zip(brackets, brackets[1:]):
            assert (coarse.lower <= fine.lower + 1e-12).all()
            assert (fine.upper <= coarse.upper + 1e-12).all()
        assert (brackets[-1].lower <= brackets[-1].upper).all()
        assert brackets[0].lower[40] == pytest.approx(0.377, abs=5e-4)
        assert brackets[0].upper[40] == pytest.approx(0.548, abs=5e-4)
        assert brackets[-1].lower[40] == pytest.approx(0.494, abs=5e-4)
        assert brackets[-1].upper[40] == pytest.approx(0.531, abs=5e-4)

    def test_upper_end_counts_escaped_mass_as_surviving(self):
        env = build_binomial_split(FiniteLaw.delta(4), uniform_grid_p(64))
        kernel = build_kernel(env, ImmigrationPair.zero(), 512, overflow_budget=None)
        upper = survival_no_immigration(env, 1, 40).upper[40]
        assert upper == pytest.approx(1.0 - propagate(kernel, 1, 40).probs[0], abs=1e-12)

    @pytest.mark.parametrize(
        "env", [subcritical_env(), build_binomial_split(FiniteLaw.delta(2), uniform_grid_p(4))],
        ids=["one-marginal", "several-marginals"],
    )
    def test_bad_arguments_rejected(self, env):
        with pytest.raises(ValueError, match="horizon"):
            survival_no_immigration(env, 1, -1)
        with pytest.raises(ValueError, match="start state"):
            survival_no_immigration(env, 9, 5, K=8)

    def test_uniform_grid_subcritical_decay(self):
        env = build_binomial_split(FiniteLaw.delta(2), uniform_grid_p(64))
        assert survival_no_immigration(env, 1, 40).upper[40] < 0.05
