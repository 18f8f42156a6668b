"""Comparator checks: total variation, Wilson intervals, sqrt(n) stabilization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellbranch.oracle import PmfVector
from cellbranch.stats import (
    EmpiricalMeasure,
    EmptySeries,
    proportion_ci,
    sqrtn_stabilization,
    tv_distance,
)


class TestTvDistance:
    def test_identical_measures(self):
        m = EmpiricalMeasure.from_samples([0, 0, 1, 2])
        assert tv_distance(m, m) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0

    def test_quarter_versus_third(self):
        p = {0: 0.75, 1: 0.25}
        q = {0: 2.0 / 3.0, 1: 1.0 / 3.0}
        assert tv_distance(p, q) == pytest.approx(1.0 / 12.0)

    def test_overflow_counts_as_outcome(self):
        p = PmfVector(probs=np.array([0.9, 0.0]), overflow=0.1)
        q = PmfVector(probs=np.array([0.9, 0.1]), overflow=0.0)
        assert tv_distance(p, q) == pytest.approx(0.1)

    def test_accepts_mixed_representations(self):
        m = EmpiricalMeasure.from_samples([0, 1, 1, 1])
        v = PmfVector(probs=np.array([0.25, 0.75]))
        assert tv_distance(m, v) == pytest.approx(0.0)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, a, b, c):
        size = max(len(a), len(b), len(c))
        dists = []
        for raw in (a, b, c):
            arr = np.zeros(size)
            arr[: len(raw)] = raw
            dists.append({k: v / arr.sum() for k, v in enumerate(arr)})
        p, q, r = dists
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
        assert 0.0 <= tv_distance(p, q) <= 1.0


class TestProportionCi:
    def test_zero_successes_contains_zero(self):
        lo, hi = proportion_ci(0, 50, 0.95)
        assert lo <= 0.0 <= hi

    def test_all_successes_contains_one(self):
        lo, hi = proportion_ci(50, 50, 0.95)
        assert lo <= 1.0 <= hi

    def test_half_in_one_thousand(self):
        lo, hi = proportion_ci(500, 1000, 0.95)
        assert lo == pytest.approx(0.469, abs=0.001)
        assert hi == pytest.approx(0.531, abs=0.001)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            proportion_ci(0, 0)


class TestSqrtnStabilization:
    def test_degenerate_input_is_all_zero(self):
        report = sqrtn_stabilization({8: [0.5] * 120, 16: [0.5] * 120}, 0.5)
        assert report.means == (0.0, 0.0)
        assert report.variances == (0.0, 0.0)
        assert report.mean_consistent_with_zero
        assert report.variance_stabilized

    def test_centered_noise_passes(self):
        rng = np.random.default_rng(42)
        samples = {
            n: 0.3 + rng.normal(0.0, 0.05 / math.sqrt(n), size=400) for n in (8, 12, 16)
        }
        report = sqrtn_stabilization(samples, 0.3)
        assert report.mean_consistent_with_zero
        assert report.variance_stabilized

    def test_unstable_variance_flagged(self):
        rng = np.random.default_rng(7)
        samples = {
            8: 0.3 + rng.normal(0.0, 0.001, size=200),
            16: 0.3 + rng.normal(0.0, 0.1, size=200),
        }
        report = sqrtn_stabilization(samples, 0.3)
        assert not report.variance_stabilized

    def test_requires_replicates(self):
        with pytest.raises(ValueError):
            sqrtn_stabilization({8: [0.5] * 10, 16: [0.5] * 10}, 0.5)


class TestEmpiricalMeasure:
    def test_frequencies_sum_to_one(self):
        m = EmpiricalMeasure.from_samples([0, 1, 1, 5])
        assert sum(m.as_dict().values()) == pytest.approx(1.0)
        assert m.frequency(1) == pytest.approx(0.5)

    def test_total_consistency_checked(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(counts={0: 2}, total=3)
