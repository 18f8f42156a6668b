"""Empirical measures and the statistical comparators used by the test suites.

Total variation is the comparison metric throughout (half the l1 distance, so
thresholds stated for l1 norms translate by a factor of two).  Everything in
this module is a deterministic function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .oracle import OVERFLOW_STATE, PmfVector


class EmptySeries(ValueError):
    """No usable points remain for a fit."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Counts of observed values with lazily computed frequencies."""

    counts: Mapping[int, int]
    total: int

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total must equal the sum of counts")
        if self.total <= 0:
            raise ValueError("empirical measure needs at least one observation")

    @classmethod
    def from_samples(cls, samples: Sequence[int] | np.ndarray) -> "EmpiricalMeasure":
        values, counts = np.unique(np.asarray(samples, dtype=np.int64), return_counts=True)
        return cls(counts=dict(zip(values.tolist(), counts.tolist())), total=int(counts.sum()))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "EmpiricalMeasure":
        clean = {int(k): int(v) for k, v in counts.items() if v > 0}
        return cls(counts=clean, total=sum(clean.values()))

    def frequency(self, value: int) -> float:
        return self.counts.get(value, 0) / self.total

    def as_dict(self) -> dict[int, float]:
        return {k: v / self.total for k, v in self.counts.items()}


Distribution = Union[EmpiricalMeasure, PmfVector, Mapping[int, float], np.ndarray]


def _as_dict(dist: Distribution) -> dict[int, float]:
    if isinstance(dist, (EmpiricalMeasure, PmfVector)):
        return dist.as_dict()
    if isinstance(dist, np.ndarray):
        return {k: float(p) for k, p in enumerate(dist) if p != 0.0}
    return {int(k): float(v) for k, v in dist.items()}


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance between two normalized measures on counts.

    Escaped truncation mass (the overflow slot of a PmfVector) is compared as
    an outcome of its own.
    """
    dp, dq = _as_dict(p), _as_dict(q)
    keys = set(dp) | set(dq)
    return 0.5 * sum(abs(dp.get(k, 0.0) - dq.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class StabilizationReport:
    """Behavior of sqrt(n)-rescaled deviations of a proportion estimate.

    For each n the report carries the mean and variance of
    sqrt(n) * (observed - limit) across replicates, the confidence interval
    for the mean, and a flag saying whether the variance has stopped moving
    (ratio between the two largest n within [1/2, 2]).
    """

    ns: tuple[int, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    mean_cis: tuple[tuple[float, float], ...]
    mean_consistent_with_zero: bool
    variance_ratio: float
    variance_stabilized: bool


def sqrtn_stabilization(
    samples_by_n: Mapping[int, Iterable[float]],
    limit_value: float,
    level: float = 0.99,
) -> StabilizationReport:
    """Check distributional stabilization of sqrt(n)-rescaled proportions."""
    ns = tuple(sorted(samples_by_n))
    if len(ns) < 2:
        raise ValueError("need at least two population sizes to compare")
    means, variances, cis = [], [], []
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    for n in ns:
        arr = np.asarray(list(samples_by_n[n]), dtype=float)
        if len(arr) < 100:
            raise ValueError(f"need at least 100 replicates per n, got {len(arr)} at n={n}")
        rescaled = math.sqrt(n) * (arr - limit_value)
        mu = float(rescaled.mean())
        var = float(rescaled.var(ddof=1))
        half = z * math.sqrt(var / len(arr))
        means.append(mu)
        variances.append(var)
        cis.append((mu - half, mu + half))
    ratio = variances[-1] / variances[-2] if variances[-2] > 0 else math.inf
    if all(v == 0.0 for v in variances):
        ratio = 1.0  # degenerate input: nothing moves
    return StabilizationReport(
        ns=ns,
        means=tuple(means),
        variances=tuple(variances),
        mean_cis=tuple(cis),
        mean_consistent_with_zero=all(lo <= 0.0 <= hi for lo, hi in cis),
        variance_ratio=ratio,
        variance_stabilized=0.5 <= ratio <= 2.0,
    )


__all__ = [
    "EmpiricalMeasure",
    "EmptySeries",
    "OVERFLOW_STATE",
    "StabilizationReport",
    "sqrtn_stabilization",
    "tv_distance",
]
