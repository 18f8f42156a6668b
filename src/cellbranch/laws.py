"""Offspring mechanisms, contamination laws, and regime classification.

A cell's parasites reproduce through a bivariate offspring law: each parasite
independently produces a pair (children sent to daughter cell 0, children sent
to daughter cell 1).  The law itself is drawn fresh for every cell from a
finite mixture (the random environment).  Contamination from outside arrives
as an immigration pair: one law for parasite-free cells, one for infected
cells.

Everything here is finite-support (except the designated heavy-tail
immigration family) so that downstream kernels and enumeration oracles can be
exact.  All law objects are immutable after construction and safe to share
across workers; sampling always takes an externally supplied generator.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from ._sampling import BATCH_STATE_CAP

NORMALIZATION_TOL = 1e-12
CRITICAL_TOL = 1e-12

# Heavy-tail head table covers 1..HEAVY_HEAD; the tail CDF beyond is analytic.
HEAVY_HEAD = 65536


class DegenerateMarginal(ValueError):
    """A marginal mean is zero where a positive mean is required."""


class InvalidContamination(ValueError):
    """Immigration pair violates the contamination admissibility condition."""


def _check_probs(probs: np.ndarray, what: str) -> np.ndarray:
    if not np.all((probs >= -1e-15) & (probs <= 1 + 1e-15)):  # a NaN fails both
        raise ValueError(f"{what}: probabilities must lie in [0, 1]")
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{what}: probabilities sum to {total!r}, not 1")
    # Renormalize exactly once so downstream arithmetic can treat the law as exact.
    return np.clip(probs, 0.0, None) / total


@dataclass(frozen=True)
class FiniteLaw:
    """Finite-support probability law on nonnegative integer counts."""

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        vals = np.asarray(self.values)
        if len(vals) == 0:
            raise ValueError("finite law needs at least one atom")
        if np.any(vals < 0) or not np.issubdtype(vals.dtype, np.integer):
            raise ValueError("finite law values must be nonnegative integers")
        if len(set(self.values)) != len(self.values):
            raise ValueError("finite law values must be distinct")
        p = _check_probs(np.asarray(self.probs, dtype=float), "finite law")
        order = np.argsort(vals)
        object.__setattr__(self, "values", tuple(int(v) for v in vals[order]))
        object.__setattr__(self, "probs", tuple(float(x) for x in p[order]))
        object.__setattr__(self, "_vals_arr", np.asarray(self.values, dtype=np.int64))
        object.__setattr__(self, "_probs_arr", np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "_cum", np.cumsum(self._probs_arr))
        # draws saturate at the simulators' cap, as HeavyTailLaw's do; the law stays exact
        object.__setattr__(self, "_draws", np.minimum(self._vals_arr, BATCH_STATE_CAP))

    @classmethod
    def delta(cls, value: int) -> "FiniteLaw":
        return cls((value,), (1.0,))

    @classmethod
    def bernoulli(cls, p: float) -> "FiniteLaw":
        return cls((0, 1), (1.0 - p, p))

    @classmethod
    def geometric_truncated(cls, p: float, max_value: int) -> "FiniteLaw":
        """Geometric law P(k) proportional to (1-p)^k, truncated and renormalized."""
        w = np.array([p * (1.0 - p) ** k for k in range(max_value + 1)])
        w /= w.sum()
        return cls(tuple(range(max_value + 1)), tuple(w))

    @property
    def mean(self) -> float:
        return float(self._vals_arr @ self._probs_arr)

    @property
    def p_zero(self) -> float:
        return self.probs[0] if self.values[0] == 0 else 0.0

    @property
    def max_value(self) -> int:
        return self.values[-1]

    @property
    def log_plus_finite(self) -> bool:
        return True

    @property
    def is_zero(self) -> bool:
        return self.values == (0,)

    def pmf_array(self, size: int) -> tuple[np.ndarray, float]:
        """Dense pmf on 0..size-1 plus the mass falling beyond."""
        out = np.zeros(size)
        escaped = 0.0
        for v, p in zip(self.values, self.probs):
            if v < size:
                out[v] += p
            else:
                escaped += p
        return out, escaped

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return self._draws[np.minimum(idx, len(self.values) - 1)]


def _heavy_constants() -> tuple[float, float, np.ndarray]:
    """(normalizer c, total head+tail weight S, cumulative head weights H(1..HEAVY_HEAD))."""
    n = np.arange(1, HEAVY_HEAD + 1, dtype=float)
    terms = 1.0 / (n * (1.0 + np.log(n)) ** 2)
    head = np.cumsum(terms)
    # Midpoint-rule tail of sum_{n>HEAVY_HEAD} 1/(n (1+ln n)^2); the integrand's
    # curvature makes the correction O(1e-10), well under oracle tolerances.
    total = head[-1] + 1.0 / (1.0 + math.log(HEAVY_HEAD + 0.5))
    return 0.5 / total, total, head


_HEAVY_C, _HEAVY_TOTAL, _HEAVY_HEAD_CUM = _heavy_constants()


@dataclass(frozen=True)
class HeavyTailLaw:
    """Immigration family with P(Y=0)=1/2 and P(Y=n) = c / (n (1+log n)^2).

    The log-moment of this law diverges, which is exactly what the divergence
    experiments need.  Sampling inverts the CDF: an exact prefix table covers
    n <= 65536 and the analytic tail handles the rest.  Draws saturate at
    ``BATCH_STATE_CAP`` = 2^53, the simulators' one state cap.
    """

    @property
    def mean(self) -> float:
        return math.inf

    @property
    def p_zero(self) -> float:
        return 0.5

    @property
    def log_plus_finite(self) -> bool:
        return False

    @property
    def is_zero(self) -> bool:
        return False

    def pmf_array(self, size: int) -> tuple[np.ndarray, float]:
        out = np.zeros(size)
        out[0] = 0.5
        upto = min(size - 1, HEAVY_HEAD)
        if upto >= 1:
            n = np.arange(1, upto + 1, dtype=float)
            out[1 : upto + 1] = _HEAVY_C / (n * (1.0 + np.log(n)) ** 2)
        return out, float(1.0 - out.sum())

    def _invert_tail(self, t: float) -> int:
        # Smallest n with cumulative head weight H(n) >= t, for t beyond the table.
        rem = _HEAVY_TOTAL - t
        if rem <= 0:
            return BATCH_STATE_CAP
        expo = 1.0 / rem - 1.0
        if expo > 36.8:  # exp(36.8) > 2^53
            return BATCH_STATE_CAP
        return min(max(HEAVY_HEAD + 1, math.ceil(math.exp(expo) - 0.5)), BATCH_STATE_CAP)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = np.zeros(size, dtype=np.int64)
        pos = u >= 0.5
        t = (u[pos] - 0.5) / _HEAVY_C
        idx = np.searchsorted(_HEAVY_HEAD_CUM, t, side="left")
        vals = (idx + 1).astype(np.int64)
        beyond = idx >= len(_HEAVY_HEAD_CUM)
        if np.any(beyond):
            vals[beyond] = [self._invert_tail(ti) for ti in t[beyond]]
        out[pos] = vals
        return out


CountLaw = Union[FiniteLaw, HeavyTailLaw]


def _aggregate(values: np.ndarray, probs: np.ndarray) -> FiniteLaw:
    """The law of ``values`` drawn with ``probs``, repeated values merged.

    Probabilities are summed in order of first appearance, so every derived
    law (marginals, brood totals) rounds the same way.
    """
    acc: dict[int, float] = {}
    for v, p in zip(values.tolist(), probs.tolist()):
        acc[v] = acc.get(v, 0.0) + p
    return FiniteLaw(tuple(acc), tuple(acc.values()))


@dataclass(frozen=True)
class BivariateOffspringLaw:
    """Joint law of one parasite's offspring pair (to daughter 0, to daughter 1)."""

    support: tuple[tuple[tuple[int, int], float], ...]

    def __post_init__(self):
        pairs = [pq[0] for pq in self.support]
        if not pairs:
            raise ValueError("offspring law needs at least one support pair")
        if len(set(pairs)) != len(pairs):
            raise ValueError("offspring support pairs must be distinct")
        for j, k in pairs:
            if j < 0 or k < 0 or j != int(j) or k != int(k):
                raise ValueError("offspring counts must be nonnegative integers")
        probs = _check_probs(np.array([pq[1] for pq in self.support], dtype=float), "offspring law")
        support = tuple(((int(j), int(k)), float(p)) for (j, k), p in zip(pairs, probs))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_a", np.array([j for (j, _), _ in support], dtype=np.int64))
        object.__setattr__(self, "_b", np.array([k for (_, k), _ in support], dtype=np.int64))
        object.__setattr__(self, "_probs", probs)
        marginals = (_aggregate(self._a, probs), _aggregate(self._b, probs))
        object.__setattr__(self, "_marginals", marginals)

    @classmethod
    def delta(cls, j: int, k: int) -> "BivariateOffspringLaw":
        return cls((((j, k), 1.0),))

    @property
    def m0(self) -> float:
        return float(self._a @ self._probs)

    @property
    def m1(self) -> float:
        return float(self._b @ self._probs)

    def marginal(self, side: int) -> FiniteLaw:
        return self._marginals[side]

    def total_law(self) -> FiniteLaw:
        """Law of the parasite's total number of children (both daughters)."""
        return _aggregate(self._a + self._b, self._probs)


@dataclass(frozen=True)
class EnvironmentLaw:
    """Finite mixture of bivariate offspring laws: the random environment.

    ``_atoms`` is the pair table the simulators draw from: ``values``, an
    (A, 2) int64 array of every component's (a, b) pairs in order of first
    appearance, and ``probs``, a (C, A) array of each component's
    probability on them (0 off its support).  ``_split`` is the ``split``
    argument, which only ``build_binomial_split`` passes and a replaced copy
    drops: (Z law, array of each component's p), each of a parasite's Z
    children going to daughter 0 with probability p; the simulators draw it
    so while x times the largest Z fits int64.  ``_brood`` is (z, p) when v
    parasites split as Bin(vz, p): (0, 0.5) if every pair is (0, 0), else a
    one-component split of a one-atom Z with 0 < p < 1; or None.
    ``_means`` holds each component's (m0, m1).
    """

    components: tuple[tuple[BivariateOffspringLaw, float], ...]
    split: InitVar[tuple[FiniteLaw, np.ndarray] | None] = None

    def __post_init__(self, split):
        if not self.components:
            raise ValueError("environment needs at least one component")
        weights = _check_probs(
            np.array([w for _, w in self.components], dtype=float), "environment weights"
        )
        comps = tuple((law, float(w)) for (law, _), w in zip(self.components, weights))
        index: dict[tuple[int, int], int] = {}
        for law, _ in comps:
            for pair, _ in law.support:
                index.setdefault(pair, len(index))
        probs = np.zeros((len(comps), len(index)))
        for row, (law, _) in zip(probs, comps):
            row[[index[pair] for pair, _ in law.support]] = law._probs
        values = np.array(list(index), dtype=np.int64)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_cum", np.cumsum(weights))
        object.__setattr__(self, "_atoms", (values, probs))
        object.__setattr__(self, "_split", split)
        z, ps = split or (None, ())
        one = len(ps) == 1 and len(z.values) == 1 and 0 < ps[0] < 1
        brood = (0, 0.5) if not values.any() else (z.values[0], float(ps[0])) if one else None
        object.__setattr__(self, "_brood", brood)
        object.__setattr__(self, "_means", np.array([(law.m0, law.m1) for law, _ in comps]))

    @property
    def laws(self) -> tuple[BivariateOffspringLaw, ...]:
        return tuple(law for law, _ in self.components)

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Component of each of ``size`` cells; one component draws nothing."""
        if len(self.components) == 1:
            return np.zeros(size, dtype=np.intp)
        return np.minimum(
            np.searchsorted(self._cum, rng.random(size), side="right"), len(self.components) - 1
        )

    def mixed_log_mean(self) -> float:
        """E[log f'(1)] under the half/half daughter-side mixture of marginals."""
        total = 0.0
        for law, w in self.components:
            m0, m1 = law.m0, law.m1
            if m0 <= 0.0 or m1 <= 0.0:
                raise DegenerateMarginal(
                    f"component marginal means ({m0}, {m1}) must be positive for a log mean"
                )
            total += w * 0.5 * (math.log(m0) + math.log(m1))
        return total

    def realized_marginals(self) -> list[tuple[FiniteLaw, float]]:
        """All single-step reproduction laws of the random cell line.

        Each environment component contributes its two daughter-side marginals
        with half the component weight; identical marginals are merged.
        """
        acc: dict[FiniteLaw, float] = {}
        for law, w in self.components:
            for side in (0, 1):
                marg = law.marginal(side)
                acc[marg] = acc.get(marg, 0.0) + 0.5 * w
        return list(acc.items())


def build_binomial_split(
    z_law: FiniteLaw, p_values: Sequence[tuple[float, float]]
) -> EnvironmentLaw:
    """Environment where each of a parasite's Z children independently picks daughter 0.

    For each split parameter p, the component law is
    P(X0=a, X1=b) = P(Z=a+b) * C(a+b, a) * p^a * (1-p)^b, computed exactly;
    the environment records (Z, the p values) as its ``_split``.
    """
    comps = []
    for p, w in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"split probability {p} outside [0, 1]")
        support = []
        for z, pz in zip(z_law.values, z_law.probs):
            comb = 1  # C(z, a), carried exactly from one atom to the next
            for a in range(z + 1):
                try:
                    prob = pz * comb * p**a * (1.0 - p) ** (z - a)
                except OverflowError:
                    # C(z, a) is past float range (broods above ~1030), so 0 < a < z.
                    # The log of the exact integer keeps the mass within ~2e-13 of 1;
                    # lgamma drifts past the 1e-12 tolerance by brood 5000.
                    prob = 0.0 if p in (0.0, 1.0) else pz * math.exp(
                        math.log(comb) + a * math.log(p) + (z - a) * math.log1p(-p)
                    )
                support.append(((a, z - a), prob))
                comb = comb * (z - a) // (a + 1)
        comps.append((BivariateOffspringLaw(tuple(support)), w))
    return EnvironmentLaw(tuple(comps), split=(z_law, np.array([float(p) for p, _ in p_values])))


def build_cluster_split(
    z_law: FiniteLaw, p_values: Sequence[tuple[float, float]]
) -> EnvironmentLaw:
    """Environment where each parasite's whole brood goes to one daughter.

    For each split parameter p the offspring pair is (Z, 0) with probability p
    and (0, Z) with probability 1-p.
    """
    comps = []
    for p, w in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"split probability {p} outside [0, 1]")
        acc: dict[tuple[int, int], float] = {}
        for z, pz in zip(z_law.values, z_law.probs):
            acc[(z, 0)] = acc.get((z, 0), 0.0) + pz * p
            acc[(0, z)] = acc.get((0, z), 0.0) + pz * (1.0 - p)
        support = tuple((pair, q) for pair, q in acc.items() if q > 0.0)
        comps.append((BivariateOffspringLaw(support), w))
    return EnvironmentLaw(tuple(comps))


def uniform_grid_p(n_atoms: int) -> list[tuple[float, float]]:
    """Midpoint discretization of a uniform split parameter on (0, 1)."""
    return [((j - 0.5) / n_atoms, 1.0 / n_atoms) for j in range(1, n_atoms + 1)]


def expected_log_inverse_p(p_values: Sequence[tuple[float, float]]) -> float:
    """E[log(1/P)] for a finite law of split parameters."""
    return sum(-w * math.log(p) for p, w in p_values)


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class RegimeReport:
    log_mean: float
    regime: Regime
    log_immigration_finite: tuple[bool, bool]


@dataclass(frozen=True)
class ImmigrationPair:
    """Contamination laws: y0 feeds parasite-free cells, y1 feeds infected cells.

    Admissible pairs either satisfy the contamination condition
    0 < P(Y0 = 0) < 1 and P(Y1 = 0) > 0, or are the zero pair (no
    contamination at all).  ``require_contamination_condition=False`` opts out
    for plain immigration experiments that never revisit the empty state.
    """

    y0: CountLaw
    y1: CountLaw
    require_contamination_condition: bool = True

    def __post_init__(self):
        if not self.require_contamination_condition:
            return
        if self.is_zero_pair:
            return
        p00 = self.y0.p_zero
        if not (0.0 < p00 < 1.0 and self.y1.p_zero > 0.0):
            raise InvalidContamination(
                "contamination needs 0 < P(Y0=0) < 1 and P(Y1=0) > 0, "
                "or the zero pair for contamination-free runs"
            )

    @classmethod
    def zero(cls) -> "ImmigrationPair":
        return cls(FiniteLaw.delta(0), FiniteLaw.delta(0))

    @classmethod
    def state_independent(cls, y: CountLaw) -> "ImmigrationPair":
        """Same immigration in every state; admissibility is not enforced."""
        return cls(y, y, require_contamination_condition=False)

    @property
    def is_zero_pair(self) -> bool:
        return self.y0.is_zero and self.y1.is_zero


def classify_regime(env: EnvironmentLaw, imm: ImmigrationPair) -> RegimeReport:
    """Criticality of the random cell line plus immigration log-moment flags."""
    lm = env.mixed_log_mean()
    if abs(lm) <= CRITICAL_TOL:
        regime = Regime.CRITICAL
    elif lm < 0:
        regime = Regime.SUBCRITICAL
    else:
        regime = Regime.SUPERCRITICAL
    return RegimeReport(
        log_mean=lm,
        regime=regime,
        log_immigration_finite=(imm.y0.log_plus_finite, imm.y1.log_plus_finite),
    )


def binomial_recovery_criterion(mean_z: float, e_log_inv_p: float) -> bool:
    """Whether infected-cell fractions vanish under a binomial repartition.

    True iff log E(Z) <= E(log(1/P)); the boundary case counts as recovery.
    """
    if mean_z <= 0:
        raise ValueError("mean_z must be positive")
    return math.log(mean_z) <= e_log_inv_p
