"""Named toy parameter sets shared by the verification suites and demos.

Each preset returns a fresh (environment, immigration) pair.  The sets are
deliberately small enough for exact kernel and enumeration oracles.
"""

from __future__ import annotations

from .laws import (
    BivariateOffspringLaw,
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    build_binomial_split,
)


def dying_environment() -> EnvironmentLaw:
    """All offspring die: the chain is driven by contamination alone."""
    return EnvironmentLaw(((BivariateOffspringLaw.delta(0, 0), 1.0),))


def split_environment(brood: int, p: float = 0.5) -> EnvironmentLaw:
    """Deterministic brood of the given size, binomially split between daughters."""
    return build_binomial_split(FiniteLaw.delta(brood), [(p, 1.0)])


def toy_chain() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Two-state chain: offspring die, empty cells get a fair coin of parasites."""
    return dying_environment(), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def subcritical_binomial() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Single surviving child per parasite, contamination only when empty."""
    return split_environment(1), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.delta(0))


def subcritical_geometric() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Subcritical offspring with truncated-geometric contamination in every state."""
    g = FiniteLaw.geometric_truncated(0.5, 20)
    return split_environment(1), ImmigrationPair(g, g)


def critical_contaminated() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Critical reproduction with fair-coin contamination everywhere."""
    return split_environment(2), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))


def supercritical_contaminated() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Supercritical reproduction with fair-coin contamination everywhere."""
    return split_environment(4), ImmigrationPair(FiniteLaw.bernoulli(0.5), FiniteLaw.bernoulli(0.5))


def heavy_tail_contaminated() -> tuple[EnvironmentLaw, ImmigrationPair]:
    """Subcritical reproduction with divergent-log contamination of infected cells."""
    return split_environment(1), ImmigrationPair(FiniteLaw.bernoulli(0.5), HeavyTailLaw())


PRESETS = {
    "toy-chain": toy_chain,
    "subcritical-binomial": subcritical_binomial,
    "subcritical-geometric": subcritical_geometric,
    "critical-contaminated": critical_contaminated,
    "supercritical-contaminated": supercritical_contaminated,
    "heavy-tail": heavy_tail_contaminated,
}
