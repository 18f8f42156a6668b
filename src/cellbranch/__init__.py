"""Branching processes in random environment with state-dependent immigration,
and the binary-tree cell contamination model built on them.

The package has three layers: law objects (offspring mechanisms, environment
mixtures, contamination pairs), Monte Carlo simulators for the random cell
line and the full division tree, and exact truncated-kernel oracles that the
simulators are validated against.
"""

from .laws import (
    BivariateOffspringLaw,
    DegenerateMarginal,
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    InvalidContamination,
    Regime,
    RegimeReport,
    binomial_recovery_criterion,
    build_binomial_split,
    build_cluster_split,
    classify_regime,
    expected_log_inverse_p,
    uniform_grid_p,
)
from .lineage import (
    ExcursionCapExceeded,
    HittingSummary,
    LineageTrajectory,
    RegenerationEstimate,
    collect_hitting_times,
    hitting_time,
    normalized_process,
    simulate_normalized_batch,
    simulate_path,
    simulate_states_batch,
    stationary_by_regeneration,
    step,
)
from .oracle import (
    NonConvergent,
    PmfVector,
    RenewalLimit,
    StationaryResult,
    TruncatedKernel,
    TruncationTooSmall,
    build_kernel,
    hitting_tail,
    propagate,
    renewal_limit,
    renewal_sequence,
    stationary_solve,
    survival_no_immigration,
)
from .stats import (
    EmpiricalMeasure,
    EmptySeries,
    StabilizationReport,
    proportion_ci,
    sqrtn_stabilization,
    tv_distance,
)
from .tree import (
    DepthTooLarge,
    GenerationLedger,
    GrowthFit,
    PrefixLedger,
    advance_generation,
    growth_exponent,
    infected_fraction_series,
    iter_forest_bfs,
    prefix_ledgers,
    simulate_parasite_totals,
    simulate_tree_bfs,
    simulate_tree_dfs,
    total_parasites_series,
)

__version__ = "0.1.0"
