"""Minimal piecewise deterministic Markov processes for growth-fragmentation.

Builds the minimal process from local characteristics (semiflow, jump rate,
fragmentation kernel), simulates it by Monte Carlo, evolves densities in
L1((0,inf), x dx) under the minimal substochastic semigroup, and classifies
the semigroup as stochastic (honest) or strongly stable.
"""

from .errors import (
    ConfigError,
    DomainError,
    DomainExit,
    InfiniteHolding,
    KernelDomain,
    ModelError,
    NoDensity,
    NonConvergent,
    NonIntegrableRate,
    NotADensity,
    NumericalError,
    OutOfRegime,
)
from .monotone import ClosedFormMap, MonotoneMap, TabulatedIntegralMap
from .characteristics import (
    CharacteristicsSpec,
    RateSpec,
    Regime,
    SemiflowSpec,
    build_characteristics,
    cumulative_rate,
    flow,
    inverse_cumulative_rate,
    post_flow_position,
)
from .kernels import (
    CustomKernel,
    HomogeneousKernel,
    JumpKernel,
    PowerLawKernel,
    SeparableKernel,
)
from .simulate import (
    Estimate,
    Trajectory,
    TrajectoryStatus,
    estimate_explosion_cdf,
    estimate_survival_mass,
    path_rng,
    run_chains,
    sample_state,
    simulate_chain,
)
from .density import (
    GridDensity,
    LogGrid,
    OperatorTrace,
    apply_B,
    apply_S,
    dyson_phillips,
    resolvent_A,
    resolvent_series,
)
from .oracles import (
    GrowthTauParams,
    TauOracle,
    exact_mass,
    explosion_cdf,
    mu0,
    sample_tau,
    tau_tail,
)
from .diagnose import (
    Classification,
    Verdict,
    classify,
    classify_power_family,
    dual_pairing,
    embedded_kernel,
    f_lambda_dual,
    f_lambda_grid,
    lyapunov_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "DomainExit", "InfiniteHolding",
    "KernelDomain", "ModelError", "NoDensity", "NonConvergent",
    "NonIntegrableRate", "NotADensity", "NumericalError", "OutOfRegime",
    "ClosedFormMap", "MonotoneMap", "TabulatedIntegralMap",
    "CharacteristicsSpec", "RateSpec", "Regime", "SemiflowSpec",
    "build_characteristics", "cumulative_rate", "flow",
    "inverse_cumulative_rate", "post_flow_position",
    "CustomKernel", "HomogeneousKernel", "JumpKernel", "PowerLawKernel",
    "SeparableKernel",
    "Estimate", "Trajectory", "TrajectoryStatus", "estimate_explosion_cdf",
    "estimate_survival_mass", "path_rng", "run_chains", "sample_state",
    "simulate_chain",
    "GridDensity", "LogGrid", "OperatorTrace", "apply_B", "apply_S",
    "dyson_phillips", "resolvent_A", "resolvent_series",
    "GrowthTauParams", "TauOracle", "exact_mass", "explosion_cdf", "mu0",
    "sample_tau", "tau_tail",
    "Classification", "Verdict", "classify", "classify_power_family",
    "dual_pairing", "embedded_kernel", "f_lambda_dual", "f_lambda_grid",
    "lyapunov_check",
]
