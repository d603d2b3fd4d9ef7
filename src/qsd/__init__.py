"""Skew-divergence calculus for finite-dimensional quantum states.

Dense Hermitian linear algebra, entropies and divergences (including the
normalized skew divergence), derivatives of the operator logarithm with the
monotone metric they induce, ensemble analysis (Holevo information, mixing
dynamics), and a randomized verification harness exposed through the ``qsd``
command-line tool.
"""

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigendecompositionError,
    FormatError,
    QsdError,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    SupportProjection,
    eigendecompose,
    operator_norm,
    random_cptp,
    random_hamiltonian,
    random_state,
    random_unitary,
    restrict,
    spectral_fn,
    support_of,
    trace_norm,
)
from .divergences import (
    apply_channel,
    fidelity,
    relative_entropy,
    scalar_relative_entropy,
    scalar_skew_divergence,
    shannon_entropy,
    skew_divergence,
    trace_distance,
    von_neumann_entropy,
)
from .frechet import (
    MetricLimitRecord,
    chi2_log,
    differential_skew_divergence,
    frechet_log,
    frechet_log_central_diff,
    frechet_log_quadrature,
    metric_M,
    metric_epsilon_limit_check,
    scalar_differential_sd,
    sd_by_averaging,
    second_frechet_log,
    second_frechet_log_central_diff,
    second_frechet_log_quadrature,
)
from .ensembles import (
    ChiBoundRecord,
    ChiContinuityRecord,
    Ensemble,
    MixingExperiment,
    SimBoundRecord,
    average_state,
    chi_continuity_bound,
    chi_upper_bounds,
    complementary_state,
    evolve,
    holevo_chi,
    holevo_chi_relative_entropy_form,
    holevo_chi_skew_divergence_form,
    mixing_rate,
    sim_bound_check,
)
from .verify import CheckDef, CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"


def __getattr__(name: str):
    # the checks load on first use, so a process that never verifies never compiles them
    if name == "REGISTRY":
        from .checks import REGISTRY

        return REGISTRY
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CheckDef",
    "CheckResult",
    "ChiBoundRecord",
    "ChiContinuityRecord",
    "DensityMatrix",
    "DimensionMismatchError",
    "DomainError",
    "EigendecompositionError",
    "Ensemble",
    "FormatError",
    "HermitianOperator",
    "MetricLimitRecord",
    "MixingExperiment",
    "QsdError",
    "REGISTRY",
    "SimBoundRecord",
    "SupportProjection",
    "VerificationReport",
    "apply_channel",
    "average_state",
    "chi2_log",
    "chi_continuity_bound",
    "chi_upper_bounds",
    "complementary_state",
    "differential_skew_divergence",
    "eigendecompose",
    "evolve",
    "fidelity",
    "frechet_log",
    "frechet_log_central_diff",
    "frechet_log_quadrature",
    "holevo_chi",
    "holevo_chi_relative_entropy_form",
    "holevo_chi_skew_divergence_form",
    "metric_M",
    "metric_epsilon_limit_check",
    "mixing_rate",
    "operator_norm",
    "random_cptp",
    "random_hamiltonian",
    "random_state",
    "random_unitary",
    "relative_entropy",
    "restrict",
    "run_suite",
    "scalar_differential_sd",
    "scalar_relative_entropy",
    "scalar_skew_divergence",
    "sd_by_averaging",
    "second_frechet_log",
    "second_frechet_log_central_diff",
    "second_frechet_log_quadrature",
    "shannon_entropy",
    "sim_bound_check",
    "skew_divergence",
    "spectral_fn",
    "support_of",
    "trace_distance",
    "trace_norm",
    "von_neumann_entropy",
]
