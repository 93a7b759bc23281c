"""Conditional-entropy, posterior-tracking and bifurcation analysis of 1-D
generative diffusion over Gaussian mixtures."""

__version__ = "0.1.0"

from .core import (
    MixtureModel,
    NoiseSchedule,
    ParameterError,
    Partition,
    PartitionError,
    TimeGrid,
    linear_schedule,
    make_partition,
)
from .mixture import (
    DegenerateDensityError,
    DiffusedComponent,
    UndefinedPosteriorError,
    class_log_likelihoods,
    class_posteriors,
    diffuse_component,
    marginal_pdf,
    partition_posterior,
    score,
    score_derivative,
)
from .entropy import (
    EntropyProfile,
    QuadratureDomainError,
    QuadratureGrid,
    binary_entropy_bits,
    conditional_entropy_at,
    entropy_profile,
    jsd_at,
    prior_entropy_bits,
)
from .tracker import (
    GmmScoreModel,
    McEntropyEstimate,
    ModelEvaluationError,
    ReplayScoreModel,
    TrajectoryState,
    ancestral_step,
    estimate_conditional_entropy,
    posterior_mean,
    posterior_update,
    write_replay_csv,
)
from .bifurcation import (
    BifurcationDiagram,
    CountChange,
    FixedPoint,
    drift_residual,
    drift_residual_derivative,
    find_fixed_points,
    sibling_split_time,
    trace_bifurcations,
)

__all__ = [
    "__version__",
    "MixtureModel", "NoiseSchedule", "Partition", "TimeGrid",
    "linear_schedule", "make_partition",
    "ParameterError", "PartitionError",
    "DiffusedComponent", "diffuse_component", "marginal_pdf",
    "class_log_likelihoods", "class_posteriors", "partition_posterior",
    "score", "score_derivative",
    "DegenerateDensityError", "UndefinedPosteriorError",
    "QuadratureGrid", "EntropyProfile", "conditional_entropy_at", "jsd_at",
    "entropy_profile", "binary_entropy_bits",
    "prior_entropy_bits", "QuadratureDomainError",
    "GmmScoreModel", "ReplayScoreModel", "write_replay_csv",
    "TrajectoryState", "McEntropyEstimate", "posterior_mean",
    "ancestral_step", "posterior_update", "estimate_conditional_entropy",
    "ModelEvaluationError",
    "FixedPoint", "CountChange", "BifurcationDiagram", "drift_residual",
    "drift_residual_derivative", "find_fixed_points", "trace_bifurcations",
    "sibling_split_time",
]
