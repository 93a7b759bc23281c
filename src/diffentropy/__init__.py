"""Conditional-entropy, posterior-tracking and bifurcation analysis of 1-D
generative diffusion over Gaussian mixtures."""

__version__ = "0.1.0"

from .core import (
    MixtureModel,
    NoiseSchedule,
    ParameterError,
    Partition,
    PartitionError,
    linear_schedule,
    make_partition,
)
from .mixture import (
    DegenerateDensityError,
    score,
    score_derivative,
)
from .entropy import (
    EntropyProfile,
    QuadratureDomainError,
    conditional_entropy_at,
    entropy_profile,
)
from .tracker import (
    GmmScoreModel,
    McEntropyEstimate,
    ModelEvaluationError,
    ReplayScoreModel,
    estimate_conditional_entropy,
    write_replay_csv,
)
from .bifurcation import (
    BifurcationDiagram,
    CountChange,
    FixedPoint,
    find_fixed_points,
    sibling_split_time,
    trace_bifurcations,
)

__all__ = [
    "__version__",
    "MixtureModel", "NoiseSchedule", "Partition",
    "linear_schedule", "make_partition",
    "ParameterError", "PartitionError",
    "score", "score_derivative", "DegenerateDensityError",
    "EntropyProfile", "conditional_entropy_at",
    "entropy_profile", "QuadratureDomainError",
    "GmmScoreModel", "ReplayScoreModel", "write_replay_csv",
    "McEntropyEstimate", "estimate_conditional_entropy", "ModelEvaluationError",
    "FixedPoint", "CountChange", "BifurcationDiagram", "find_fixed_points",
    "trace_bifurcations", "sibling_split_time",
]
