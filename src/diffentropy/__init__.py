"""Conditional-entropy, posterior-tracking and bifurcation analysis of 1-D
generative diffusion over Gaussian mixtures."""

__version__ = "0.2.0"

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
    find_fixed_points,
    sibling_split_time,
    trace_bifurcations,
)

__all__ = [
    "__version__",
    "MixtureModel", "NoiseSchedule", "Partition",
    "linear_schedule", "make_partition",
    "ParameterError", "PartitionError",
    "score", "DegenerateDensityError",
    "EntropyProfile", "conditional_entropy_at",
    "entropy_profile", "QuadratureDomainError",
    "GmmScoreModel", "ReplayScoreModel", "write_replay_csv",
    "McEntropyEstimate", "estimate_conditional_entropy", "ModelEvaluationError",
    "CountChange", "BifurcationDiagram", "find_fixed_points",
    "trace_bifurcations", "sibling_split_time",
]
