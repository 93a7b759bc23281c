"""Shared domain types: Gaussian mixtures, variance-preserving noise
schedules and binary class partitions.  Time axes are plain arrays: integer
steps ``t`` and their normalized times ``s = t / T``.

All types are immutable after construction (arrays are frozen read-only) and
validated in their constructors, so any instance handed to the numeric
modules already satisfies its own invariants.  Types that hold arrays, here
and in the result types of the other modules, compare by identity
(``eq=False``): an elementwise array ``==`` has no truth value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "PartitionError",
    "MixtureModel",
    "NoiseSchedule",
    "Partition",
    "linear_schedule",
    "make_partition",
]

# Tolerances used by constructor validation.
WEIGHT_SUM_TOL = 1e-12
ALPHA_BAR_PRODUCT_TOL = 1e-14


class ParameterError(ValueError):
    """A scalar parameter is outside its admissible domain."""


class PartitionError(ValueError):
    """A binary class partition is malformed (overlap, empty side, bad index)."""


def _frozen_f64(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """A one-dimensional Gaussian mixture, the clean data distribution.

    ``variances`` may contain exact zeros: point masses (deltas) are legal
    components and are handled exactly by the closed-form diffusion, which
    adds ``1 - alpha_bar`` of noise variance to every component.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_f64(self.weights, "weights"))
        object.__setattr__(self, "means", _frozen_f64(self.means, "means"))
        object.__setattr__(self, "variances", _frozen_f64(self.variances, "variances"))
        k = self.weights.size
        if k < 1:
            raise ParameterError("mixture needs at least one component")
        if self.means.size != k or self.variances.size != k:
            raise ParameterError(
                f"component count mismatch: {k} weights, {self.means.size} means, "
                f"{self.variances.size} variances"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ParameterError("weights must be finite")
        if not np.all(np.isfinite(self.means)):
            raise ParameterError("means must be finite")
        if not np.all(np.isfinite(self.variances)):
            raise ParameterError("variances must be finite")
        if np.any(self.weights < 0.0):
            raise ParameterError("weights must be non-negative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ParameterError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        if np.any(self.variances < 0.0):
            raise ParameterError("variances must be non-negative")

    @property
    def num_components(self) -> int:
        return self.weights.size

    @classmethod
    def deltas(cls, means: Sequence[float], weights: Sequence[float] | None = None) -> "MixtureModel":
        """Mixture of point masses at ``means``, equally weighted by default."""
        means = np.asarray(means, dtype=np.float64)
        if weights is None:
            weights = np.full(means.size, 1.0 / means.size)
        return cls(weights=weights, means=means, variances=np.zeros(means.size))


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-step noise increments ``betas`` and their running signal products.

    ``alpha_bars[t-1]`` is the cumulative product of ``1 - beta`` over steps
    ``1..t``; step 0 (clean data) has an implicit alpha-bar of exactly 1.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas", _frozen_f64(self.betas, "betas"))
        object.__setattr__(self, "alpha_bars", _frozen_f64(self.alpha_bars, "alpha_bars"))
        if self.betas.size < 1:
            raise ParameterError("schedule needs at least one step")
        if self.alpha_bars.size != self.betas.size:
            raise ParameterError("betas and alpha_bars must have equal length")
        if np.any(self.betas <= 0.0) or np.any(self.betas >= 1.0):
            raise ParameterError("every beta must lie strictly inside (0, 1)")
        if np.any(np.diff(self.alpha_bars) >= 0.0):
            raise ParameterError("alpha_bars must be strictly decreasing")
        prev = np.concatenate(([1.0], self.alpha_bars[:-1]))
        drift = np.abs(self.alpha_bars - prev * (1.0 - self.betas))
        if drift.max() > ALPHA_BAR_PRODUCT_TOL:
            raise ParameterError(
                f"alpha_bars inconsistent with betas: max product defect {drift.max():.3e}"
            )

    @property
    def num_steps(self) -> int:
        return self.betas.size

    def alpha_bar(self, t: int) -> float:
        """Signal retention after ``t`` noise additions; ``t = 0`` gives 1."""
        if not 0 <= t <= self.num_steps:
            raise ParameterError(f"step {t} outside [0, {self.num_steps}]")
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])

    @classmethod
    def from_betas(cls, betas: Iterable[float]) -> "NoiseSchedule":
        betas = np.asarray(betas if isinstance(betas, np.ndarray) else list(betas), dtype=np.float64)
        return cls(betas=betas, alpha_bars=np.cumprod(1.0 - betas))


def linear_schedule(num_steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linearly interpolated betas from ``beta_start`` to ``beta_end`` inclusive."""
    if num_steps < 2:
        raise ParameterError(f"num_steps must be >= 2, got {num_steps}")
    if not 0.0 < beta_start:
        raise ParameterError(f"beta_start must be positive, got {beta_start!r}")
    if beta_start > beta_end:
        raise ParameterError(
            f"beta_start must not exceed beta_end, got {beta_start!r} > {beta_end!r}"
        )
    if not beta_end < 1.0:
        raise ParameterError(f"beta_end must be below 1, got {beta_end!r}")
    return NoiseSchedule.from_betas(np.linspace(beta_start, beta_end, num_steps))


@dataclass(frozen=True)
class Partition:
    """A binary split of the mixture's component indices.

    ``prior_z0`` is renormalized over the union of the two sides, so a
    decision between two classes of a larger mixture gives z1 the prior
    ``1 - prior_z0``.
    """

    z0: tuple[int, ...]
    z1: tuple[int, ...]
    prior_z0: float

    @property
    def union(self) -> tuple[int, ...]:
        return self.z0 + self.z1


def _checked_side(indices: Iterable[int], name: str, k: int) -> tuple[int, ...]:
    out = []
    for idx in indices:
        i = int(idx)
        if i != idx:
            raise PartitionError(f"{name} contains non-integer index {idx!r}")
        if not 0 <= i < k:
            raise PartitionError(f"{name} index {i} out of range for {k} components")
        out.append(i)
    if not out:
        raise PartitionError(f"{name} must be non-empty")
    if len(set(out)) != len(out):
        raise PartitionError(f"{name} contains duplicate indices")
    return tuple(sorted(out))


def make_partition(mixture: MixtureModel, z0: Iterable[int], z1: Iterable[int]) -> Partition:
    """Build a binary decision over ``mixture`` components with renormalized priors."""
    k = mixture.num_components
    side0 = _checked_side(z0, "z0", k)
    side1 = _checked_side(z1, "z1", k)
    overlap = set(side0) & set(side1)
    if overlap:
        raise PartitionError(f"z0 and z1 overlap at index {sorted(overlap)[0]}")
    w0 = float(mixture.weights[list(side0)].sum())
    w1 = float(mixture.weights[list(side1)].sum())
    total = w0 + w1
    if total <= 0.0:
        raise PartitionError("partition has zero total prior mass")
    return Partition(z0=side0, z1=side1, prior_z0=w0 / total)


def _level_namer(alpha_bars, steps=None):
    """``where(l)``, the name of level ``l`` in an error message: its step if given."""
    if steps is not None:
        return lambda l: f"step t={steps[l]}"
    return lambda l: f"alpha_bar={float(alpha_bars[l])!r}"


def _single_level(alpha_bar) -> np.ndarray:
    """``alpha_bar`` as a one-element float64 array; a value of any shape but ``()`` raises."""
    if np.ndim(alpha_bar) != 0:
        raise ParameterError(f"alpha_bar must be one level, got shape {np.shape(alpha_bar)}")
    return np.array([alpha_bar], dtype=np.float64)


def _strided_steps(schedule: NoiseSchedule, stride: int) -> np.ndarray:
    """Every ``stride``-th step starting at 1, always including the last step; read-only."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    t = schedule.num_steps
    # Every stride from T on gives [1, T]; a stride past int64 would give float steps.
    steps = np.arange(1, t + 1, min(stride, t))
    if steps[-1] != t:
        steps = np.append(steps, t)
    steps.flags.writeable = False
    return steps
