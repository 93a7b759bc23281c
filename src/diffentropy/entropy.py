"""Deterministic conditional-entropy analysis of a diffused binary decision.

The residual uncertainty of a binary partition z given the noisy state is

    H(z | x_t) = - integral  p_z(x) * sum_z P(z|x) log2 P(z|x)  dx

with ``p_z`` the prior-weighted mixture of the two side densities.  The
integral is evaluated as a midpoint Riemann sum over a grid that tracks the
diffused components' support.  Differentiating the resulting time series
gives the entropy rate; subtracting from the prior entropy gives the
cumulative information transfer.

Each time point is independent, so profiles parallelize trivially; the
functions themselves are pure.  Decisions among more than two groups are
expressible by running this binary machinery over one-vs-rest partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition, TimeGrid
from .mixture import POSTERIOR_FLOOR, _log_joints, _logsumexp, diffused_params

__all__ = [
    "QuadratureDomainError",
    "QuadratureGrid",
    "EntropyProfile",
    "binary_entropy_bits",
    "prior_entropy_bits",
    "conditional_entropy_at",
    "jsd_at",
    "entropy_profile",
    "information_transfer",
]

DEFAULT_GRID_POINTS = 4096
DEFAULT_SUPPORT_SPAN = 10.0  # grid reach in diffused standard deviations

# Slack for clipping H into [0, 1]: anything beyond this is a genuine
# quadrature failure rather than roundoff.
ENTROPY_CLIP_SLACK = 1e-9

LN2 = float(np.log(2.0))


class QuadratureDomainError(ValueError):
    """The integration grid does not cover the diffused mixture's support."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform midpoint-rule grid of ``n`` cells on ``[lo, hi]``."""

    lo: float
    hi: float
    n: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 64:
            raise ParameterError(f"grid needs at least 64 points, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.n

    def points(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.dx

    @classmethod
    def for_mixture(cls, mixture: MixtureModel, alpha_bar: float,
                    n: int = DEFAULT_GRID_POINTS, span: float = DEFAULT_SUPPORT_SPAN) -> "QuadratureGrid":
        """Bounds covering every diffused mean +- ``span`` standard deviations."""
        mu, var = diffused_params(mixture, alpha_bar)
        sd = np.sqrt(var)
        return cls(lo=float(np.min(mu - span * sd)), hi=float(np.max(mu + span * sd)), n=n)


def _check_coverage(grid: QuadratureGrid, mixture: MixtureModel, alpha_bar: float,
                    span: float = DEFAULT_SUPPORT_SPAN) -> None:
    mu, var = diffused_params(mixture, alpha_bar)
    sd = np.sqrt(var)
    lo_req = float(np.min(mu - span * sd))
    hi_req = float(np.max(mu + span * sd))
    slack = 1e-12 * max(1.0, abs(lo_req), abs(hi_req))
    if grid.lo > lo_req + slack or grid.hi < hi_req - slack:
        raise QuadratureDomainError(
            f"grid [{grid.lo}, {grid.hi}] must cover [{lo_req}, {hi_req}] "
            f"at alpha_bar={alpha_bar!r}"
        )


def binary_entropy_bits(p) -> np.ndarray | float:
    """Entropy of a (p, 1-p) coin in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    out = -(p * np.log2(np.clip(p, POSTERIOR_FLOOR, 1.0))
            + q * np.log2(np.clip(q, POSTERIOR_FLOOR, 1.0)))
    return float(out) if out.ndim == 0 else out


def prior_entropy_bits(partition: Partition) -> float:
    """Entropy of the partition's renormalized priors."""
    return float(binary_entropy_bits(partition.prior_z0))


def _logit_entropy_bits(logit: np.ndarray) -> np.ndarray:
    """Binary entropy of the coin with log-odds ``logit``, in bits.

    With ``u = exp(-|logit|)`` it is ``log1p(u) + |logit| u / (1 + u)`` nats,
    exact at both tails without forming the probabilities.
    """
    mag = np.abs(logit)
    u = np.exp(-mag)
    return (np.log1p(u) + mag * u / (1.0 + u)) / LN2


def _grid_points(mixture: MixtureModel, alpha_bar: float,
                 grid: QuadratureGrid | None) -> tuple[np.ndarray, float]:
    if grid is None:
        grid = QuadratureGrid.for_mixture(mixture, alpha_bar)
    else:
        _check_coverage(grid, mixture, alpha_bar)
    return grid.points(), grid.dx


def conditional_entropy_at(mixture: MixtureModel, partition: Partition, alpha_bar: float,
                           grid: QuadratureGrid | None = None) -> float:
    """Conditional entropy of the decision at one noise level, in bits.

    With the side log joints ``a = log pi0 p0`` and ``b = log pi1 p1`` (the
    union's component kernel summed per side), this is the quadrature of the
    density ``e^a + e^b`` against the binary entropy of the posterior logit
    ``a - b``.  Result is clipped into [0, 1]; an excursion beyond
    ``1 + 1e-9`` raises, since binary entropy cannot exceed one bit.
    """
    x, dx = _grid_points(mixture, alpha_bar, grid)
    lj, _, _ = _log_joints(mixture, alpha_bar, x, partition.z0 + partition.z1)
    k0 = len(partition.z0)
    a, b = _logsumexp(lj[:k0]), _logsumexp(lj[k0:])
    h = float(np.sum((np.exp(a) + np.exp(b)) * _logit_entropy_bits(a - b)) * dx)
    if h > 1.0 + ENTROPY_CLIP_SLACK or h < -ENTROPY_CLIP_SLACK:
        raise QuadratureDomainError(
            f"conditional entropy {h!r} outside [0, 1]; grid too coarse or too narrow"
        )
    return min(max(h, 0.0), 1.0)


def jsd_at(mixture: MixtureModel, partition: Partition, alpha_bar: float,
           grid: QuadratureGrid | None = None) -> float:
    """Jensen-Shannon divergence between the two side densities, in bits.

    Quadrature of ``(p0 + p1)/2 * [r log2 r + (1-r) log2(1-r)] + 1`` with
    ``r`` the equal-prior posterior ``p0 / (p0 + p1)``.  For an equal-prior
    partition this satisfies ``H + JSD = 1`` exactly on a shared grid.
    """
    x, dx = _grid_points(mixture, alpha_bar, grid)
    l0, l1 = (_logsumexp(_log_joints(mixture, alpha_bar, x, side)[0])
              for side in (partition.z0, partition.z1))
    mid = 0.5 * (np.exp(l0) + np.exp(l1))
    return 1.0 - float(np.sum(mid * _logit_entropy_bits(l0 - l1)) * dx)


@dataclass(frozen=True)
class EntropyProfile:
    """Conditional entropy over diffusion time, with rate and transfer series.

    ``rate_bits`` is dH/ds on the forward-noising axis (central differences in
    the interior, one-sided at the ends); information created while generating
    shows up as a positive rate against decreasing ``s``.
    """

    times: TimeGrid
    H_bits: np.ndarray
    rate_bits: np.ndarray
    transfer_bits: np.ndarray
    prior_bits: float

    def __post_init__(self):
        n = len(self.times)
        for name in ("H_bits", "rate_bits", "transfer_bits"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise ParameterError(f"{name} must have shape ({n},), got {arr.shape}")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def entropy_profile(mixture: MixtureModel, partition: Partition, schedule: NoiseSchedule,
                    grid: QuadratureGrid | None = None, stride: int = 1,
                    grid_points: int = DEFAULT_GRID_POINTS) -> EntropyProfile:
    """Evaluate the conditional entropy at every ``stride``-th schedule step.

    With ``grid=None`` (the default) the quadrature bounds are re-derived per
    step so they track the shrinking support; passing an explicit grid uses it
    at every step, subject to the coverage check.
    """
    times = TimeGrid.strided(schedule, stride)
    h = np.empty(len(times))
    for i, t in enumerate(times.steps):
        ab = schedule.alpha_bar(int(t))
        g = grid if grid is not None else QuadratureGrid.for_mixture(mixture, ab, n=grid_points)
        try:
            h[i] = conditional_entropy_at(mixture, partition, ab, g)
        except QuadratureDomainError as err:
            raise QuadratureDomainError(f"step t={t}: {err}") from err
    rate = np.gradient(h, times.s) if len(times) > 1 else np.zeros(1)
    prior = prior_entropy_bits(partition)
    return EntropyProfile(
        times=times,
        H_bits=h,
        rate_bits=rate,
        transfer_bits=prior - h,
        prior_bits=prior,
    )


def information_transfer(profile: EntropyProfile) -> np.ndarray:
    """Bits of decision information already present at each time."""
    return profile.prior_bits - profile.H_bits
