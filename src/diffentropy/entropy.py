"""Deterministic conditional-entropy analysis of a diffused binary decision.

The residual uncertainty of a binary partition z given the noisy state is

    H(z | x_t) = - integral  p_z(x) * sum_z P(z|x) log2 P(z|x)  dx

with ``p_z`` the prior-weighted mixture of the two side densities.  Only the
decision's own (union) components carry mass, so the integral runs over
their windows: each component's diffused mean +- 10 diffused standard
deviations, with overlapping windows merged, so that every window edge lies
in a tail.  A level's ``grid_points`` midpoint cells (1024 by default) are
split among its windows in proportion to each window's width in units of its
narrowest standard deviation; on such windows the midpoint rule converges
exponentially.  The quadrature raises :class:`QuadratureDomainError` rather
than return a wrong number when

- the windows have no finite width in float64 (means too large for their
  standard deviations),
- a cell is wider than a quarter of its window's narrowest standard
  deviation (the message names a ``grid_points`` that would do),
- the density's mass on the cells is off one by more than 1e-9, or
- H falls outside [0, 1] by more than 1e-9.

A profile evaluates its levels in chunks of 16k kernel terms (union
components x cells), levels on a leading axis, through the one component
kernel.  Differentiating the
resulting time series gives the entropy rate; subtracting from the prior
entropy gives the cumulative information transfer.  Decisions among more
than two groups are expressible by running this binary machinery over
one-vs-rest partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition, TimeGrid
from .mixture import (CHUNK_TERMS, POSTERIOR_FLOOR, _log_joints, _logsumexp, _subset_params,
                      diffused_params)

__all__ = [
    "QuadratureDomainError",
    "EntropyProfile",
    "binary_entropy_bits",
    "prior_entropy_bits",
    "conditional_entropy_at",
    "jsd_at",
    "entropy_profile",
]

DEFAULT_GRID_POINTS = 1024
MIN_GRID_POINTS = 64
WINDOW_SPAN = 10.0  # window half-width in diffused standard deviations
MAX_CELL_SD = 0.25  # widest cell, in units of its window's narrowest sd
MASS_TOL = 1e-9

# Slack for clipping H into [0, 1]: anything beyond this is a genuine
# quadrature failure rather than roundoff.
ENTROPY_CLIP_SLACK = 1e-9

LN2 = float(np.log(2.0))


class QuadratureDomainError(ValueError):
    """The quadrature cannot resolve the decision's density at some level."""


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


def _logit_entropy_bits(logit: np.ndarray, work=(None, None, None)) -> np.ndarray:
    """Binary entropy of the coin with log-odds ``logit``, in bits.

    With ``u = exp(-|logit|)`` it is ``log1p(u) + |logit| u / (1 + u)`` nats,
    exact at both tails without forming the probabilities.  ``work`` may
    name three arrays shaped like ``logit``, none of them ``logit`` itself,
    that take every temporary; the result is then the last of them.  Unset,
    each step allocates its result.
    """
    w0, w1, w2 = work
    mag = np.abs(logit, out=w0)
    u = np.exp(np.negative(mag, out=w1), out=w1)
    h = np.log1p(u, out=w2)
    # mag and u are dead once read here: the tail term overwrites them.
    tail = np.divide(np.multiply(mag, u, out=w0), np.add(1.0, u, out=w1), out=w0)
    return np.divide(np.add(h, tail, out=w2), LN2, out=w2)


def _windows(mixture: MixtureModel, partition: Partition, alpha_bars: np.ndarray,
             grid_points: int, where) -> tuple:
    """Each level's merged union windows and their cells, one slot per component.

    Returns ``lo``, ``dx`` and ``cells`` of shape ``(L, C)``: slot ``j`` of
    level ``l`` is that level's ``j``-th window from the left, or an empty slot
    of zero cells once the level's windows run out.  ``where(l)`` names
    level ``l`` in an error message.
    """
    comps = list(partition.z0 + partition.z1)
    mu, var = diffused_params(mixture, alpha_bars)
    mu, sd = mu[comps], np.sqrt(var[comps])
    order = np.argsort(mu - WINDOW_SPAN * sd, axis=0, kind="stable")
    mu, sd = np.take_along_axis(mu, order, 0), np.take_along_axis(sd, order, 0)
    lo_k, hi_k = mu - WINDOW_SPAN * sd, mu + WINDOW_SPAN * sd
    # Sorted by left edge, a component opens a new window unless it overlaps
    # the reach of the ones before it.
    reach = np.maximum.accumulate(hi_k, axis=0)
    slot = np.cumsum(np.concatenate([np.ones_like(lo_k[:1], dtype=bool),
                                     lo_k[1:] > reach[:-1]]), axis=0) - 1
    lo, hi, narrow = (np.full(lo_k.shape, fill) for fill in (np.inf, -np.inf, np.inf))
    levels = np.arange(lo_k.shape[1])
    for k in range(len(comps)):
        j = slot[k]
        lo[j, levels] = np.minimum(lo[j, levels], lo_k[k])
        hi[j, levels] = np.maximum(hi[j, levels], hi_k[k])
        narrow[j, levels] = np.minimum(narrow[j, levels], sd[k])
    width = np.where(np.isfinite(lo), hi - lo, 0.0)
    span = width / narrow  # an empty slot spans 0 / inf = 0
    cum = np.cumsum(span, axis=0)
    # Means so large that mu +- 10 sd rounds to one float (or overflows)
    # leave no width to split into cells.
    lost = ~(np.isfinite(cum[-1]) & (cum[-1] > 0.0))
    if np.any(lost):
        l = int(np.argmax(lost))
        raise QuadratureDomainError(
            f"{where(l)}: the decision's windows have no finite width in float64 "
            f"(diffused means {mu[:, l].tolist()!r} for sds {sd[:, l].tolist()!r})")
    cells = np.diff(np.rint(cum / cum[-1] * grid_points).astype(np.int64), axis=0, prepend=0)
    dx = width / np.maximum(cells, 1)
    coarse = dx > MAX_CELL_SD * narrow
    if np.any(coarse):
        # A window gets at least grid_points * span / total - 1 cells and spans at
        # least 20 of its narrowest sd, so 4.05 * total cells keep every cell in bound.
        need = 1 << int(np.ceil(np.log2(4.05 * float(np.max(cum[-1])))))
        j, l = np.argwhere(coarse.T)[0][::-1]
        raise QuadratureDomainError(
            f"{where(l)}: a cell of width {float(dx[j, l])!r} exceeds {MAX_CELL_SD} of its "
            f"window's narrowest sd {float(narrow[j, l])!r}; grid_points={need} would do"
        )
    return lo.T, dx.T, cells.T


def _entropy_levels(mixture: MixtureModel, partition: Partition, alpha_bars: np.ndarray,
                    grid_points: int, steps=None, equal_priors: bool = False) -> np.ndarray:
    """The quadrature of H(z | x_t) in bits at each level of ``alpha_bars``.

    The one quadrature path: windows and cells from :func:`_windows`, levels
    evaluated in chunks of ``CHUNK_TERMS`` kernel terms, one level per row.
    ``equal_priors`` integrates the equal-weight mixture of the two side
    densities, each renormalized within itself, as the JSD does.
    """
    if grid_points < MIN_GRID_POINTS:
        raise ParameterError(f"grid needs at least {MIN_GRID_POINTS} points, got {grid_points}")

    def where(l):
        return f"step t={steps[l]}" if steps is not None else f"alpha_bar={float(alpha_bars[l])!r}"

    lo, dx, cells = _windows(mixture, partition, alpha_bars, grid_points, where)
    first = np.cumsum(cells, axis=1) - cells
    k0 = len(partition.z0)
    per_chunk = max(1, CHUNK_TERMS // (grid_points * len(partition.z0 + partition.z1)))
    cell = np.tile(np.arange(grid_points), min(per_chunk, len(alpha_bars)))
    h, mass = np.empty(len(alpha_bars)), np.empty(len(alpha_bars))
    for c0 in range(0, len(alpha_bars), per_chunk):
        rows = slice(c0, c0 + per_chunk)
        ab = alpha_bars[rows, None]
        counts = cells[rows].ravel()
        # Midpoints lo + (i + 1/2) dx of each window, windows and levels laid end to end.
        cell_dx = np.repeat(dx[rows].ravel(), counts)
        x = np.repeat(lo[rows].ravel(), counts) + (
            cell[:cell_dx.size] - np.repeat(first[rows].ravel(), counts) + 0.5) * cell_dx
        x, cell_dx = x.reshape(len(ab), grid_points), cell_dx.reshape(len(ab), grid_points)
        if equal_priors:
            a, b = (_logsumexp(_log_joints(_subset_params(mixture, ab, side, x.ndim), x))
                    for side in (partition.z0, partition.z1))
            dens = 0.5 * (np.exp(a) + np.exp(b))
        else:
            lj = _log_joints(_subset_params(mixture, ab, partition.z0 + partition.z1, x.ndim), x)
            a, b = _logsumexp(lj[:k0]), _logsumexp(lj[k0:])
            dens = np.exp(a) + np.exp(b)
        mass[rows] = (dens * cell_dx).sum(axis=1)
        h[rows] = (dens * _logit_entropy_bits(a - b) * cell_dx).sum(axis=1)
    off = ~(np.abs(mass - 1.0) <= MASS_TOL)
    if np.any(off):
        l = int(np.argmax(off))
        raise QuadratureDomainError(
            f"{where(l)}: density mass {float(mass[l])!r} on the cells is off one "
            f"by more than {MASS_TOL}")
    off = ~((h >= -ENTROPY_CLIP_SLACK) & (h <= 1.0 + ENTROPY_CLIP_SLACK))
    if np.any(off):
        l = int(np.argmax(off))
        raise QuadratureDomainError(f"{where(l)}: conditional entropy {float(h[l])!r} outside [0, 1]")
    return np.clip(h, 0.0, 1.0)


def conditional_entropy_at(mixture: MixtureModel, partition: Partition, alpha_bar: float,
                           grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Conditional entropy of the decision at one noise level, in bits.

    With the side log joints ``a = log pi0 p0`` and ``b = log pi1 p1`` (the
    union's component kernel summed per side), this is the quadrature of the
    density ``e^a + e^b`` against the binary entropy of the posterior logit
    ``a - b``.  Result is clipped into [0, 1]; an excursion beyond
    ``1 + 1e-9``, a mass defect or a cell too coarse for its window raises
    :class:`QuadratureDomainError`.
    """
    return float(_entropy_levels(mixture, partition, np.array([alpha_bar], dtype=np.float64),
                                 grid_points)[0])


def jsd_at(mixture: MixtureModel, partition: Partition, alpha_bar: float,
           grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Jensen-Shannon divergence between the two side densities, in bits.

    Quadrature of ``(p0 + p1)/2 * [r log2 r + (1-r) log2(1-r)] + 1`` with
    ``r`` the equal-prior posterior ``p0 / (p0 + p1)``.  For an equal-prior
    partition this satisfies ``H + JSD = 1`` exactly on a shared grid.
    """
    return 1.0 - float(_entropy_levels(mixture, partition, np.array([alpha_bar], dtype=np.float64),
                                       grid_points, equal_priors=True)[0])


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
                    stride: int = 1, grid_points: int = DEFAULT_GRID_POINTS) -> EntropyProfile:
    """Evaluate the conditional entropy at every ``stride``-th schedule step.

    Every level gets its own windows, so the cells track the shrinking
    support; a quadrature error names the step it happened at.
    """
    times = TimeGrid.strided(schedule, stride)
    h = _entropy_levels(mixture, partition, schedule.alpha_bars[times.steps - 1],
                        grid_points, steps=times.steps)
    rate = np.gradient(h, times.s) if len(times) > 1 else np.zeros(1)
    prior = prior_entropy_bits(partition)
    return EntropyProfile(
        times=times,
        H_bits=h,
        rate_bits=rate,
        transfer_bits=prior - h,
        prior_bits=prior,
    )
