"""Deterministic conditional-entropy analysis of a diffused binary decision.

The residual uncertainty of a binary partition z given the noisy state is

    H(z | x_t) = - integral  p_z(x) * sum_z P(z|x) log2 P(z|x)  dx

with ``p_z`` the prior-weighted mixture of the two side densities.  Only the
decision's own (union) components carry mass, so the integral runs over
their windows: each component's diffused mean +- 10 diffused standard
deviations, with overlapping windows merged, so that every window edge lies
in a tail.

Cells from an error bound.  For an integrand analytic in ``|Im x| < d``,
midpoint cells of width ``h`` err by about ``M exp(-2 pi d / h)``, ``M`` its
mass along the strip (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56(3), 2014).  For an error ``eps = 1e-13``
per window, the integrand ``p h2`` (density times the posterior's binary
entropy) bounds each window's ``h`` twice:

- The Gaussian factor is entire, but grows as ``exp(b^2 / (2 var))`` on the
  line ``Im x = b``.  The best ``b = 2 pi var / h`` leaves the error
  ``exp(-2 pi^2 var / h^2)``, so ``h <= pi sd sqrt(2 / ln(1/eps))``, 0.81 of
  the window's narrowest standard deviation ``sd``.
- The entropy term ``-p0 log p0 - p1 log p1 + p log p`` branches where a
  side's density or the union's vanishes.  Where components ``i`` and ``j``
  dominate such a sum, that is where their log-odds, quadratic in ``x``
  (linear for equal variances), equals ``+-i pi``: ``d`` off the real axis,
  ``d = pi var / |mu_i - mu_j|`` for equal variances.  With ``M`` the
  integrand at the root's real part times the window's width ``W``,
  ``h <= 2 pi d / ln(M / eps)``, and no bound when ``M <= eps``; so a pair of
  one side matters only where the other side is present.  A pair is skipped
  where a third component of its sum (its side's, or the union's for a pair
  of opposite sides) outweighs it ``RIVAL_FACTOR`` (10) times at the root,
  as a delta between two others does.

A window needs ``W / h`` cells.  A level gets the next power of two at or
above both ``MIN_CELLS`` (64) and its windows' summed needs, each window its
need plus a share of the rest in proportion to it.
H is then right to ``H_TOL`` = 1e-12 bits, as the tests check against dense
plain-numpy grids.  The quadrature raises :class:`QuadratureDomainError`
rather than return a wrong number when

- the windows have no finite width in float64 (means too large for their
  standard deviations),
- a level needs more than ``MAX_CELLS`` (2^20) cells,
- the density's mass on the cells is off one by more than 1e-9, or
- H falls outside [0, 1] by more than 1e-9.

A profile groups its levels by cell count, and evaluates each group in
chunks of 16k kernel terms (union components x cells), levels on a leading
axis, through the one component kernel.  Differentiating the resulting time
series gives the entropy rate; subtracting from the prior entropy gives the
cumulative information transfer.  Decisions among more than two groups are
expressible by running this binary machinery over one-vs-rest partitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition, _level_namer, _strided_steps
from .mixture import CHUNK_TERMS, POSTERIOR_FLOOR, _gather, _kernel_tables, _log_joints, _logsumexp

__all__ = [
    "QuadratureDomainError",
    "EntropyProfile",
    "conditional_entropy_at",
    "entropy_profile",
]

MIN_CELLS = 64  # fewest cells a level takes
WINDOW_SPAN = 10.0  # window half-width in diffused standard deviations
WINDOW_TOL = 1e-13  # quadrature error target per window, eps in the module docstring
H_TOL = 1e-12  # stated tolerance on H, in bits
RIVAL_FACTOR = 10.0  # how far a third component may outweigh a switching pair
MAX_CELLS = 1 << 20  # most cells one level may take
MASS_TOL = 1e-9

# Slack for clipping H into [0, 1]: anything beyond this is a genuine
# quadrature failure rather than roundoff.
ENTROPY_CLIP_SLACK = 1e-9

LN2 = float(np.log(2.0))


class QuadratureDomainError(ValueError):
    """The quadrature cannot resolve the decision's density at some level."""


def _binary_entropy_bits(p) -> np.ndarray | float:
    """Entropy of a (p, 1-p) coin in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    # 0.0 minus, not a negation: at p in {0, 1} the sum is +0.0, and H is +0.0.
    out = 0.0 - (p * np.log2(np.clip(p, POSTERIOR_FLOOR, 1.0))
                 + q * np.log2(np.clip(q, POSTERIOR_FLOOR, 1.0)))
    return float(out) if out.ndim == 0 else out


def _logit_entropy_nats(logit: np.ndarray, work=(None, None, None)) -> np.ndarray:
    """Binary entropy of the coin with log-odds ``logit``, in nats.

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
    return np.add(h, tail, out=w2)


def _branch_points(mu, var, log_w, i, j) -> np.ndarray:
    """The roots ``x`` of ``L(x) = i pi``, ``L`` the quadratic log-odds of component ``i`` over ``j``.

    Shape ``(2, levels)``; for equal variances one root is infinite or NaN.
    """
    a = 0.5 / var[j] - 0.5 / var[i]
    b = mu[i] / var[i] - mu[j] / var[j]
    c = (log_w[i] - log_w[j] - 0.5 * np.log(var[i] / var[j])
         - 0.5 * mu[i] ** 2 / var[i] + 0.5 * mu[j] ** 2 / var[j] - 1j * np.pi)
    s = np.sqrt(b * b - 4.0 * a * c)
    # The two roots q / a and c / q, with q taken without cancellation.
    q = -0.5 * (b + np.where(b * s.real >= 0.0, s, -s))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([q / a, c / q])


def _windows(table, k0: int, where) -> tuple:
    """Each level's merged union windows and their cells, one slot per component.

    ``table`` is the kernel table of the decision's union components at every
    level, z0's ``k0`` first.  Returns ``lo``, ``dx`` and ``cells`` of shape
    ``(L, C)``, slot ``j`` of level ``l`` its ``j``-th window from the left or
    an empty slot of zero cells, and each level's cell count; ``where(l)``
    names level ``l`` in an error message.
    """
    mu, var, log_w = table
    sd = np.sqrt(var)
    order = np.argsort(mu - WINDOW_SPAN * sd, axis=0, kind="stable")
    mu_k, sd_k = np.take_along_axis(mu, order, 0), np.take_along_axis(sd, order, 0)
    lo_k, hi_k = mu_k - WINDOW_SPAN * sd_k, mu_k + WINDOW_SPAN * sd_k
    # Sorted by left edge, a component opens a new window unless it overlaps
    # the reach of the ones before it.
    reach = np.maximum.accumulate(hi_k, axis=0)
    slot = np.cumsum(np.concatenate([np.ones_like(lo_k[:1], dtype=bool),
                                     lo_k[1:] > reach[:-1]]), axis=0) - 1
    lo, hi, narrow = (np.full(lo_k.shape, fill) for fill in (np.inf, -np.inf, np.inf))
    levels = np.arange(lo_k.shape[1])
    for k in range(len(mu)):
        j = slot[k]
        lo[j, levels] = np.minimum(lo[j, levels], lo_k[k])
        hi[j, levels] = np.maximum(hi[j, levels], hi_k[k])
        narrow[j, levels] = np.minimum(narrow[j, levels], sd_k[k])
    width = np.where(np.isfinite(lo), hi - lo, 0.0)
    h = np.pi * np.sqrt(2.0 / np.log(1.0 / WINDOW_TOL)) * narrow
    # Each pair's switch layers bound the cells of the windows they lie in.
    params = (mu, var, log_w[:, None])
    for i, j in itertools.combinations(range(len(mu)), 2):
        group = range(k0) if j < k0 else range(k0, len(mu)) if i >= k0 else range(len(mu))
        others = [k for k in group if k not in (i, j)]
        for root in _branch_points(mu, var, log_w, i, j):
            x, y = root.real, np.abs(root.imag)
            inside = (lo <= x) & (x <= hi)
            # Roots far outside every window may overflow the kernel.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                lj = _log_joints(params, x)
                a, b = _logsumexp(lj[:k0]), _logsumexp(lj[k0:])
                excess = (np.logaddexp(a, b) + np.log(_logit_entropy_nats(a - b) / LN2)
                          + np.log((width * inside).sum(axis=0) / WINDOW_TOL))
                # log |w_k N_k| at the root itself, off the real axis.
                size = lj + 0.5 * y ** 2 / var
                rival = size[others].max(axis=0, initial=-np.inf) - np.log(RIVAL_FACTOR)
                switch = inside & (excess > 0.0) & (np.minimum(size[i], size[j]) >= rival)
                np.minimum(h, 2.0 * np.pi * y / excess, out=h, where=switch)
    need = width / h  # an empty slot needs 0 / inf = 0
    base = np.ceil(need)
    total = base.sum(axis=0)
    # Means so large that mu +- 10 sd rounds to one float (or overflows)
    # leave no width to split into cells.
    lost = ~(np.isfinite(total) & (total > 0.0))
    if np.any(lost):
        l = int(np.argmax(lost))
        raise QuadratureDomainError(
            f"{where(l)}: the decision's windows have no finite width in float64 "
            f"(diffused means {mu[:, l].tolist()!r} for sds {sd[:, l].tolist()!r})")
    if np.any(total > MAX_CELLS):
        l = int(np.argmax(total > MAX_CELLS))
        raise QuadratureDomainError(
            f"{where(l)}: the decision needs {int(total[l])} cells for an error of "
            f"{WINDOW_TOL} per window, more than the {MAX_CELLS} a level may take")
    count = 2 ** np.ceil(np.log2(np.maximum(total, MIN_CELLS)))
    cum = np.cumsum(need, axis=0)
    cells = (base + np.diff(np.rint(cum / cum[-1] * (count - total)), axis=0, prepend=0)).astype(np.int64)
    return lo.T, (width / np.maximum(cells, 1)).T, cells.T, count.astype(np.int64)


def _entropy_levels(mixture: MixtureModel, partition: Partition, alpha_bars: np.ndarray,
                    steps=None) -> np.ndarray:
    """The quadrature of H(z | x_t) in bits at each level of ``alpha_bars``.

    The one quadrature path: windows and cells from :func:`_windows`; levels
    of one cell count are evaluated together, in chunks of ``CHUNK_TERMS``
    kernel terms, one level per row.
    """
    where = _level_namer(alpha_bars, steps)
    [table] = _kernel_tables(mixture, alpha_bars, partition.union)
    k0 = len(partition.z0)
    lo, dx, cells, count = _windows(table, k0, where)
    first = np.cumsum(cells, axis=1) - cells
    h, mass = np.empty(len(alpha_bars)), np.empty(len(alpha_bars))
    # A loop over the few counts: np.unique would import numpy.ma.
    for n in sorted(set(count.tolist())):
        group = np.flatnonzero(count == n)
        per_chunk = max(1, CHUNK_TERMS // (n * len(partition.union)))
        cell = np.tile(np.arange(n), min(per_chunk, len(group)))
        for c0 in range(0, len(group), per_chunk):
            rows = group[c0:c0 + per_chunk]
            counts = cells[rows].ravel()
            # Midpoints lo + (i + 1/2) dx of each window, windows and levels laid end to end.
            cell_dx = np.repeat(dx[rows].ravel(), counts)
            x = np.repeat(lo[rows].ravel(), counts) + (
                cell[:cell_dx.size] - np.repeat(first[rows].ravel(), counts) + 0.5) * cell_dx
            x, cell_dx = x.reshape(len(rows), n), cell_dx.reshape(len(rows), n)
            lj = _log_joints(_gather(table, rows[:, None], x), x)
            a, b = _logsumexp(lj[:k0]), _logsumexp(lj[k0:])
            dens = np.exp(a) + np.exp(b)
            mass[rows] = (dens * cell_dx).sum(axis=1)
            h[rows] = (dens * (_logit_entropy_nats(a - b) / LN2) * cell_dx).sum(axis=1)
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


def conditional_entropy_at(mixture: MixtureModel, partition: Partition, alpha_bar: float) -> float:
    """Conditional entropy of the decision at one noise level, in bits.

    With the side log joints ``a = log pi0 p0`` and ``b = log pi1 p1`` (the
    union's component kernel summed per side), this is the quadrature of the
    density ``e^a + e^b`` against the binary entropy of the posterior logit
    ``a - b``, right to ``H_TOL`` bits, on the cells that the error bound of
    the module docstring sets.  The result is clipped into [0, 1]; an
    excursion beyond ``1 + 1e-9``, a mass defect or a level that needs more
    than ``MAX_CELLS`` cells raises :class:`QuadratureDomainError`.
    """
    return float(_entropy_levels(mixture, partition, np.array([alpha_bar], dtype=np.float64))[0])


@dataclass(frozen=True, eq=False)
class EntropyProfile:
    """Conditional entropy over diffusion time, with rate and transfer series.

    ``rate_bits`` is dH/ds on the forward-noising axis (central differences in
    the interior, one-sided at the ends); information created while generating
    shows up as a positive rate against decreasing ``s``.  Each series has
    one value per step ``steps``, at the normalized time ``s = steps / T``.
    """

    steps: np.ndarray
    s: np.ndarray
    H_bits: np.ndarray
    rate_bits: np.ndarray
    transfer_bits: np.ndarray
    prior_bits: float

    def __post_init__(self):
        n = len(self.steps)
        for name in ("steps", "s", "H_bits", "rate_bits", "transfer_bits"):
            arr = np.array(getattr(self, name), dtype=np.int64 if name == "steps" else np.float64)
            if arr.shape != (n,):
                raise ParameterError(f"{name} must have shape ({n},), got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def entropy_profile(mixture: MixtureModel, partition: Partition, schedule: NoiseSchedule,
                    stride: int = 1) -> EntropyProfile:
    """Evaluate the conditional entropy at every ``stride``-th schedule step.

    Every level gets its own windows and cell count, at least ``MIN_CELLS``,
    so the cells track the shrinking support; a quadrature error names the
    step it happened at.
    """
    steps = _strided_steps(schedule, stride)
    s = steps / schedule.num_steps
    h = _entropy_levels(mixture, partition, schedule.alpha_bars[steps - 1], steps=steps)
    rate = np.gradient(h, s) if len(steps) > 1 else np.zeros(1)
    prior = _binary_entropy_bits(partition.prior_z0)
    return EntropyProfile(
        steps=steps,
        s=s,
        H_bits=h,
        rate_bits=rate,
        transfer_bits=prior - h,
        prior_bits=prior,
    )
