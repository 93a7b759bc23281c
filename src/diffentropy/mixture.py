"""Closed-form diffusion of a Gaussian mixture under the variance-preserving
forward kernel.

A component ``N(mu_k, var_k)`` noised to signal level ``alpha_bar`` becomes
``N(sqrt(alpha_bar) * mu_k, alpha_bar * var_k + (1 - alpha_bar))``, so the
class posteriors, the exact score and its spatial derivative are all
available in closed form.  Likelihood work is done in log space
with log-sum-exp normalization; posteriors of well-separated components
underflow catastrophically otherwise.

Everything here is a pure function of immutable inputs and broadcasts over
``x``, so evaluation over dense grids or sample populations is safe and cheap.
"""

from __future__ import annotations

import numpy as np

from .core import MixtureModel, ParameterError, _single_level

__all__ = [
    "DegenerateDensityError",
    "score",
    "score_derivative",
]

# Posterior floor: 0 * log 0 must evaluate to 0 by continuity, so probabilities
# are clamped here before any logarithm.
POSTERIOR_FLOOR = 1e-300

LOG_2PI = float(np.log(2.0 * np.pi))


class DegenerateDensityError(ValueError):
    """A zero-variance component has no density at ``alpha_bar = 1``."""


# Kernel terms (components x points) per chunk of a batched caller's levels,
# the quadrature's cells and the root finder's grid nodes alike: each
# (components, levels, points) array stays within 128 KiB.
CHUNK_TERMS = 1 << 14


def _kernel_tables(mixture: MixtureModel, alpha_bars, *subsets) -> list:
    """The kernel's parameters of each component subset at every level of ``alpha_bars``.

    One table per subset, all from one diffusion: diffused means and
    variances of shape ``(K, L)``, one row per component of the subset and
    one column per level, and the subset's log weights, renormalized within
    it.  Every caller diffuses through here once: the quadrature, the root
    finder, the oracle score model and the scores.  A level outside [0, 1]
    raises :class:`ParameterError`; a level of 1 with a point mass in the
    mixture raises :class:`DegenerateDensityError`.
    """
    ab = np.asarray(alpha_bars, dtype=np.float64)
    inside = (0.0 <= ab) & (ab <= 1.0)  # False for NaN
    if not inside.all():
        raise ParameterError(f"alpha_bar must lie in [0, 1], got {float(ab[~inside][0])!r}")
    if (ab == 1.0).any() and np.any(mixture.variances == 0.0):
        raise DegenerateDensityError(
            "mixture contains point masses; densities are undefined at alpha_bar = 1"
        )
    mu = np.sqrt(ab) * mixture.means[:, None]
    var = ab * mixture.variances[:, None] + (1.0 - ab)
    tables = []
    for subset in subsets:
        idx = np.asarray(subset)
        w = np.maximum(mixture.weights[idx], POSTERIOR_FLOOR)
        tables.append((mu[idx], var[idx], np.log(w / w.sum())))
    return tables


def _gather(table, levels, x) -> tuple:
    """The parameters of a kernel table at ``x``: each point at its column ``levels``.

    ``levels`` broadcasts against ``x``, and the log weights are shaped to
    broadcast too.  ``np.take`` gathers row-major, as one level's own are:
    numpy sums a column-major gather over the components in another order.
    """
    mu, var, log_w = table
    return (np.take(mu, levels, axis=1), np.take(var, levels, axis=1),
            log_w.reshape((-1,) + (1,) * np.ndim(x)))


def _log_joints(params: tuple, x: np.ndarray) -> np.ndarray:
    """The component kernel: ``log(w_k N(x; mu_kt, var_kt))`` of each component.

    ``params`` is a :func:`_gather` triple; components lie on a leading
    axis, shape ``(K,) + x.shape``.  Levels broadcast against ``x``: columns
    gathered at ``(L, 1)`` against ``x`` of shape ``(L, n)`` put one level on
    each row, and at ``(n,)`` against ``(n,)`` one level per point; either way
    every element sees the same arithmetic.
    """
    mu, var, log_w = params
    return -0.5 * (LOG_2PI + np.log(var) + (x - mu) ** 2 / var) + log_w


def _logsumexp(a: np.ndarray) -> np.ndarray:
    if len(a) == 1:  # exact: a finite row plus log(1)
        return a[0]
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def _component_sum(a: np.ndarray) -> np.ndarray:
    """The sum over the components, rows in order: numpy sums a lone column otherwise from K = 8."""
    return a.sum(axis=0) if len(a) < 8 else sum(a[1:], a[0])


def _softmax(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=0))
    return e / _component_sum(e)


def _score_terms(params: tuple, x: np.ndarray) -> tuple:
    """Posterior weights, pulls ``(mu_kt - x) / var_kt`` and variances, and the score.

    The one score formula, on a :func:`_gather` triple.  A
    one-component subset skips the log joints: its posterior weight is
    exactly 1, as the softmax of one finite row gives (a log joint that
    overflows to -inf would give NaN), and its score is its pull row plus
    +0.0: the bits of the weighted sum over that one row, which starts from
    +0.0 and so turns a -0.0 pull into +0.0.
    """
    mu, var, _ = params
    single = len(mu) == 1
    w = 1.0 if single else _softmax(_log_joints(params, x))
    pull = (mu - x) / var
    return w, pull, var, pull[0] + 0.0 if single else _component_sum(w * pull)


def _score_and_slope(params: tuple, x: np.ndarray) -> tuple:
    """The score and the one slope formula at ``x``, from one :func:`_score_terms` pass."""
    w, pull, var, first = _score_terms(params, x)
    return first, _component_sum(w * (pull**2 - 1.0 / var)) - first**2


def _one_level(mixture: MixtureModel, alpha_bar, x) -> tuple:
    """The full mixture's kernel parameters at the one level ``alpha_bar``, and ``x`` as an array."""
    [table] = _kernel_tables(mixture, _single_level(alpha_bar), range(mixture.num_components))
    x = np.asarray(x, dtype=np.float64)
    return _gather(table, np.zeros((1,) * x.ndim, dtype=np.intp), x), x


def score(mixture: MixtureModel, alpha_bar: float, x):
    """Gradient of the log density of the mixture diffused to ``alpha_bar``.

    For posterior weights ``w_k(x)`` this is ``sum_k w_k(x) * (mu_kt - x) /
    var_kt``, the exact score.  A side of a decision has the score of its
    renormalized sub-mixture.
    """
    out = _score_terms(*_one_level(mixture, alpha_bar, x))[3]
    return float(out) if out.ndim == 0 else out


def score_derivative(mixture: MixtureModel, alpha_bar: float, x):
    """Spatial derivative of :func:`score`; the log density's curvature.

    Equals ``E_w[pull^2 - 1/var] - (E_w[pull])^2`` with ``pull = (mu - x)/var``,
    which root finding uses for Newton steps and stability classification.
    """
    out = _score_and_slope(*_one_level(mixture, alpha_bar, x))[1]
    return float(out) if out.ndim == 0 else out
