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

from .core import MixtureModel, ParameterError, Partition

__all__ = [
    "DegenerateDensityError",
    "diffused_params",
    "resolve_label",
    "score",
    "score_derivative",
]

# Posterior floor: 0 * log 0 must evaluate to 0 by continuity, so probabilities
# are clamped here before any logarithm.
POSTERIOR_FLOOR = 1e-300

LOG_2PI = float(np.log(2.0 * np.pi))


class DegenerateDensityError(ValueError):
    """A zero-variance component has no density at ``alpha_bar = 1``."""


def diffused_params(mixture: MixtureModel, alpha_bar) -> tuple[np.ndarray, np.ndarray]:
    """Vectors of diffused means and variances for every component.

    ``alpha_bar`` is one level, or an array of levels; for an array the
    components lie on a leading axis, shape ``(K,) + alpha_bar.shape``.
    """
    ab = np.asarray(alpha_bar, dtype=np.float64)
    # Checked on Python floats: for one level, the common case, that is much
    # cheaper than two array reductions.
    levels = ab.ravel().tolist()
    if not all(0.0 <= a <= 1.0 for a in levels):
        raise ParameterError(f"alpha_bar must lie in [0, 1], got {alpha_bar!r}")
    if 1.0 in levels and np.any(mixture.variances == 0.0):
        raise DegenerateDensityError(
            "mixture contains point masses; densities are undefined at alpha_bar = 1"
        )
    shape = (-1,) + (1,) * ab.ndim
    mu = np.sqrt(ab) * mixture.means.reshape(shape)
    var = ab * mixture.variances.reshape(shape) + (1.0 - ab)
    return mu, var


# Kernel terms (components x points) per chunk of a batched caller's levels,
# the quadrature's cells and the root finder's grid nodes alike: each
# (components, levels, points) array stays within 128 KiB.
CHUNK_TERMS = 1 << 14


def _log_weights(mixture: MixtureModel, subset) -> np.ndarray:
    """Log weights of the components in ``subset``, renormalized within it."""
    w = np.maximum(mixture.weights[np.asarray(subset)], POSTERIOR_FLOOR)
    return np.log(w / w.sum())


def _subset_params(mixture: MixtureModel, alpha_bar, subset, ndim: int) -> tuple:
    """The kernel's parameters for ``subset``: diffused means, variances, log weights.

    Components lie on a leading axis, and the levels' axes align with the
    trailing axes of an ``x`` of ``ndim`` dimensions, so all three broadcast
    against ``x``.
    """
    mu, var = diffused_params(mixture, alpha_bar)
    idx = np.asarray(subset)
    shape = (idx.size,) + (1,) * (ndim - mu.ndim + 1) + mu.shape[1:]
    return (mu[idx].reshape(shape), var[idx].reshape(shape),
            _log_weights(mixture, idx).reshape((-1,) + (1,) * ndim))


def _log_joints(params: tuple, x: np.ndarray) -> np.ndarray:
    """The component kernel: ``log(w_k N(x; mu_kt, var_kt))`` of each component.

    ``params`` is a :func:`_subset_params` triple; components lie on a leading
    axis, shape ``(K,) + x.shape``.  Levels broadcast against ``x``: params of
    ``alpha_bar`` shape ``(L, 1)`` against ``x`` of shape ``(L, n)`` put one
    level on each row, and shape ``(n,)`` against ``(n,)`` one level per
    point; either way every element sees the same arithmetic.
    """
    mu, var, log_w = params
    return -0.5 * (LOG_2PI + np.log(var) + (x - mu) ** 2 / var) + log_w


def _logsumexp(a: np.ndarray) -> np.ndarray:
    if len(a) == 1:  # exact: a finite row plus log(1)
        return a[0]
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def _softmax(a: np.ndarray) -> np.ndarray:
    if len(a) == 1:  # exact: exp(0) / 1 for a finite row
        return np.ones_like(a)
    e = np.exp(a - a.max(axis=0))
    return e / e.sum(axis=0)


def resolve_label(label, partition: Partition | None, num_components: int) -> tuple[int, ...]:
    """Map a conditioning label to the component subset it denotes.

    ``"null"`` means the full mixture, and ``"z0"``/``"z1"`` a side of
    ``partition``, which they require; any other label is an error.
    """
    if not isinstance(label, str) or label not in ("z0", "z1", "null"):
        raise ParameterError(f"unknown label {label!r}: the labels are 'z0', 'z1' and 'null'")
    if label == "null":
        return tuple(range(num_components))
    if partition is None:
        raise ParameterError(f"label {label!r} needs a partition")
    return partition.z0 if label == "z0" else partition.z1


def _score_terms(params: tuple, x: np.ndarray) -> tuple:
    """Posterior weights, pulls ``(mu_kt - x) / var_kt`` and variances, and the score.

    The one score formula, on a :func:`_subset_params` triple.  A
    one-component subset skips the log joints: its posterior weight is
    exactly 1, as the softmax of one row gives, and its score is its pull
    row plus +0.0: the bits of the weighted sum over that one row, which
    starts from +0.0 and so turns a -0.0 pull into +0.0.
    """
    mu, var, _ = params
    single = len(mu) == 1
    w = 1.0 if single else _softmax(_log_joints(params, x))
    pull = (mu - x) / var
    return w, pull, var, pull[0] + 0.0 if single else (w * pull).sum(axis=0)


def _label_terms(mixture: MixtureModel, alpha_bar, x, label, partition) -> tuple:
    """:func:`_score_terms` of the subset that ``label`` selects, at ``alpha_bar``."""
    subset = resolve_label(label, partition, mixture.num_components)
    x = np.asarray(x, dtype=np.float64)
    return _score_terms(_subset_params(mixture, alpha_bar, subset, x.ndim), x)


def _score_and_derivative(mixture: MixtureModel, alpha_bar, x, label="null",
                          partition: Partition | None = None) -> tuple:
    """:func:`score` and :func:`score_derivative` at ``x`` from one kernel pass.

    Arrays (or numpy scalars), bitwise equal to the two functions' values;
    ``alpha_bar`` may be an array of levels, as for the component kernel.
    """
    w, pull, var, first = _label_terms(mixture, alpha_bar, x, label, partition)
    return first, (w * (pull**2 - 1.0 / var)).sum(axis=0) - first**2


def score(mixture: MixtureModel, alpha_bar: float, x, label="null", partition: Partition | None = None):
    """Gradient of the log density of the (sub-)mixture selected by ``label``.

    For posterior weights ``w_k(x)`` within the subset this is
    ``sum_k w_k(x) * (mu_kt - x) / var_kt``, the exact conditional score.
    """
    out = _label_terms(mixture, alpha_bar, x, label, partition)[3]
    return float(out) if out.ndim == 0 else out


def score_derivative(mixture: MixtureModel, alpha_bar: float, x, label="null",
                     partition: Partition | None = None):
    """Spatial derivative of :func:`score`; the log density's curvature.

    Equals ``E_w[pull^2 - 1/var] - (E_w[pull])^2`` with ``pull = (mu - x)/var``,
    which root finding uses for Newton steps and stability classification.
    """
    out = _score_and_derivative(mixture, alpha_bar, x, label, partition)[1]
    return float(out) if out.ndim == 0 else out
