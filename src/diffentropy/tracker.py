"""Monte-Carlo conditional-entropy estimation for score-based samplers.

This is the estimation path for models whose densities are not available:
two trajectory populations are denoised by ancestral sampling, one per side
of the binary decision, while each trajectory tracks its running posterior
P(z0 | x_t) from the discrepancy between the two conditional denoising means.
Per step, the population means of the posterior's (negative) binary entropy
are combined with the decision priors into the entropy estimate.

Each branch draws all its noise from one PCG64 stream, its child of
``SeedSequence(seed).spawn(2)``: x_T, then one standard-normal vector per step
t > 1.  Once x_T is drawn, a producer thread of the branch draws the per-step
vectors in blocks of ``NOISE_BLOCK_BYTES`` (256 KiB), one block ahead of the
caller's thread, which runs the steps; they are the same draws in the same
order, so outputs are unchanged.  The score model is called only from the
caller's thread, so it needs no thread safety.  Each branch allocates its
n-sized arrays (states, log-odds, both denoising means, two noise blocks)
once, and every step writes into them, so the estimator's memory is O(n)
whatever the number of steps.

Any object with an ``epsilon(x, t, label) -> ndarray`` method can drive the
sampler; ``epsilon`` is the predicted noise, related to the conditional score
by ``eps = -sqrt(1 - alpha_bar_t) * d/dx log p(x_t | label)``.  The estimator
asks for the labels ``"z0"``, ``"z1"`` and ``"null"`` (the unconditional
model) at steps ``1..T``, the three columns of a replay file; its
``complement`` option picks ``"z1"`` or ``"null"`` as the second prediction.
The exact mixture oracle, which reads each step's kernel parameters from
tables built once, and a file-backed replay model are provided.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition
from .entropy import _logit_entropy_bits, binary_entropy_bits
from .mixture import _log_weights, _score_terms, diffused_params, resolve_label
# Unused here, but perfbench/tracing.py wraps it under this name.
from .mixture import score  # noqa: F401

__all__ = [
    "ModelEvaluationError",
    "ScoreModel",
    "GmmScoreModel",
    "ReplayScoreModel",
    "write_replay_csv",
    "McEntropyEstimate",
    "estimate_conditional_entropy",
]

# Tracked posteriors are clamped into [POST_CLAMP, 1 - POST_CLAMP], as a clip
# of their log-odds to +-LOGIT_MAX; the update saturates instead of overflowing.
POST_CLAMP = 1e-12
LOGIT_MAX = float(np.log((1.0 - POST_CLAMP) / POST_CLAMP))

REPLAY_LABELS = ("z0", "z1", "null")

# Bytes per block of noise rows that a branch's producer thread draws ahead of
# the estimator: max(1, NOISE_BLOCK_BYTES // (8 n)) rows.  Two blocks are in
# flight per branch, so this stays small.
NOISE_BLOCK_BYTES = 1 << 18


class ModelEvaluationError(RuntimeError):
    """A score model returned non-finite output or lacks data for a query."""


class ScoreModel(Protocol):
    def epsilon(self, x, t: int, label) -> np.ndarray:
        """Predicted noise for state ``x`` at step ``t`` under ``label``.

        The estimator asks only for steps ``1..T`` and for ``"z0"`` and either
        ``"z1"`` or, under its ``complement="null"``, ``"null"``.
        ``x`` is the estimator's work buffer: it is valid only during the
        call, and the estimator overwrites it once it has read both of a
        step's predictions, so keep a copy, not a reference, of anything
        needed later.  The returned array is only read, never written, so a
        model may return its input, a view of it, or an array it caches.  A
        model may also build per-step state once, as :class:`GmmScoreModel`
        tabulates each step's kernel parameters, so a call does only the
        arithmetic on ``x``.
        The estimator calls it only from the caller's thread, never from the
        producer that draws its noise ahead, so a model needs no thread safety.
        """
        ...


@dataclass(frozen=True)
class GmmScoreModel:
    """Exact noise predictions from a mixture's closed-form conditional scores.

    Construction tabulates, for steps 1..T, ``-sqrt(1 - alpha_bar_t)`` and the
    kernel's parameters (diffused means, variances, log weights) of each of
    the ``REPLAY_LABELS``: ``"z0"`` and ``"z1"``, the sides of ``partition``,
    and ``"null"``, the full mixture.  A call runs only the kernel arithmetic
    on ``x``, and its prediction is ``-sqrt(1 - alpha_bar_t) * score(...)``,
    bitwise.  Any other step or label raises :class:`ParameterError`.
    """

    mixture: MixtureModel
    schedule: NoiseSchedule
    partition: Partition
    _tables: dict = field(init=False, repr=False, compare=False)
    _neg_roots: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, var = diffused_params(self.mixture, self.schedule.alpha_bars)
        tables = {}
        for label in REPLAY_LABELS:
            idx = list(resolve_label(label, self.partition, self.mixture.num_components))
            # Row t - 1 holds step t, shaped (components, 1) against a 1-d x.
            tables[label] = (mu[idx].T[..., None].copy(), var[idx].T[..., None].copy(),
                             _log_weights(self.mixture, idx)[:, None])
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_neg_roots", (-np.sqrt(1.0 - self.schedule.alpha_bars)).tolist())

    def epsilon(self, x, t: int, label) -> np.ndarray:
        num_steps = len(self._neg_roots)
        if label not in REPLAY_LABELS or not 0 < t <= num_steps:
            raise ParameterError(f"the oracle serves labels {REPLAY_LABELS} at steps 1..{num_steps}, "
                                 f"got label {label!r} at step t={t}")
        x = np.asarray(x, dtype=np.float64)
        mu, var, log_w = self._tables[label]
        params = (mu[t - 1], var[t - 1], log_w)
        if x.ndim != 1:
            params = tuple(p.reshape((-1,) + (1,) * x.ndim) for p in params)
        return self._neg_roots[t - 1] * _score_terms(params, x)[3]


class ReplayScoreModel:
    """Noise predictions interpolated from a precomputed per-step grid.

    The backing CSV has columns ``t, x, eps_z0, eps_z1, eps_null`` (comment
    lines starting with ``#`` are skipped).  Queries interpolate linearly in
    ``x`` within the stored step and clamp outside the grid, so externally
    trained models can be evaluated without linking their runtime.
    """

    def __init__(self, table: dict[int, dict[str, np.ndarray]]):
        self._table = table

    @classmethod
    def from_csv(cls, path) -> "ReplayScoreModel":
        """Load a replay table; a malformed file raises :class:`ModelEvaluationError`.

        Malformed means: empty or not text, a wrong header, a row without five
        fields, a value that is not a finite number, a non-integer ``t``, or
        an ``x`` that a step holds twice.
        """
        expected = ["t", "x", "eps_z0", "eps_z1", "eps_null"]
        header = None
        rows: dict[int, list[tuple[float, float, float, float]]] = {}
        with open(path, newline="") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as err:
                raise ModelEvaluationError(f"replay file {path} is not text: {err}") from None
        for num, line in enumerate(lines, 1):
            if line.startswith("#"):
                continue
            fields = [field.strip() for field in line.split(",")]
            if header is None:
                header = fields
                if header != expected:
                    raise ModelEvaluationError(
                        f"replay file {path}, line {num}: header must be {expected}, got {header}")
                continue
            try:
                if len(fields) != len(expected):
                    raise ValueError(f"expected {len(expected)} fields, got {len(fields)}")
                t = int(fields[0])
                values = tuple(float(v) for v in fields[1:])
            except ValueError as err:
                raise ModelEvaluationError(f"replay file {path}, line {num}: {err}") from None
            rows.setdefault(t, []).append(values)
        if header is None:
            raise ModelEvaluationError(f"replay file {path} is empty: no header line")
        table: dict[int, dict[str, np.ndarray]] = {}
        for t, entries in rows.items():
            entries.sort()
            cols = np.asarray(entries, dtype=np.float64)
            # Interpolation needs finite values, each step's x strictly increasing.
            finite = np.isfinite(cols).all(axis=1)
            if not finite.all():
                raise ModelEvaluationError(
                    f"replay file {path}, step t={t}: the row {cols[~finite][0].tolist()} "
                    "holds a value that is not finite")
            twice = cols[1:, 0] == cols[:-1, 0]
            if np.any(twice):
                raise ModelEvaluationError(
                    f"replay file {path}, step t={t}: x={float(cols[1:, 0][twice][0])!r} "
                    "appears on two rows")
            table[t] = {"x": cols[:, 0], "z0": cols[:, 1], "z1": cols[:, 2], "null": cols[:, 3]}
        if not table:
            raise ModelEvaluationError(f"replay file {path} holds no data rows")
        return cls(table)

    def epsilon(self, x, t: int, label) -> np.ndarray:
        if label not in REPLAY_LABELS:
            raise ModelEvaluationError(f"replay models only store labels {REPLAY_LABELS}, got {label!r}")
        if t not in self._table:
            raise ModelEvaluationError(f"replay file has no rows for step t={t}")
        entry = self._table[t]
        return np.interp(np.asarray(x, dtype=np.float64), entry["x"], entry[label])


def write_replay_csv(path, model: ScoreModel, schedule: NoiseSchedule, x_grid,
                     steps=None) -> None:
    """Tabulate ``model`` on ``x_grid`` at the given steps (default: all)."""
    x_grid = np.asarray(x_grid, dtype=np.float64)
    if steps is None:
        steps = range(1, schedule.num_steps + 1)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,eps_z0,eps_z1,eps_null\n")
        for t in steps:
            cols = [np.asarray(model.epsilon(x_grid, int(t), lab)) for lab in REPLAY_LABELS]
            for i, x in enumerate(x_grid):
                fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (t, x, cols[0][i], cols[1][i], cols[2][i]))


def _check_finite(eps: np.ndarray, x, t: int, label) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    if not np.isfinite(eps).all():
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(eps)))[0])
        xval = np.atleast_1d(np.asarray(x))[bad] if np.ndim(x) else x
        raise ModelEvaluationError(
            f"non-finite noise prediction at x={xval!r}, t={t}, label={label!r}"
        )
    return eps


def _denoising_mean(x, eps, coef: float, root: float, out):
    """``(x - coef * eps) / root``, written into ``out``.

    ``coef = beta_t / sqrt(1 - alpha_bar_t)`` and ``root = sqrt(1 - beta_t)``;
    ``out`` may be neither ``x`` nor ``eps``.
    """
    return np.divide(np.subtract(x, np.multiply(coef, eps, out=out), out=out), root, out=out)


def _logit_update(logit, x_next, mu_z0, mu_z1, scale: float, out, work) -> np.ndarray:
    """The tracked log-odds of z0 after one step, clipped to ``+-LOGIT_MAX``.

    The log-odds move by ``-scale * (|x_next - mu_z0|^2 - |x_next - mu_z1|^2)``.
    ``out`` takes the result and may be ``logit``; ``work`` names two arrays
    shaped like ``x_next`` that take the temporaries, and these may be
    ``mu_z0`` and ``mu_z1`` themselves, in that order.
    """
    w0, w1 = work
    d0 = np.square(np.subtract(x_next, mu_z0, out=w0), out=w0)
    d1 = np.square(np.subtract(x_next, mu_z1, out=w1), out=w1)
    step = np.multiply(scale, np.subtract(d0, d1, out=w0), out=w0)
    moved = np.subtract(logit, step, out=out)
    return np.minimum(np.maximum(moved, -LOGIT_MAX, out=out), LOGIT_MAX, out=out)


class _NoiseRows:
    """``count`` successive ``rng.standard_normal(n)`` rows, drawn one block ahead.

    A block holds ``max(1, NOISE_BLOCK_BYTES // (8 n))`` rows, and two are in
    flight.  As a context manager it starts a producer thread that fills the
    blocks in turn, and on leaving it stops and joins the producer, however
    the caller's loop ended.  The producer owns block ``b`` from taking
    ``_free[b]`` until the caller has read the block, and the caller may take
    ``_filled[b]`` once the block is drawn.
    """

    def __init__(self, rng, n: int, count: int):
        rows = max(1, min(count, NOISE_BLOCK_BYTES // (8 * n)))
        self._rng = rng
        self._blocks = np.empty((2, rows, n))
        self._sizes = [min(rows, count - start) for start in range(0, count, rows)]
        self._free = (threading.Lock(), threading.Lock())
        self._filled = (threading.Lock(), threading.Lock())
        for lock in self._filled:
            lock.acquire()
        self._stop = False
        self._producer = threading.Thread(target=self._produce)

    def _produce(self):
        for j, size in enumerate(self._sizes):
            self._free[j % 2].acquire()
            if self._stop:
                return
            self._rng.standard_normal(out=self._blocks[j % 2, :size])
            self._filled[j % 2].release()

    def __enter__(self):
        self._producer.start()
        return self

    def __exit__(self, *exc_info):
        self._stop = True
        # Only the caller releases a free lock, so one held now stays held
        # until this release; it wakes a producer waiting for that block.
        for lock in self._free:
            if lock.locked():
                lock.release()
        self._producer.join()

    def rows(self):
        """Yield the rows in order, then a spare row that no later draw overwrites.

        A row is the caller's work space until it asks for the next one, and
        the spare row is work space for a step without noise.
        """
        for j, size in enumerate(self._sizes):
            self._filled[j % 2].acquire()
            yield from self._blocks[j % 2, :size]
            # The caller has asked past the block's last row, so it is free.
            self._free[j % 2].release()
        yield self._blocks[0, 0]


@dataclass(frozen=True)
class McEntropyEstimate:
    """Monte-Carlo conditional-entropy series, indexed by step ``t = 0..T``.

    ``h_z0``/``h_z1`` keep the per-branch population means of
    ``p log2 p + (1-p) log2 (1-p)`` (negative numbers); the combined series is
    ``H_bits = -(prior_z0 * h_z0 + (1 - prior_z0) * h_z1)``.
    """

    steps: np.ndarray
    s: np.ndarray
    H_bits: np.ndarray
    h_z0: np.ndarray
    h_z1: np.ndarray
    n_z0: int
    n_z1: int
    seed: int
    prior_z0: float

    def __post_init__(self):
        n = self.steps.size
        for name in ("s", "H_bits", "h_z0", "h_z1"):
            if np.asarray(getattr(self, name)).shape != (n,):
                raise ParameterError(f"{name} must match steps shape ({n},)")


def estimate_conditional_entropy(score_model: ScoreModel, schedule: NoiseSchedule,
                                 prior_z0: float = 0.5, n_z0: int = 1000, n_z1: int = 1000,
                                 seed: int = 0, complement: str = "exact") -> McEntropyEstimate:
    """Run the full two-population estimator and return the ``H_{T..0}`` series.

    Each step asks ``score_model`` for two predictions: ``"z0"``, and the
    complement's, which is ``"z1"`` for ``complement="exact"`` and the
    unconditional ``"null"`` for ``complement="null"``, the two-forward-pass
    approximation of one-vs-rest decisions.

    Both populations start from a standard normal at ``t = T`` with the
    posterior initialized to the prior.  Each reverse step moves a branch to
    its own denoising mean ``(x - beta_t / sqrt(1 - alpha_bar_t) * eps) /
    sqrt(1 - beta_t)`` plus ``sqrt(beta_t) * N(0, 1)`` noise (none at the
    final step ``t = 1``), moves the log-odds of z0 by ``-(|x - mu_z0|^2 -
    |x - mu_z1|^2) / (2 beta_t)``, clipped to ``+-LOGIT_MAX``, and records the
    population entropy summand.  ``1 / (2 beta_t)`` is the exact
    Gaussian-filter weight for a transition of variance ``beta_t``.

    Branch ``i`` (0 for z0, 1 for z1) draws from one stream,
    ``Generator(PCG64(SeedSequence(seed).spawn(2)[i]))``: first x_T as
    ``standard_normal(n)``, then one ``standard_normal(n)`` per step t > 1,
    which a producer thread draws one block of ``NOISE_BLOCK_BYTES`` ahead.
    Memory is O(n), independent of the number of steps.  Every call of
    ``score_model.epsilon`` is handed the branch's one state buffer, which
    the step overwrites after both predictions are read (see
    :class:`ScoreModel`).
    """
    if n_z0 < 1 or n_z1 < 1:
        raise ParameterError("both sample counts must be >= 1")
    if not 0.0 < prior_z0 < 1.0:
        raise ParameterError(f"prior_z0 must lie strictly inside (0, 1), got {prior_z0!r}")
    if complement not in ("exact", "null"):
        raise ParameterError(f"complement must be 'exact' or 'null', got {complement!r}")
    other = "z1" if complement == "exact" else "null"
    num_steps = schedule.num_steps
    prior_logit = np.log(prior_z0) - np.log1p(-prior_z0)
    prior_summand = -binary_entropy_bits(prior_z0)
    # Step t's scalars sit at index t - 1.
    betas = schedule.betas
    scales = (1.0 / (2.0 * betas)).tolist()
    coefs = (betas / np.sqrt(1.0 - schedule.alpha_bars)).tolist()
    roots = np.sqrt(1.0 - betas).tolist()
    noise_sds = np.sqrt(betas).tolist()

    branch_means = []
    branch_seqs = np.random.SeedSequence(seed).spawn(2)
    for branch_seq, label, n in zip(branch_seqs, ("z0", "z1"), (n_z0, n_z1)):
        rng = np.random.Generator(np.random.PCG64(branch_seq))
        x = rng.standard_normal(n)
        logit = np.full(n, prior_logit)
        mu0, mu1 = np.empty(n), np.empty(n)
        own = mu0 if label == "z0" else mu1
        summand = np.empty(num_steps + 1)
        summand[num_steps] = prior_summand
        with _NoiseRows(rng, n, num_steps - 1) as noise_rows:
            rows = noise_rows.rows()
            for t in range(num_steps, 0, -1):
                i = t - 1
                eps0 = _check_finite(score_model.epsilon(x, t, "z0"), x, t, "z0")
                eps1 = _check_finite(score_model.epsilon(x, t, other), x, t, other)
                _denoising_mean(x, eps0, coefs[i], roots[i], out=mu0)
                _denoising_mean(x, eps1, coefs[i], roots[i], out=mu1)
                # Both predictions are read, so x (which they may alias) is free.
                noise = next(rows)
                if t > 1:
                    np.add(own, np.multiply(noise_sds[i], noise, out=noise), out=x)
                else:
                    np.copyto(x, own)
                _logit_update(logit, x, mu0, mu1, scales[i], out=logit, work=(mu0, mu1))
                h = _logit_entropy_bits(logit, work=(mu0, mu1, noise))
                summand[i] = -float(np.add.reduce(h) / n)
        branch_means.append(summand)

    steps = np.arange(num_steps + 1)
    h_bits = -(prior_z0 * branch_means[0] + (1.0 - prior_z0) * branch_means[1])
    return McEntropyEstimate(
        steps=steps,
        s=steps / float(num_steps),
        H_bits=h_bits,
        h_z0=branch_means[0],
        h_z1=branch_means[1],
        n_z0=n_z0,
        n_z1=n_z1,
        seed=seed,
        prior_z0=prior_z0,
    )
