"""Monte-Carlo conditional-entropy estimation for score-based samplers.

This is the estimation path for models whose densities are not available:
two trajectory populations are denoised by ancestral sampling, one per side
of the binary decision, while each trajectory tracks its running posterior
P(z0 | x_t) from the gap between the two conditional denoising means.
Per step, the population means of the posterior's (negative) binary entropy
are combined with the decision priors into the entropy estimate.

A step forms each trajectory's own denoising mean ``m = (x - c eps_own) /
r`` (``c = beta_t / sqrt(1 - alpha_bar_t)``, ``r = sqrt(1 - beta_t)``,
``eps_own`` z0's prediction on z0's side, the complement's on z1's) and the
half-gap ``h = (mu_z0 - mu_z1) / 2 = c (eps_z1 - eps_z0) / (2 r)``.  As
``x' = m + sigma xi`` leaves ``x' - mu_own = sigma xi`` and ``x' - mu_other
= sigma xi +- 2 h`` (+ on z0's side), the filter's move of the log-odds of
z0, ``-(|x' - mu_z0|^2 - |x' - mu_z1|^2) / (2 beta_t)``, is exactly ``(2 /
beta_t) h (sigma xi +- h)``, without the cancellations ``x' - mu`` and
``mu_z0 - mu_z1``.

Both populations are stepped as one batch of n = n_z0 + n_z1 trajectories,
z0's first.  Each branch draws its noise from its own SFC64 stream, its child
of ``SeedSequence(seed).spawn(2)``: x_T, then one standard-normal vector per
step t > 1.  SFC64 draws a normal in ~10 ns against PCG64's ~14 ns, which
counts because a process on one CPU pays for both of the estimator's
threads.  Once x_T is drawn, one producer thread fills the batch's noise
rows, each row's two slices from the two streams, and scales each row by its
step's ``sigma = sqrt(beta_t)``, in blocks of ``NOISE_BLOCK_BYTES`` (256 KiB:
one row at n = 2x10^4), one block ahead of the caller's thread, which runs
the steps; the draws are those of each branch alone, so the noise is
unchanged.  The batch's arrays (states, log-odds, two work arrays, two noise
blocks) are allocated once and every step writes into them, so memory is
O(n) whatever the number of steps.

Any object with a pointwise ``epsilon(x, t, label) -> ndarray`` method (see
:class:`ScoreModel`) can drive the sampler; ``epsilon`` is the predicted
noise, ``eps = -sqrt(1 - alpha_bar_t) * d/dx log p(x_t | label)``.  The
estimator asks for the labels ``"z0"``, ``"z1"`` and ``"null"`` (the
unconditional model) at steps ``1..T``, the three columns of a replay file;
its ``complement`` option picks ``"z1"`` or ``"null"`` as the second
prediction.  The exact mixture oracle, which reads each step's kernel
parameters from tables built once, and a file-backed replay model are
provided.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition
from .entropy import LN2, _binary_entropy_bits, _logit_entropy_nats
from .mixture import _kernel_tables, _score_terms
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

# Bytes per block of noise rows that the producer thread draws ahead of the
# estimator: max(1, NOISE_BLOCK_BYTES // (8 n)) rows of the n = n_z0 + n_z1
# trajectories.  Two blocks are in flight, so this stays small.
NOISE_BLOCK_BYTES = 1 << 18


class ModelEvaluationError(RuntimeError):
    """A score model returned non-finite output or lacks data for a query."""


class ScoreModel(Protocol):
    def epsilon(self, x, t: int, label) -> np.ndarray:
        """Predicted noise for state ``x`` at step ``t`` under ``label``.

        The estimator asks only for steps ``1..T`` and for ``"z0"`` and either
        ``"z1"`` or, under its ``complement="null"``, ``"null"``.  ``x`` holds
        both populations, so a model must be pointwise: each trajectory's
        prediction depends on its own state alone, as in
        :class:`GmmScoreModel`, :class:`ReplayScoreModel` or any per-sample
        network.  ``x`` is the estimator's work buffer: it is valid only
        during the call, and the estimator overwrites it once it has read both
        of a step's predictions, so keep a copy, not a reference, of anything
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

    Construction tabulates, for steps 1..T, ``-sqrt(1 - alpha_bar_t)`` and one
    kernel table (diffused means, variances, log weights) per label of the
    ``REPLAY_LABELS``: ``"z0"`` and ``"z1"``, the sides of ``partition``, and
    ``"null"``, the full mixture.  A call runs only the kernel arithmetic on
    ``x``, and its prediction is ``-sqrt(1 - alpha_bar_t)`` times the score of
    the label's renormalized sub-mixture, scaled in the array that holds the
    score: a one-component label's prediction is one new array of ``x``'s
    size, as no buffer is kept from call to call.  A missing partition, or
    any other step or label, raises :class:`ParameterError`.
    """

    mixture: MixtureModel
    schedule: NoiseSchedule
    partition: Partition
    _tables: dict = field(init=False, repr=False, compare=False)
    _neg_roots: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.partition, Partition):
            raise ParameterError(f"the oracle needs a partition, got {self.partition!r}")
        tables = _kernel_tables(self.mixture, self.schedule.alpha_bars, self.partition.z0,
                                self.partition.z1, range(self.mixture.num_components))
        # Log weights shaped (components, 1) against a 1-d x.
        object.__setattr__(self, "_tables", {label: (mu, var, log_w[:, None])
                                             for label, (mu, var, log_w) in zip(REPLAY_LABELS, tables)})
        object.__setattr__(self, "_neg_roots", (-np.sqrt(1.0 - self.schedule.alpha_bars)).tolist())

    def epsilon(self, x, t: int, label) -> np.ndarray:
        num_steps = len(self._neg_roots)
        if label not in REPLAY_LABELS or not 0 < t <= num_steps:
            raise ParameterError(f"the oracle serves labels {REPLAY_LABELS} at steps 1..{num_steps}, "
                                 f"got label {label!r} at step t={t}")
        x = np.asarray(x, dtype=np.float64)
        mu, var, log_w = self._tables[label]
        # The step's column by basic indexing, a view shaped (components, 1): a
        # gather per call costs as much as the kernel arithmetic on a small x.
        params = (mu[:, t - 1, None], var[:, t - 1, None], log_w)
        if x.ndim != 1:
            params = tuple(p.reshape((-1,) + (1,) * x.ndim) for p in params)
        # The score is a new array (or a scalar), so the scaling writes into it.
        eps = _score_terms(params, x)[3]
        eps *= self._neg_roots[t - 1]
        return eps


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


def _as_prediction(eps, x, t: int, label) -> np.ndarray:
    """``eps`` as floats; another shape than ``x``'s raises."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x.shape:
        raise ModelEvaluationError(f"noise prediction of shape {eps.shape} for trajectories of "
                                   f"shape {x.shape} at t={t}, label={label!r}")
    return eps


def _step(x, logit, eps0, eps1, noise, coefs, parts, work, check) -> None:
    """One reverse step of the batch, written into ``x`` and ``logit``.

    ``coefs`` holds ``c``, ``c / (2 r)``, ``r`` and ``2 / beta_t`` of the
    module docstring.  ``x`` moves to its own mean ``(x - c eps) / r``, with
    ``eps0`` on ``parts[0]`` and ``eps1`` on ``parts[1]``, plus ``noise``, and
    the log-odds by ``(2 / beta_t) h (noise +- h)``, + on ``parts[0]``, with
    ``h = (eps1 - eps0) * (c / (2 r))``, clipped to ``+-LOGIT_MAX``; ``work``
    takes the temporaries.  Both predictions are read before ``x`` is written,
    so either may alias it; ``check()`` runs first if ``h`` is not finite.
    """
    coef, half_coef, root, weight = coefs
    half, tmp = work
    np.multiply(np.subtract(eps1, eps0, out=half), half_coef, out=half)
    if not np.isfinite(np.add.reduce(half)):  # one pass; any NaN or inf shows in the sum
        check()
    for eps, part in zip((eps0, eps1), parts):
        np.multiply(eps[part], coef, out=tmp[part])
    np.add(np.divide(np.subtract(x, tmp, out=x), root, out=x), noise, out=x)
    z0, z1 = parts
    np.add(noise[z0], half[z0], out=tmp[z0])
    np.subtract(noise[z1], half[z1], out=tmp[z1])
    np.multiply(np.multiply(tmp, half, out=tmp), weight, out=tmp)
    np.clip(np.add(logit, tmp, out=logit), -LOGIT_MAX, LOGIT_MAX, out=logit)


class _NoiseRows:
    """Successive noise rows, one per entry of ``sds``, drawn one block ahead.

    A row holds ``n = parts[-1].stop`` values: its slice ``parts[i]`` is
    ``rngs[i]``'s next standard-normal draw, and the producer scales the row
    by its entry of ``sds``.  A block holds ``max(1, NOISE_BLOCK_BYTES // (8 n))``
    rows, and two are in flight.  As a context manager it starts a producer
    thread that fills the blocks in turn, and on leaving it stops and joins
    the producer, however the caller's loop ended.  The producer owns block
    ``b`` from taking ``_free[b]`` until the caller has read the block, and
    the caller may take ``_filled[b]`` once the block is drawn.
    """

    def __init__(self, rngs, parts, sds):
        n, count = parts[-1].stop, len(sds)
        rows = max(1, min(count, NOISE_BLOCK_BYTES // (8 * n)))
        self._blocks = np.empty((2, rows, n))
        self._draws = list(zip(rngs, parts))
        self._sds = iter(sds)
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
            for row in self._blocks[j % 2, :size]:
                for rng, part in self._draws:
                    rng.standard_normal(out=row[part])
                np.multiply(row, next(self._sds), out=row)
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
        """Yield the rows in order, then a spare row of zeros that no draw overwrites.

        A row is the caller's work space until it asks for the next one; the
        spare row is the noise, and then work space, of a step without noise.
        """
        for j, size in enumerate(self._sizes):
            self._filled[j % 2].acquire()
            yield from self._blocks[j % 2, :size]
            # The caller has asked past the block's last row, so it is free.
            self._free[j % 2].release()
        self._blocks[0, 0].fill(0.0)
        yield self._blocks[0, 0]


@dataclass(frozen=True, eq=False)
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


def _check_sample_counts(n_z0: int, n_z1: int) -> None:
    """Raise ``ParameterError`` unless the estimator can size a batch of ``n_z0 + n_z1``."""
    if n_z0 < 1 or n_z1 < 1:
        raise ParameterError("both sample counts must be >= 1")
    if 8 * (n_z0 + n_z1) > np.iinfo(np.intp).max:  # an array of n float64 values has 8 n bytes
        raise ParameterError(f"sample counts {n_z0} + {n_z1} exceed any address space")


def estimate_conditional_entropy(score_model: ScoreModel, schedule: NoiseSchedule,
                                 prior_z0: float = 0.5, n_z0: int = 1000, n_z1: int = 1000,
                                 seed: int = 0, complement: str = "exact") -> McEntropyEstimate:
    """Run the full two-population estimator and return the ``H_{T..0}`` series.

    Each step asks ``score_model`` for two predictions: ``"z0"``, and the
    complement's, which is ``"z1"`` for ``complement="exact"`` and the
    unconditional ``"null"`` for ``complement="null"``, the two-forward-pass
    approximation of one-vs-rest decisions.

    Both populations start from a standard normal at ``t = T`` with the
    posterior initialized to the prior.  Each reverse step (Ho et al.,
    NeurIPS 2020, section 3.2) moves a branch to its own denoising mean ``(x
    - beta_t / sqrt(1 - alpha_bar_t) * eps) / sqrt(1 - beta_t)`` plus ``sigma
    xi = sqrt(beta_t) * N(0, 1)`` noise (none at the final step ``t = 1``),
    moves the log-odds of z0 by ``-(|x' - mu_z0|^2 - |x' - mu_z1|^2) / (2
    beta_t)``, computed as ``(2 / beta_t) h (sigma xi +- h)`` from the
    half-gap ``h`` of the two means (module docstring) and clipped to
    ``+-LOGIT_MAX``, and records the population entropy summand, summed in
    nats and converted to bits.  ``1 / (2 beta_t)`` is the exact
    Gaussian-filter weight for a transition of variance ``beta_t``.

    Both populations are one batch, z0's ``n_z0`` trajectories first, and
    every call of ``score_model.epsilon`` is handed its one state buffer,
    which the step overwrites after both predictions are read (see
    :class:`ScoreModel`).  Branch ``i`` (0 for z0, 1 for z1) draws from one
    stream, ``Generator(SFC64(SeedSequence(seed).spawn(2)[i]))``: first x_T
    as ``standard_normal(n_i)``, then one ``standard_normal(n_i)`` per step
    t > 1, which one producer thread draws for both branches and scales by
    ``sqrt(beta_t)``, one block of ``NOISE_BLOCK_BYTES`` ahead.  Memory is
    O(n_z0 + n_z1), independent of the number of steps.
    """
    _check_sample_counts(n_z0, n_z1)
    if not 0.0 < prior_z0 < 1.0:
        raise ParameterError(f"prior_z0 must lie strictly inside (0, 1), got {prior_z0!r}")
    if complement not in ("exact", "null"):
        raise ParameterError(f"complement must be 'exact' or 'null', got {complement!r}")
    other = "z1" if complement == "exact" else "null"
    num_steps = schedule.num_steps
    prior_logit = np.log(prior_z0) - np.log1p(-prior_z0)
    prior_summand = -_binary_entropy_bits(prior_z0)
    # Step t's scalars sit at index t - 1.
    betas = schedule.betas
    coefs = betas / np.sqrt(1.0 - schedule.alpha_bars)
    roots = np.sqrt(1.0 - betas)
    step_coefs = list(zip(coefs.tolist(), (coefs / (2.0 * roots)).tolist(), roots.tolist(),
                          (2.0 / betas).tolist()))

    # One batch: z0's trajectories, then z1's; each branch's values are its slice.
    n = n_z0 + n_z1
    parts = z0, z1 = slice(0, n_z0), slice(n_z0, n)
    rngs = [np.random.Generator(np.random.SFC64(s)) for s in np.random.SeedSequence(seed).spawn(2)]
    x = np.empty(n)
    for rng, part in zip(rngs, parts):
        rng.standard_normal(out=x[part])
    logit = np.full(n, prior_logit)
    work = np.empty(n), np.empty(n)
    summands = np.full((2, num_steps + 1), prior_summand)

    def scan():  # the step's check, run only when the half-gap is not finite
        for eps, label in ((eps0, "z0"), (eps1, other)):
            if not np.isfinite(eps).all():
                bad = int(np.flatnonzero(~np.isfinite(eps))[0])
                who = f"z0 trajectory {bad}" if bad < n_z0 else f"z1 trajectory {bad - n_z0}"
                raise ModelEvaluationError(f"non-finite noise prediction for {who} at "
                                           f"x={float(x[bad])!r}, t={t}, label={label!r}")

    # Rows for steps T..2, each scaled by its step's sqrt(beta_t).
    with _NoiseRows(rngs, parts, np.sqrt(betas[:0:-1]).tolist()) as noise_rows:
        rows = noise_rows.rows()
        for t in range(num_steps, 0, -1):
            i = t - 1
            eps0 = _as_prediction(score_model.epsilon(x, t, "z0"), x, t, "z0")
            eps1 = _as_prediction(score_model.epsilon(x, t, other), x, t, other)
            noise = next(rows)
            _step(x, logit, eps0, eps1, noise, step_coefs[i], parts, work, scan)
            h = _logit_entropy_nats(logit, work=(*work, noise))
            summands[0, i] = -float(np.add.reduce(h[z0])) / n_z0 / LN2
            summands[1, i] = -float(np.add.reduce(h[z1])) / n_z1 / LN2

    steps = np.arange(num_steps + 1)
    h_z0, h_z1 = summands
    h_bits = -(prior_z0 * h_z0 + (1.0 - prior_z0) * h_z1)
    return McEntropyEstimate(
        steps=steps,
        s=steps / float(num_steps),
        H_bits=h_bits,
        h_z0=h_z0,
        h_z1=h_z1,
        n_z0=n_z0,
        n_z1=n_z1,
        seed=seed,
        prior_z0=prior_z0,
    )
