"""Monte-Carlo conditional-entropy estimation for score-based samplers.

This is the estimation path for models whose densities are not available:
two trajectory populations are denoised by ancestral sampling, one per side
of the binary decision, while each trajectory tracks its running posterior
P(z0 | x_t) from the discrepancy between the two conditional denoising means.
Per step, the population means of the posterior's (negative) binary entropy
are combined with the decision priors into the entropy estimate.

Each branch draws all its noise from one PCG64 stream, its child of
``SeedSequence(seed).spawn(2)``: x_T, then one standard-normal vector per step
t > 1, the draws :func:`ancestral_step` makes with that generator; the
estimator's memory is O(n) whatever the number of steps.

Any object with an ``epsilon(x, t, label) -> ndarray`` method can drive the
sampler; ``epsilon`` is the predicted noise, related to the conditional score
by ``eps = -sqrt(1 - alpha_bar_t) * d/dx log p(x_t | label)``.  The exact
mixture oracle and a file-backed replay model are provided.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, Partition
from .entropy import _logit_entropy_bits, binary_entropy_bits
from .mixture import score

__all__ = [
    "ModelEvaluationError",
    "ScoreModel",
    "GmmScoreModel",
    "ReplayScoreModel",
    "write_replay_csv",
    "TrajectoryState",
    "McEntropyEstimate",
    "posterior_mean",
    "ancestral_step",
    "posterior_update",
    "estimate_conditional_entropy",
]

# Tracked posteriors are clamped into [POST_CLAMP, 1 - POST_CLAMP], as a clip
# of their log-odds to +-LOGIT_MAX; the update saturates instead of overflowing.
POST_CLAMP = 1e-12
LOGIT_MAX = float(np.log((1.0 - POST_CLAMP) / POST_CLAMP))

REPLAY_LABELS = ("z0", "z1", "null")


class ModelEvaluationError(RuntimeError):
    """A score model returned non-finite output or lacks data for a query."""


class ScoreModel(Protocol):
    def epsilon(self, x, t: int, label) -> np.ndarray:
        """Predicted noise for state ``x`` at step ``t`` under ``label``."""
        ...


@dataclass(frozen=True)
class GmmScoreModel:
    """Exact noise predictions from a mixture's closed-form conditional scores.

    ``complement_mode="null"`` replaces the ``"z1"`` conditional with the
    unconditional (full mixture) score, the two-forward-pass approximation
    used for one-vs-rest decisions; ``"exact"`` uses the true complement
    sub-mixture.
    """

    mixture: MixtureModel
    schedule: NoiseSchedule
    partition: Partition | None = None
    complement_mode: str = "exact"

    def __post_init__(self):
        if self.complement_mode not in ("exact", "null"):
            raise ParameterError(f"complement_mode must be 'exact' or 'null', got {self.complement_mode!r}")

    def epsilon(self, x, t: int, label) -> np.ndarray:
        ab = self.schedule.alpha_bar(t)
        if label == "z1" and self.complement_mode == "null":
            label = "null"
        grad = score(self.mixture, ab, x, label=label, partition=self.partition)
        return -np.sqrt(1.0 - ab) * np.asarray(grad)


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
        rows: dict[int, list[tuple[float, float, float, float]]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader)
            expected = ["t", "x", "eps_z0", "eps_z1", "eps_null"]
            if [h.strip() for h in header] != expected:
                raise ModelEvaluationError(f"replay header must be {expected}, got {header}")
            for row in reader:
                t = int(row[0])
                rows.setdefault(t, []).append(tuple(float(v) for v in row[1:]))
        table: dict[int, dict[str, np.ndarray]] = {}
        for t, entries in rows.items():
            entries.sort()
            cols = np.asarray(entries, dtype=np.float64)
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


@dataclass(frozen=True)
class TrajectoryState:
    """One branch population mid-denoising: states, log posteriors, clock."""

    x: np.ndarray
    log_post_z0: np.ndarray
    t: int
    branch: str

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=np.float64))
        lp = np.atleast_1d(np.asarray(self.log_post_z0, dtype=np.float64))
        if x.shape != lp.shape:
            raise ParameterError(f"x and log_post_z0 shapes differ: {x.shape} vs {lp.shape}")
        if np.any(lp > 0.0):
            raise ParameterError("log posteriors must be <= 0")
        if self.branch not in ("z0", "z1"):
            raise ParameterError(f"branch must be 'z0' or 'z1', got {self.branch!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "log_post_z0", lp)


def _check_finite(eps: np.ndarray, x, t: int, label) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all(np.isfinite(eps)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(eps)))[0])
        xval = np.atleast_1d(np.asarray(x))[bad] if np.ndim(x) else x
        raise ModelEvaluationError(
            f"non-finite noise prediction at x={xval!r}, t={t}, label={label!r}"
        )
    return eps


def posterior_mean(score_model: ScoreModel, x, t: int, label, schedule: NoiseSchedule):
    """Denoising mean ``(x - beta_t / sqrt(1 - alpha_bar_t) * eps) / sqrt(1 - beta_t)``."""
    if not 1 <= t <= schedule.num_steps:
        raise ParameterError(f"step {t} outside [1, {schedule.num_steps}]")
    beta = schedule.beta(t)
    ab = schedule.alpha_bar(t)
    eps = _check_finite(score_model.epsilon(x, t, label), x, t, label)
    return (np.asarray(x, dtype=np.float64) - beta / np.sqrt(1.0 - ab) * eps) / np.sqrt(1.0 - beta)


def ancestral_step(rng: np.random.Generator, state: TrajectoryState,
                   score_model: ScoreModel, schedule: NoiseSchedule) -> TrajectoryState:
    """Advance one reverse step under the branch's own conditional mean.

    Noise ``sqrt(beta_t) * N(0, 1)`` is added except at the final step
    ``t = 1``, which is deterministic.  The carried posterior is unchanged;
    apply :func:`posterior_update` with both conditional means to refresh it.
    """
    t = state.t
    mu = posterior_mean(score_model, state.x, t, state.branch, schedule)
    if t > 1:
        mu = mu + np.sqrt(schedule.beta(t)) * rng.standard_normal(state.x.shape)
    return TrajectoryState(x=mu, log_post_z0=state.log_post_z0, t=t - 1, branch=state.branch)


def _update_scale(update_scale, beta: float) -> float:
    if update_scale == "bayes":
        # Exact Gaussian-filter weight for a transition of variance beta_t.
        return 1.0 / (2.0 * beta)
    if update_scale == "one-minus-beta":
        return 1.0 / (1.0 - beta)
    return float(update_scale)


def _logit_update(logit, x_next, mu_z0, mu_z1, beta_t: float, update_scale) -> np.ndarray:
    """The tracked log-odds of z0 after one step, clipped to ``+-LOGIT_MAX``."""
    delta = (x_next - mu_z0) ** 2 - (x_next - mu_z1) ** 2
    return np.clip(logit - _update_scale(update_scale, beta_t) * delta, -LOGIT_MAX, LOGIT_MAX)


def posterior_update(state: TrajectoryState, x_next, mu_z0, mu_z1, beta_t: float,
                     update_scale="bayes") -> np.ndarray:
    """Refresh ``log P(z0 | x)`` after observing the sampled next state.

    The log-odds of z0 move by ``-scale * (|x - mu_z0|^2 - |x - mu_z1|^2)``
    and are clipped to ``+-LOGIT_MAX``, which keeps the posterior within
    ``[POST_CLAMP, 1 - POST_CLAMP]``.  ``update_scale`` picks the exponent weight: ``"bayes"``
    uses ``1 / (2 beta_t)``, ``"one-minus-beta"`` uses ``1 / (1 - beta_t)``, and
    a float is used verbatim.
    """
    lp = state.log_post_z0
    logit = _logit_update(lp - np.log(-np.expm1(lp)), np.asarray(x_next), np.asarray(mu_z0),
                          np.asarray(mu_z1), beta_t, update_scale)
    return -np.logaddexp(0.0, -logit)


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
    update_scale: object = "bayes"

    def __post_init__(self):
        n = self.steps.size
        for name in ("s", "H_bits", "h_z0", "h_z1"):
            if np.asarray(getattr(self, name)).shape != (n,):
                raise ParameterError(f"{name} must match steps shape ({n},)")


def estimate_conditional_entropy(score_model: ScoreModel, schedule: NoiseSchedule,
                                 prior_z0: float = 0.5, n_z0: int = 1000, n_z1: int = 1000,
                                 seed: int = 0, update_scale="bayes") -> McEntropyEstimate:
    """Run the full two-population estimator and return the ``H_{T..0}`` series.

    Both populations start from a standard normal at ``t = T`` with the
    posterior initialized to the prior; each reverse step advances a branch
    under its own conditional mean, refreshes the tracked posteriors from both
    conditional means, and records the population entropy summand.

    Branch ``i`` (0 for z0, 1 for z1) draws from one stream,
    ``Generator(PCG64(SeedSequence(seed).spawn(2)[i]))``: first x_T as
    ``standard_normal(n)``, then one ``standard_normal(n)`` per step t > 1,
    exactly the draws :func:`ancestral_step` makes with that generator.
    Memory is O(n), independent of the number of steps.
    """
    if n_z0 < 1 or n_z1 < 1:
        raise ParameterError("both sample counts must be >= 1")
    if not 0.0 < prior_z0 < 1.0:
        raise ParameterError(f"prior_z0 must lie strictly inside (0, 1), got {prior_z0!r}")
    num_steps = schedule.num_steps
    prior_logit = np.log(prior_z0) - np.log1p(-prior_z0)
    prior_summand = -binary_entropy_bits(prior_z0)

    branch_means = []
    branch_seqs = np.random.SeedSequence(seed).spawn(2)
    for branch_seq, label, n in zip(branch_seqs, ("z0", "z1"), (n_z0, n_z1)):
        rng = np.random.Generator(np.random.PCG64(branch_seq))
        x = rng.standard_normal(n)
        logit = np.full(n, prior_logit)
        summand = np.empty(num_steps + 1)
        summand[num_steps] = prior_summand
        for t in range(num_steps, 0, -1):
            beta = schedule.beta(t)
            ab = schedule.alpha_bar(t)
            root = np.sqrt(1.0 - beta)
            eps0 = _check_finite(score_model.epsilon(x, t, "z0"), x, t, "z0")
            eps1 = _check_finite(score_model.epsilon(x, t, "z1"), x, t, "z1")
            mu0 = (x - beta / np.sqrt(1.0 - ab) * eps0) / root
            mu1 = (x - beta / np.sqrt(1.0 - ab) * eps1) / root
            x = mu0 if label == "z0" else mu1
            if t > 1:
                x = x + np.sqrt(beta) * rng.standard_normal(n)
            logit = _logit_update(logit, x, mu0, mu1, beta, update_scale)
            summand[t - 1] = -float(np.mean(_logit_entropy_bits(logit)))
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
        update_scale=update_scale,
    )
