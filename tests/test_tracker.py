import sys
import threading
import tracemalloc

import numpy as np
import pytest
from _oracles import (component_posteriors, mc_entropy_reference, mc_entropy_two_means_reference,
                      side_posterior)

from diffentropy import tracker
from diffentropy.core import (
    MixtureModel,
    NoiseSchedule,
    ParameterError,
    linear_schedule,
    make_partition,
)
from diffentropy.entropy import conditional_entropy_at
from diffentropy.mixture import score
from diffentropy.tracker import (
    LOGIT_MAX,
    NOISE_BLOCK_BYTES,
    POST_CLAMP,
    GmmScoreModel,
    McEntropyEstimate,
    ModelEvaluationError,
    ReplayScoreModel,
    _step,
    estimate_conditional_entropy,
    write_replay_csv,
)

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
PART = make_partition(TWO_DELTAS, [0], [1])
SCHEDULE = linear_schedule(1000)
ORACLE = GmmScoreModel(TWO_DELTAS, SCHEDULE, PART)


def _sub_mixture(mixture, partition, label):
    """The mixture of a label's components, weights renormalized: a side of ``partition``, or all."""
    if label == "null":
        return mixture
    idx = list(getattr(partition, label))
    weights = mixture.weights[idx]
    return MixtureModel(weights=weights / weights.sum(), means=mixture.means[idx],
                        variances=mixture.variances[idx])


# Short, fully-noising schedule for fast end-to-end runs.
FAST = linear_schedule(200, 5e-4, 0.1)
FAST_ORACLE = GmmScoreModel(TWO_DELTAS, FAST, PART)


class _ZeroModel:
    def epsilon(self, x, t, label):
        return np.zeros_like(np.asarray(x, dtype=float))


class _NanModel:
    def epsilon(self, x, t, label):
        out = np.array(np.asarray(x, dtype=float), copy=True)
        out[...] = np.nan
        return out


def _branch_rng(seed, branch_index):
    """The estimator's documented noise stream for one branch (0: z0, 1: z1)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[branch_index]))


# Every trajectory on z0's side, or on z1's.
ALL_Z0, ALL_Z1 = (slice(None), slice(0, 0)), (slice(0, 0), slice(None))


def _coefs(t, schedule=SCHEDULE):
    """Step ``t``'s ``c``, ``c / (2 r)``, ``r`` and ``2 / beta_t``, as ``_step`` takes them."""
    beta, ab = schedule.betas[t - 1], schedule.alpha_bar(t)
    c, r = beta / np.sqrt(1.0 - ab), np.sqrt(1.0 - beta)
    return c, c / (2.0 * r), r, 2.0 / beta


def _work(shape):
    return np.empty(shape), np.empty(shape)


def _finite_gap():
    """``_step``'s check for its callers here: every half-gap they form is finite."""
    raise AssertionError("the half-gap is not finite")


def _mean(x, eps, t, schedule=SCHEDULE):
    """The denoising mean at step ``t``: a noiseless z0 step of a copy of ``x``."""
    x = np.array(x, dtype=np.float64)
    _step(x, np.zeros(x.shape), eps, eps, np.zeros(x.shape), _coefs(t, schedule), ALL_Z0,
          _work(x.shape), _finite_gap)
    return x


def _update(logit, x_next, mu_z0, mu_z1, scale, parts=ALL_Z0):
    """The log-odds after one step to ``x_next`` between the means ``mu_z0`` and ``mu_z1``.

    A step of the state 0 with ``c = r = 1`` moves to the own mean ``-eps``,
    so the predictions ``-mu_z0`` and ``-mu_z1`` place the two means; the
    noise is ``x_next`` less the own mean, and ``2 / beta_t`` is ``4 *
    scale``.  ``parts`` puts the trajectories on z0's side or on z1's.
    """
    logit = np.array(logit, dtype=np.float64)
    x_next, mu_z0, mu_z1 = np.broadcast_arrays(x_next, mu_z0, mu_z1)
    noise = x_next - (mu_z0 if parts == ALL_Z0 else mu_z1)
    _step(np.zeros(logit.shape), logit, -mu_z0, -mu_z1, noise, (1.0, 0.5, 1.0, 4.0 * scale), parts,
          _work(logit.shape), _finite_gap)
    return logit


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _sigmoid(logit):
    return 1.0 / (1.0 + np.exp(-logit))


class TestPosteriorMean:
    def test_zero_noise_prediction_rescales(self):
        t = 100
        beta = SCHEDULE.betas[t - 1]
        x = np.array([0.3, -2.0])
        np.testing.assert_allclose(_mean(x, np.zeros(2), t), x / np.sqrt(1 - beta))

    def test_equivalent_score_form(self):
        # Substituting eps = -sqrt(1-ab) * score collapses the mean to
        # (x + beta * score) / sqrt(1 - beta).
        t = 400
        beta, ab = SCHEDULE.betas[t - 1], SCHEDULE.alpha_bar(t)
        x = np.linspace(-2, 2, 9)
        expected = (x + beta * score(_sub_mixture(TWO_DELTAS, PART, "z0"), ab, x)) / np.sqrt(1 - beta)
        np.testing.assert_allclose(_mean(x, ORACLE.epsilon(x, t, "z0"), t), expected, rtol=1e-12)

    def test_tiny_beta_is_nearly_identity(self):
        # No-op step limit: for bounded noise predictions the denoising mean
        # collapses onto the state as beta shrinks.
        x = np.array([0.7])
        gaps = []
        for beta in (1e-3, 1e-5, 1e-7):
            sched = linear_schedule(10, beta, beta)
            gaps.append(abs(float(_mean(x, np.full(1, 0.8), 5, sched)[0]) - 0.7))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-4


class TestAncestralStep:
    def test_unconditional_terminal_mass_splits_evenly(self):
        # Oracle-driven generation from pure noise must land half the mass on
        # each delta, within binomial fluctuation.  The state handed to the
        # last step, x_1, has sd 0.01 about its delta, so it stands in for x_0.
        class _NullDriven:
            def __init__(self, n):
                self.n, self.x1 = n, None

            def epsilon(self, x, t, label):
                if t == 1:
                    # The z0 population is the batch's first n trajectories.
                    self.x1 = x[:self.n].copy()
                return ORACLE.epsilon(x, t, "null")

        n = 1000
        model = _NullDriven(n)
        estimate_conditional_entropy(model, SCHEDULE, n_z0=n, n_z1=1, seed=11)
        x1 = model.x1
        near_left = np.sum(np.abs(x1 + 1.0) < 0.5)
        near_right = np.sum(np.abs(x1 - 1.0) < 0.5)
        assert near_left + near_right == n
        three_sigma = 3 * np.sqrt(n * 0.25)
        assert abs(near_left - n / 2) < three_sigma


class TestPosteriorUpdate:
    def test_equal_means_leave_posterior_unchanged(self):
        logit = _logit(np.array([0.37]))
        out = _update(logit, np.array([1.0]), np.array([0.2]), np.array([0.2]), 50.0)
        np.testing.assert_array_equal(out, logit)

    def test_closer_to_z0_mean_increases_posterior(self):
        out = _update(np.zeros(1), np.array([0.0]), np.array([0.1]), np.array([0.9]), 50.0)
        assert _sigmoid(out[0]) > 0.5

    @pytest.mark.parametrize("beta", [0.02, 0.5])
    def test_scale_weighs_the_squared_gap(self, beta):
        x, mu0, mu1 = np.array([0.0]), np.array([0.0]), np.array([1.0])
        delta = -1.0  # (x-mu0)^2 - (x-mu1)^2
        scale = 1 / (2 * beta)
        out = _update(np.zeros(1), x, mu0, mu1, scale)
        np.testing.assert_allclose(_sigmoid(out), 1.0 / (1.0 + np.exp(scale * delta)), rtol=1e-12)

    @pytest.mark.parametrize("parts", [ALL_Z0, ALL_Z1], ids=["z0-side", "z1-side"])
    def test_each_side_moves_by_the_gaussian_filter(self, parts):
        # The half-gap form against -(|x' - mu_z0|^2 - |x' - mu_z1|^2) / (2 beta)
        # as written, on either side of the batch.
        rng = np.random.default_rng(8)
        x_next, mu_z0, mu_z1 = rng.normal(0.0, 0.3, (3, 200))
        beta = 0.2
        moved = _update(np.zeros(200), x_next, mu_z0, mu_z1, 1 / (2 * beta), parts)
        squares = (x_next - mu_z0) ** 2, (x_next - mu_z1) ** 2
        want = -(squares[0] - squares[1]) / (2 * beta)
        assert np.all(np.abs(want) < LOGIT_MAX)
        np.testing.assert_allclose(moved, want, rtol=0,
                                   atol=1e-14 * (squares[0] + squares[1]).max() / beta)

    def test_clamped_into_open_interval(self):
        out = _update(np.zeros(1), np.array([0.0]), np.array([0.0]), np.array([50.0]), 1 / (2 * 1e-4))
        assert _sigmoid(out[0]) <= 1.0 - 1e-12

    def test_logit_driven_past_the_clamp_saturates_exactly(self):
        assert _sigmoid(LOGIT_MAX) == pytest.approx(1.0 - POST_CLAMP, rel=1e-15)
        assert _sigmoid(-LOGIT_MAX) == pytest.approx(POST_CLAMP, rel=1e-12)
        x = np.zeros(3)
        for mu_z0, mu_z1, side in ((0.0, 50.0, 1.0), (50.0, 0.0, -1.0)):
            logit = _update(np.array([0.0, 20.0, -20.0]), x, mu_z0, mu_z1, 1 / (2 * 1e-4))
            assert np.all(logit == side * LOGIT_MAX)
            # One more push in the same direction stays on the clamp.
            assert np.all(_update(logit, x, mu_z0, mu_z1, 1 / (2 * 1e-4)) == logit)

    def test_tracks_closed_form_posterior_along_a_trajectory(self):
        # One oracle-driven z0 trajectory, stepped with the estimator's
        # formulas: the filtered posterior should stay close to the exact
        # posterior of the visited states.
        rng = _branch_rng(5, 0)
        x = rng.standard_normal(1)
        logit = np.full(1, _logit(PART.prior_z0))
        hits = 0
        for t in range(FAST.num_steps, 1, -1):
            eps0, eps1 = (FAST_ORACLE.epsilon(x, t, label) for label in ("z0", "z1"))
            noise = np.sqrt(FAST.betas[t - 1]) * rng.standard_normal(1)
            _step(x, logit, eps0, eps1, noise, _coefs(t, FAST), ALL_Z0, _work(1), _finite_gap)
            exact = side_posterior(component_posteriors(TWO_DELTAS, FAST.alpha_bar(t - 1), x),
                                   PART.z0, PART.z1)
            hits += abs(_sigmoid(logit[0]) - exact[0]) < 0.05
        assert hits / (FAST.num_steps - 1) >= 0.95


class TestEstimateConditionalEntropy:
    def test_initial_entropy_matches_prior(self):
        est = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=8, n_z1=8, seed=0)
        assert est.H_bits[-1] == 1.0
        skewed = estimate_conditional_entropy(FAST_ORACLE, FAST, prior_z0=0.1,
                                              n_z0=8, n_z1=8, seed=0)
        assert skewed.H_bits[-1] == pytest.approx(0.4689955935892812, abs=1e-12)

    def test_seed_determinism_is_bit_exact(self):
        a = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=32, n_z1=32, seed=9)
        b = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=32, n_z1=32, seed=9)
        assert np.array_equal(a.H_bits, b.H_bits)
        assert np.array_equal(a.h_z0, b.h_z0)
        c = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=32, n_z1=32, seed=10)
        assert not np.array_equal(a.H_bits, c.H_bits)

    def test_combination_invariant_and_bounds(self):
        est = estimate_conditional_entropy(FAST_ORACLE, FAST, prior_z0=0.3,
                                           n_z0=16, n_z1=24, seed=3)
        np.testing.assert_allclose(
            est.H_bits, -(0.3 * est.h_z0 + 0.7 * est.h_z1), rtol=1e-15
        )
        assert np.all(est.H_bits >= 0.0)
        assert np.all(est.H_bits <= 1.0 + 1e-9)

    def test_matches_quadrature_on_a_short_run(self):
        est = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=500, n_z1=500, seed=7)
        quad = np.array([conditional_entropy_at(TWO_DELTAS, PART, FAST.alpha_bar(t))
                         for t in range(1, FAST.num_steps + 1)])
        err = np.max(np.abs(est.H_bits[1:] - quad))
        assert err < 0.1

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=0, n_z1=5, seed=0)
        with pytest.raises(ParameterError):
            estimate_conditional_entropy(FAST_ORACLE, FAST, prior_z0=1.0, seed=0)

    def test_sample_counts_past_any_address_space_raise_before_allocating(self):
        # 8 (n_z0 + n_z1) bytes above the largest intp: numpy cannot even size the batch.
        for n_z0, n_z1 in ((1, 2**60 - 1), (2**62, 2**62), (10**30, 1)):
            message = f"^sample counts {n_z0} \\+ {n_z1} exceed any address space$"
            with pytest.raises(ParameterError, match=message):
                estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=n_z0, n_z1=n_z1, seed=0)
        # One count below the bound, numpy sizes the batch and fails to allocate it.
        with pytest.raises(MemoryError, match="^Unable to allocate"):
            estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=1, n_z1=2**60 - 2, seed=0)

    def test_model_errors_carry_context(self):
        with pytest.raises(ModelEvaluationError):
            estimate_conditional_entropy(_NanModel(), FAST, n_z0=2, n_z1=2, seed=0)

        class _NanAtStep3:
            def epsilon(self, x, t, label):
                eps = FAST_ORACLE.epsilon(x, t, label)
                return eps * np.nan if (t, label) == (3, "z1") else eps

        with pytest.raises(ModelEvaluationError, match="t=3, label='z1'"):
            estimate_conditional_entropy(_NanAtStep3(), FAST, n_z0=2, n_z1=2, seed=0)

        class _NanAtTrajectory:
            """A NaN for batch index ``bad`` at step 5 under ``label``."""

            def __init__(self, bad, label):
                self.bad, self.label, self.x = bad, label, None

            def epsilon(self, x, t, label):
                eps = np.array(FAST_ORACLE.epsilon(x, t, label), copy=True)
                if (t, label) == (5, self.label):
                    self.x = float(x[self.bad])
                    eps[self.bad] = np.nan
                return eps

        # The batch holds z0's 3 trajectories, then z1's 6.
        for bad, label, who in [(0, "z0", "z0 trajectory 0"), (2, "z1", "z0 trajectory 2"),
                                (3, "z0", "z1 trajectory 0"), (7, "z1", "z1 trajectory 4")]:
            model = _NanAtTrajectory(bad, label)
            with pytest.raises(ModelEvaluationError) as caught:
                estimate_conditional_entropy(model, FAST, n_z0=3, n_z1=6, seed=0)
            assert str(caught.value) == (f"non-finite noise prediction for {who} at "
                                         f"x={model.x!r}, t=5, label={label!r}")

    def test_a_half_gap_that_overflows_from_finite_predictions_is_no_error(self):
        # The predictions +-1e308 at t = 5 are finite, but their gap overflows
        # to an infinite half-gap, which sends the per-label scans looking.
        class _FarApart:
            def epsilon(self, x, t, label):
                return np.full(x.shape, (1e308 if label == "z0" else -1e308) if t == 5 else 0.0)

        with np.errstate(over="ignore", invalid="ignore"):
            result = estimate_conditional_entropy(_FarApart(), FAST, n_z0=3, n_z1=4, seed=0)
        assert np.isfinite(result.H_bits).all()

    @pytest.mark.parametrize("shape", [(1,), (), (16, 1)], ids=["one", "scalar", "column"])
    def test_predictions_of_another_shape_raise(self, shape):
        # A (1,) or 0-d prediction would broadcast over every trajectory.
        class _Reshaped:
            def epsilon(self, x, t, label):
                eps = FAST_ORACLE.epsilon(x, t, label)
                return np.resize(eps, shape) if label == "z1" else eps

        with pytest.raises(ModelEvaluationError) as caught:
            estimate_conditional_entropy(_Reshaped(), FAST, n_z0=5, n_z1=11, seed=0)
        assert str(caught.value) == (f"noise prediction of shape {shape} for trajectories of "
                                     f"shape (16,) at t=200, label='z1'")

    def test_each_step_asks_two_predictions_of_the_whole_batch(self):
        class _RecordsCalls:
            def __init__(self):
                self.calls = []

            def epsilon(self, x, t, label):
                self.calls.append((t, label, x.size))
                return FAST_ORACLE.epsilon(x, t, label)

        model = _RecordsCalls()
        estimate_conditional_entropy(model, FAST, n_z0=5, n_z1=11, seed=0)
        assert model.calls == [(t, label, 16) for t in range(FAST.num_steps, 0, -1)
                               for label in ("z0", "z1")]


THREE = MixtureModel(weights=[0.2, 0.3, 0.5], means=[-3.0, 0.5, 4.0], variances=[0.1, 0.4, 2.0])
THREE_PART = make_partition(THREE, [1], [0, 2])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
GROUPS = make_partition(FOUR_DELTAS, [0, 1], [2, 3])


class _EchoModel:
    """Returns its input array for z0 and a view of all of it for z1.

    A reversed view would mix the two populations of the batch, so a
    prediction would no longer depend on its own trajectory alone.
    """

    def epsilon(self, x, t, label):
        return x if label == "z0" else x[:]


class _KeepsReference:
    """Keeps the z0 call's ``x`` and answers the z1 call of the step from it.

    It also checks that the kept array still holds the values it was handed,
    i.e. that nothing overwrote the state between a step's two predictions.
    """

    def __init__(self, inner):
        self.inner = inner
        self.kept = self.snapshot = None

    def epsilon(self, x, t, label):
        if label == "z0":
            self.kept, self.snapshot = x, np.array(x, copy=True)
            return self.inner.epsilon(x, t, "z0")
        assert np.array_equal(self.kept, self.snapshot)
        return self.inner.epsilon(self.kept, t, "z1")


class _NullForZ1:
    """Answers a ``"z1"`` query with the inner model's ``"null"`` prediction."""

    def __init__(self, inner):
        self.inner = inner

    def epsilon(self, x, t, label):
        return self.inner.epsilon(x, t, "null" if label == "z1" else label)


class _RecordsLabels:
    """Records the labels that the estimator asks for."""

    def __init__(self, inner):
        self.inner, self.labels = inner, set()

    def epsilon(self, x, t, label):
        self.labels.add(label)
        return self.inner.epsilon(x, t, label)


class TestComplement:
    """The estimator's ``complement`` picks the second prediction of each step."""

    def test_null_complement_asks_for_null_in_place_of_z1(self):
        runs = {}
        for complement in ("exact", "null"):
            model = _RecordsLabels(GmmScoreModel(THREE, FAST, THREE_PART))
            runs[complement] = estimate_conditional_entropy(model, FAST, n_z0=6, n_z1=9, seed=3,
                                                            complement=complement)
            assert model.labels == {"z0", "z1" if complement == "exact" else "null"}
        rewritten = estimate_conditional_entropy(_NullForZ1(GmmScoreModel(THREE, FAST, THREE_PART)),
                                                 FAST, n_z0=6, n_z1=9, seed=3)
        for name in ("h_z0", "h_z1"):
            np.testing.assert_array_equal(getattr(runs["null"], name).view(np.int64),
                                          getattr(rewritten, name).view(np.int64))
        assert not np.array_equal(runs["null"].H_bits, runs["exact"].H_bits)

    @pytest.mark.parametrize("complement", ["sometimes", "z1", None, ["null"]])
    def test_bad_complement_rejected(self, complement):
        model = _RecordsLabels(FAST_ORACLE)
        with pytest.raises(ParameterError, match="complement must be"):
            estimate_conditional_entropy(model, FAST, n_z0=2, n_z1=2, seed=0, complement=complement)
        assert model.labels == set()


class TestBitwiseReference:
    """The estimator's in-place loop against the allocating reference in ``_oracles``."""

    @pytest.mark.parametrize("model, prior_z0, n_z0, n_z1, complement", [
        (FAST_ORACLE, 0.5, 1, 1, "exact"),
        (FAST_ORACLE, 0.3, 7, 40, "exact"),
        (GmmScoreModel(THREE, FAST, THREE_PART), 0.3, 33, 1, "exact"),
        (GmmScoreModel(THREE, FAST, THREE_PART), 0.3, 16, 9, "null"),
        (_EchoModel(), 0.3, 12, 5, "exact"),
        (_KeepsReference(GmmScoreModel(THREE, FAST, THREE_PART)), 0.3, 5, 12, "exact"),
        # Slices that are not multiples of 8 wide and start off an 8-element boundary.
        (GmmScoreModel(THREE, FAST, THREE_PART), 0.3, 13, 1, "exact"),
        (GmmScoreModel(THREE, FAST, THREE_PART), 0.7, 1, 13, "exact"),
        (GmmScoreModel(FOUR_DELTAS, FAST, GROUPS), 0.5, 9, 8, "null"),
    ], ids=["n1", "prior03", "one-vs-two", "null-complement", "echo-input", "keeps-reference",
            "13-and-1", "1-and-13", "9-and-8"])
    def test_branch_series_are_bitwise_the_reference(self, model, prior_z0, n_z0, n_z1, complement):
        est = estimate_conditional_entropy(model, FAST, prior_z0=prior_z0, n_z0=n_z0, n_z1=n_z1,
                                           seed=13, complement=complement)
        # The reference asks for "z1"; the null complement answers it with "null".
        epsilon = model.epsilon if complement == "exact" else _NullForZ1(model).epsilon
        ref_z0, ref_z1 = mc_entropy_reference(epsilon, FAST.betas, FAST.alpha_bars, prior_z0,
                                              n_z0, n_z1, 13)
        assert np.all(np.isfinite(ref_z0)) and np.all(np.isfinite(ref_z1))
        np.testing.assert_array_equal(est.h_z0.view(np.int64), ref_z0.view(np.int64))
        np.testing.assert_array_equal(est.h_z1.view(np.int64), ref_z1.view(np.int64))


# Bits by which the half-gap step may differ from the two-means step: rounding
# only (max 3.9e-16 measured on the cases below).  Dividing the own mean by a
# tabulated reciprocal of r instead moves the states by an ulp, and the
# null-complement case then by 4.5e-14.
TWO_MEANS_TOL = 1e-14


class TestTwoMeansOracle:
    """The estimator against a step that forms both full means and squares their gaps."""

    @pytest.mark.parametrize("partition, n_z0, n_z1, seed, complement", [
        (make_partition(FOUR_DELTAS, [3], [2]), 3000, 3000, 42, "exact"),
        (make_partition(FOUR_DELTAS, [0], [1, 2, 3]), 3000, 5000, 7, "exact"),
        (make_partition(FOUR_DELTAS, [0], [1, 2, 3]), 3000, 5000, 7, "null"),
    ], ids=["demo-02-pair", "one-vs-rest", "one-vs-rest-null"])
    def test_within_rounding_of_the_two_means_step(self, partition, n_z0, n_z1, seed, complement):
        model = GmmScoreModel(FOUR_DELTAS, SCHEDULE, partition)
        est = estimate_conditional_entropy(model, SCHEDULE, partition.prior_z0, n_z0, n_z1, seed,
                                           complement)
        epsilon = model.epsilon if complement == "exact" else _NullForZ1(model).epsilon
        ref_z0, ref_z1 = mc_entropy_two_means_reference(epsilon, SCHEDULE.betas, SCHEDULE.alpha_bars,
                                                        partition.prior_z0, n_z0, n_z1, seed)
        ref = -(partition.prior_z0 * ref_z0 + (1.0 - partition.prior_z0) * ref_z1)
        assert np.max(np.abs(est.H_bits - ref)) <= TWO_MEANS_TOL


def _assert_bitwise_reference(est, model, schedule, n_z0, n_z1, seed):
    ref_z0, ref_z1 = mc_entropy_reference(model.epsilon, schedule.betas, schedule.alpha_bars, 0.5,
                                          n_z0, n_z1, seed)
    np.testing.assert_array_equal(est.h_z0.view(np.int64), ref_z0.view(np.int64))
    np.testing.assert_array_equal(est.h_z1.view(np.int64), ref_z1.view(np.int64))


class _RaisesAtStep:
    def __init__(self, step):
        self.step = step

    def epsilon(self, x, t, label):
        if t == self.step:
            raise ModelEvaluationError(f"no prediction at t={t}")
        return FAST_ORACLE.epsilon(x, t, label)


class _RecordsThreads:
    """Records the calling threads, and the live thread count at step ``first_step``'s first call."""

    def __init__(self, inner, first_step):
        self.inner, self.first_step = inner, first_step
        self.callers, self.alive_at_first = set(), []

    def epsilon(self, x, t, label):
        self.callers.add(threading.get_ident())
        if (t, label) == (self.first_step, "z0"):
            self.alive_at_first.append(threading.active_count())
        return self.inner.epsilon(x, t, label)


def _estimate_bounded(*args, **kwargs):
    """``estimate_conditional_entropy`` on a helper thread, so a deadlocked
    producer fails the test within a minute instead of hanging it.

    Returns the estimate and the helper's thread id; re-raises its error.
    """
    done = {}

    def run():
        done["ident"] = threading.get_ident()
        try:
            done["estimate"] = estimate_conditional_entropy(*args, **kwargs)
        except Exception as err:  # handed to the test's thread below
            done["error"] = err

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the estimator did not finish within 60 s"
    if "error" in done:
        raise done["error"]
    return done["estimate"], done["ident"]


def _block_rows(n_z0, n_z1, count):
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    parts = (slice(0, n_z0), slice(n_z0, n_z0 + n_z1))
    return tracker._NoiseRows(rngs, parts, [1.0] * count)._blocks.shape[1]


class TestNoiseWorker:
    """Noise drawn ahead on a producer thread: same numbers, same errors, no stray thread."""

    def test_blocks_hold_the_byte_budget(self):
        assert NOISE_BLOCK_BYTES == 256 * 1024
        # A row holds both populations: 3 rows of 5000 + 5000, 1 row of
        # 10^4 + 10^4; never more rows than the draws; at least one row, the
        # spare, even with no draws or with rows wider than the budget.
        assert [_block_rows(n_z0, n_z1, count) for n_z0, n_z1, count in
                [(5_000, 5_000, 999), (10_000, 10_000, 999), (1, 1, 999), (4, 3, 0),
                 (40_000, 1, 999)]] == [3, 1, 999, 1, 1]

    @pytest.mark.parametrize("step", [FAST.num_steps, FAST.num_steps - 3, 3],
                             ids=["first-step", "mid-run", "near-the-end"])
    def test_score_model_errors_propagate_and_the_producer_is_joined(self, monkeypatch, tmp_path,
                                                                     step):
        # Two rows per block of 6 + 5 trajectories: at the first two errors
        # the producer is waiting for a block to be freed.
        monkeypatch.setattr(tracker, "NOISE_BLOCK_BYTES", 8 * 11 * 2)
        sched = linear_schedule(8, 0.005, 0.2)
        path = tmp_path / "gap.csv"
        write_replay_csv(path, GmmScoreModel(TWO_DELTAS, sched, PART), sched, np.linspace(-6, 6, 41),
                         steps=[t for t in range(1, 9) if t != 3])
        cases = [(_RaisesAtStep(step), FAST, f"no prediction at t={step}"),
                 (ReplayScoreModel.from_csv(path), sched, "no rows for step t=3")]
        for model, schedule, message in cases:
            before = threading.active_count()
            with pytest.raises(ModelEvaluationError, match=message):
                mc_entropy_reference(model.epsilon, schedule.betas, schedule.alpha_bars, 0.5,
                                     6, 5, 2)
            with pytest.raises(ModelEvaluationError, match=message) as caught:
                _estimate_bounded(model, schedule, n_z0=6, n_z1=5, seed=2)
            # The traceback, which holds the estimator's frames, is still alive.
            assert caught.tb is not None
            assert threading.active_count() == before

    def test_score_model_runs_only_on_the_calling_thread(self, monkeypatch):
        # 2 rows per block of 9 + 4 trajectories: the producer has more
        # blocks to draw than fit ahead, so it waits alive through step T.
        monkeypatch.setattr(tracker, "NOISE_BLOCK_BYTES", 8 * 13 * 2)
        model = _RecordsThreads(FAST_ORACLE, FAST.num_steps)
        before = threading.active_count()
        est, caller = _estimate_bounded(model, FAST, n_z0=9, n_z1=4, seed=5)
        assert model.callers == {caller}
        # Besides the caller's helper thread, the one producer of both
        # populations is alive at step T's first prediction.
        assert model.alive_at_first == [before + 2]
        assert threading.active_count() == before
        _assert_bitwise_reference(est, FAST_ORACLE, FAST, 9, 4, 5)

    def test_handoffs_under_contention_are_bitwise_the_reference(self, monkeypatch):
        # One row per block makes every noisy step a handoff; three estimates
        # at once (six threads) with a 1 us switch interval interleave the
        # handoffs as much as the interpreter allows.  A block read before it
        # is drawn, or redrawn before it is read, changes the bits.
        monkeypatch.setattr(tracker, "NOISE_BLOCK_BYTES", 8)
        sched = linear_schedule(60, 0.005, 0.2)
        model = GmmScoreModel(TWO_DELTAS, sched, PART)
        results = {}

        def run(seed):
            results[seed] = estimate_conditional_entropy(model, sched, n_z0=5, n_z1=3, seed=seed)

        helpers = [threading.Thread(target=run, args=(seed,), daemon=True) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for helper in helpers:
                helper.start()
            for helper in helpers:
                helper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(helper.is_alive() for helper in helpers)
        assert sorted(results) == [0, 1, 2]
        for seed, est in results.items():
            _assert_bitwise_reference(est, model, sched, 5, 3, seed)

    @pytest.mark.parametrize("budget, rows", [(8 * 10 * 2, 2), (8 * 10 * 4, 4), (8, 1)],
                             ids=["2-rows", "4-rows", "1-row"])
    @pytest.mark.parametrize("noisy", [0, 1, 2, 8, 9])
    def test_partial_and_empty_blocks_are_bitwise_the_reference(self, monkeypatch, noisy, budget,
                                                                rows):
        # Blocks of 2 or 4 rows of 7 + 3 trajectories, or of one row, where
        # every noisy step is a handoff.  Noisy steps: none, one, two, 8
        # (full blocks only) and 9, where the rows cross at least 2 block
        # boundaries and, with 2 and 4 rows, end on a partial block.
        monkeypatch.setattr(tracker, "NOISE_BLOCK_BYTES", budget)
        assert _block_rows(7, 3, 9) == rows
        sched = NoiseSchedule.from_betas(np.linspace(0.02, 0.3, noisy + 1))
        model = GmmScoreModel(TWO_DELTAS, sched, PART)
        est, _ = _estimate_bounded(model, sched, n_z0=7, n_z1=3, seed=21)
        _assert_bitwise_reference(est, model, sched, 7, 3, 21)


class TestGmmScoreModel:
    def test_epsilon_matches_score_relation(self):
        t = 300
        ab = SCHEDULE.alpha_bar(t)
        x = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(
            ORACLE.epsilon(x, t, "null"),
            -np.sqrt(1 - ab) * score(TWO_DELTAS, ab, x),
            rtol=1e-13,
        )

    XS = (np.concatenate([np.linspace(-10.0, 10.0, 41), [-0.0, 1e-300, 40.0]]),
          np.linspace(-9.0, 9.0, 12).reshape(3, 4), np.float64(0.3))

    @pytest.mark.parametrize("mixture, partition", [(THREE, THREE_PART), (FOUR_DELTAS, GROUPS)],
                             ids=["one-vs-two", "group-vs-group"])
    def test_tables_give_the_score_relation_bitwise(self, mixture, partition):
        # THREE_PART's z0 is one component and its z1 two; GROUPS has two a side.
        # Each side's renormalized weights sum to exactly 1, so its
        # sub-mixture's log weights are bitwise the model's.
        model = GmmScoreModel(mixture, FAST, partition)
        for t in (1, FAST.num_steps // 2, FAST.num_steps):
            ab = FAST.alpha_bar(t)
            for label in ("z0", "z1", "null"):
                sub = _sub_mixture(mixture, partition, label)
                for x in self.XS:
                    got = model.epsilon(x, t, label)
                    want = -np.sqrt(1 - ab) * score(sub, ab, x)
                    assert np.shape(got) == np.shape(want)
                    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                                  np.asarray(want).view(np.int64))

    def test_steps_of_the_schedule_do_not_call_score(self, monkeypatch):
        calls = []
        real = tracker.score
        monkeypatch.setattr(tracker, "score",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        model = GmmScoreModel(THREE, FAST, THREE_PART)
        for t in (1, FAST.num_steps):
            for label in ("z0", "z1", "null"):
                model.epsilon(self.XS[0], t, label)
        with pytest.raises(ParameterError):
            model.epsilon(self.XS[0], 0, "z0")
        assert calls == []

    def test_queries_outside_the_tables_raise(self):
        x = self.XS[0]
        model = GmmScoreModel(THREE, FAST, THREE_PART)
        for t in (0, FAST.num_steps + 1, -1):
            with pytest.raises(ParameterError, match=f"at steps 1..200, got label 'z0' at step t={t}$"):
                model.epsilon(x, t, "z0")
        for label in (1, "z2", 0, "Z0", None):
            with pytest.raises(ParameterError, match=f"got label {label!r} at step t=5$"):
                model.epsilon(x, 5, label)
        with pytest.raises(TypeError, match="partition"):
            GmmScoreModel(THREE, FAST)
        with pytest.raises(ParameterError, match="needs a partition"):
            GmmScoreModel(THREE, FAST, None)
        # Point masses have no density at alpha_bar = 1 (step 0), but the
        # model builds and serves every step of the schedule.
        deltas = GmmScoreModel(FOUR_DELTAS, FAST, GROUPS)
        assert np.all(np.isfinite(deltas.epsilon(x, 1, "z0")))


class TestReplayScoreModel:
    @pytest.fixture()
    def replay(self, tmp_path):
        sched = linear_schedule(20, 0.005, 0.2)
        model = GmmScoreModel(TWO_DELTAS, sched, PART)
        path = tmp_path / "eps.csv"
        write_replay_csv(path, model, sched, np.linspace(-6, 6, 401))
        return ReplayScoreModel.from_csv(path), model, sched

    def test_exact_at_grid_nodes(self, replay):
        loaded, model, sched = replay
        x = np.linspace(-6, 6, 401)
        for t in (1, 10, 20):
            for label in ("z0", "z1", "null"):
                np.testing.assert_allclose(
                    loaded.epsilon(x, t, label), model.epsilon(x, t, label), atol=1e-14
                )

    def test_interpolates_between_nodes(self, replay):
        loaded, model, sched = replay
        x = np.array([-1.013, 0.5071, 2.93])
        np.testing.assert_allclose(
            loaded.epsilon(x, 10, "z0"), model.epsilon(x, 10, "z0"), atol=5e-4
        )

    def test_estimates_agree_with_oracle(self, replay):
        loaded, model, sched = replay
        a = estimate_conditional_entropy(loaded, sched, n_z0=200, n_z1=200, seed=4)
        b = estimate_conditional_entropy(model, sched, n_z0=200, n_z1=200, seed=4)
        assert np.max(np.abs(a.H_bits - b.H_bits)) < 0.05

    def test_missing_step_raises(self, replay, tmp_path):
        sched = linear_schedule(20, 0.005, 0.2)
        model = GmmScoreModel(TWO_DELTAS, sched, PART)
        path = tmp_path / "partial.csv"
        write_replay_csv(path, model, sched, np.linspace(-6, 6, 11), steps=[5])
        loaded = ReplayScoreModel.from_csv(path)
        with pytest.raises(ModelEvaluationError, match="no rows for step"):
            loaded.epsilon(np.zeros(3), 6, "z0")

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ModelEvaluationError, match="header"):
            ReplayScoreModel.from_csv(path)


class TestMemory:
    def test_peak_is_independent_of_the_number_of_steps(self):
        # The estimator holds O(n) state (positions, logits, one noise vector,
        # the step's temporaries); nothing of size n x T may exist.
        n = 4000
        tracemalloc.start()
        try:
            estimate_conditional_entropy(_ZeroModel(), SCHEDULE, n_z0=n, n_z1=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n * 8
