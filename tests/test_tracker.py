import tracemalloc

import numpy as np
import pytest

from diffentropy.core import MixtureModel, ParameterError, linear_schedule, make_partition
from diffentropy.entropy import binary_entropy_bits, conditional_entropy_at
from diffentropy.mixture import class_posteriors, partition_posterior, score
from diffentropy.tracker import (
    LOGIT_MAX,
    POST_CLAMP,
    GmmScoreModel,
    McEntropyEstimate,
    ModelEvaluationError,
    ReplayScoreModel,
    TrajectoryState,
    _logit_update,
    ancestral_step,
    estimate_conditional_entropy,
    posterior_mean,
    posterior_update,
    write_replay_csv,
)

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
PART = make_partition(TWO_DELTAS, [0], [1])
SCHEDULE = linear_schedule(1000)
ORACLE = GmmScoreModel(TWO_DELTAS, SCHEDULE, PART)

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


class _FixedNoise:
    """Deterministic stand-in for a Generator: returns a preset column."""

    def __init__(self, column):
        self.column = np.asarray(column, dtype=float)

    def standard_normal(self, shape):
        assert self.column.shape == tuple(shape) or self.column.shape == shape
        return self.column


class TestPosteriorMean:
    def test_zero_noise_prediction_rescales(self):
        t = 100
        beta = SCHEDULE.beta(t)
        x = np.array([0.3, -2.0])
        np.testing.assert_allclose(
            posterior_mean(_ZeroModel(), x, t, "z0", SCHEDULE), x / np.sqrt(1 - beta)
        )

    def test_equivalent_score_form(self):
        # Substituting eps = -sqrt(1-ab) * score collapses the mean to
        # (x + beta * score) / sqrt(1 - beta).
        t = 400
        beta, ab = SCHEDULE.beta(t), SCHEDULE.alpha_bar(t)
        x = np.linspace(-2, 2, 9)
        expected = (x + beta * score(TWO_DELTAS, ab, x, "z0", PART)) / np.sqrt(1 - beta)
        np.testing.assert_allclose(
            posterior_mean(ORACLE, x, t, "z0", SCHEDULE), expected, rtol=1e-12
        )

    def test_tiny_beta_is_nearly_identity(self):
        # No-op step limit: for bounded noise predictions the denoising mean
        # collapses onto the state as beta shrinks.
        class _ConstModel:
            def epsilon(self, x, t, label):
                return np.full_like(np.asarray(x, dtype=float), 0.8)

        x = np.array([0.7])
        gaps = []
        for beta in (1e-3, 1e-5, 1e-7):
            sched = linear_schedule(10, beta, beta)
            gaps.append(abs(float(posterior_mean(_ConstModel(), x, 5, "z0", sched)[0]) - 0.7))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-4

    def test_step_domain_checked(self):
        with pytest.raises(ParameterError):
            posterior_mean(ORACLE, np.array([0.0]), 0, "z0", SCHEDULE)

    def test_nonfinite_output_raises(self):
        with pytest.raises(ModelEvaluationError, match="t=3"):
            posterior_mean(_NanModel(), np.array([1.0]), 3, "z0", SCHEDULE)


class TestAncestralStep:
    def test_final_step_is_noiseless(self):
        state = TrajectoryState(x=np.array([0.4]), log_post_z0=np.log([0.5]), t=1, branch="z0")
        rng = np.random.default_rng(0)
        out = ancestral_step(rng, state, ORACLE, SCHEDULE)
        np.testing.assert_allclose(out.x, posterior_mean(ORACLE, state.x, 1, "z0", SCHEDULE))
        assert out.t == 0

    def test_zero_noise_draw_reproduces_the_mean(self):
        t = 250
        state = TrajectoryState(x=np.array([0.1, -0.6]), log_post_z0=np.log([0.5, 0.5]),
                                t=t, branch="z1")
        out = ancestral_step(_FixedNoise(np.zeros(2)), state, ORACLE, SCHEDULE)
        np.testing.assert_allclose(out.x, posterior_mean(ORACLE, state.x, t, "z1", SCHEDULE))

    def test_unconditional_terminal_mass_splits_evenly(self):
        # Oracle-driven generation from pure noise must land half the mass on
        # each delta, within binomial fluctuation.
        class _NullDriven:
            def epsilon(self, x, t, label):
                return ORACLE.epsilon(x, t, "null")

        n = 1000
        rng = _branch_rng(11, 0)
        state = TrajectoryState(x=rng.standard_normal(n), log_post_z0=np.full(n, np.log(0.5)),
                                t=SCHEDULE.num_steps, branch="z0")
        model = _NullDriven()
        for t in range(SCHEDULE.num_steps, 0, -1):
            state = ancestral_step(rng, state, model, SCHEDULE)
        near_left = np.sum(np.abs(state.x + 1.0) < 0.5)
        near_right = np.sum(np.abs(state.x - 1.0) < 0.5)
        assert near_left + near_right == n
        three_sigma = 3 * np.sqrt(n * 0.25)
        assert abs(near_left - n / 2) < three_sigma


class TestPosteriorUpdate:
    def _state(self, p=0.5, t=500):
        return TrajectoryState(x=np.array([0.0]), log_post_z0=np.log([p]), t=t, branch="z0")

    def test_equal_means_leave_posterior_unchanged(self):
        state = self._state(0.37)
        lp = posterior_update(state, np.array([1.0]), np.array([0.2]), np.array([0.2]), 0.01)
        np.testing.assert_allclose(np.exp(lp), 0.37, rtol=1e-12)

    def test_closer_to_z0_mean_increases_posterior(self):
        state = self._state(0.5)
        lp = posterior_update(state, np.array([0.0]), np.array([0.1]), np.array([0.9]), 0.01)
        assert np.exp(lp)[0] > 0.5

    def test_scale_modes(self):
        state = self._state(0.5)
        x, mu0, mu1 = np.array([0.0]), np.array([0.0]), np.array([1.0])
        delta = -1.0  # (x-mu0)^2 - (x-mu1)^2
        beta = 0.02
        for mode, scale in (("bayes", 1 / (2 * beta)), ("one-minus-beta", 1 / (1 - beta)), (3.0, 3.0)):
            lp = posterior_update(state, x, mu0, mu1, beta, update_scale=mode)
            expected = 1.0 / (1.0 + np.exp(scale * delta))
            np.testing.assert_allclose(np.exp(lp), expected, rtol=1e-12)

    def test_clamped_into_open_interval(self):
        state = self._state(0.5)
        lp = posterior_update(state, np.array([0.0]), np.array([0.0]), np.array([50.0]), 1e-4)
        assert np.exp(lp)[0] <= 1.0 - 1e-12

    def test_logit_driven_past_the_clamp_saturates_exactly(self):
        assert 1.0 / (1.0 + np.exp(-LOGIT_MAX)) == pytest.approx(1.0 - POST_CLAMP, rel=1e-15)
        x = np.zeros(3)
        for mu_z0, mu_z1, side in ((0.0, 50.0, 1.0), (50.0, 0.0, -1.0)):
            logit = _logit_update(np.array([0.0, 20.0, -20.0]), x, mu_z0, mu_z1, 1e-4, "bayes")
            assert np.all(logit == side * LOGIT_MAX)
            # One more push in the same direction stays on the clamp.
            assert np.all(_logit_update(logit, x, mu_z0, mu_z1, 1e-4, "bayes") == logit)
        low = posterior_update(self._state(0.5), x[:1], np.array([50.0]), np.array([0.0]), 1e-4)
        assert np.exp(low)[0] == pytest.approx(POST_CLAMP, rel=1e-12)

    def test_tracks_closed_form_posterior_along_a_trajectory(self):
        # One oracle-driven trajectory: the filtered posterior should stay
        # close to the exact posterior of the visited states.
        rng = _branch_rng(5, 0)
        state = TrajectoryState(x=rng.standard_normal(1), log_post_z0=np.log([PART.prior_z0]),
                                t=FAST.num_steps, branch="z0")
        hits = 0
        total = 0
        for t in range(FAST.num_steps, 0, -1):
            mu0 = posterior_mean(FAST_ORACLE, state.x, t, "z0", FAST)
            mu1 = posterior_mean(FAST_ORACLE, state.x, t, "z1", FAST)
            nxt = ancestral_step(rng, state, FAST_ORACLE, FAST)
            lp = posterior_update(state, nxt.x, mu0, mu1, FAST.beta(t))
            state = TrajectoryState(x=nxt.x, log_post_z0=lp, t=nxt.t, branch="z0")
            exact, _ = partition_posterior(
                PART, class_posteriors(TWO_DELTAS, FAST.alpha_bar(t - 1) if t > 1 else FAST.alpha_bar(1),
                                       float(state.x[0]))
            )
            if t > 1:
                total += 1
                hits += abs(float(np.exp(lp)[0]) - float(exact)) < 0.05
        assert hits / total >= 0.95


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

    def test_streaming_ops_reproduce_the_batch_estimator(self):
        # The estimator must be the composition of the granular operations,
        # driven by the same per-branch stream; posteriors depend on visited
        # states only.
        n, seed = 6, 21
        est = estimate_conditional_entropy(FAST_ORACLE, FAST, n_z0=n, n_z1=n, seed=seed)
        for branch_index, branch in ((0, "z0"), (1, "z1")):
            rng = _branch_rng(seed, branch_index)
            state = TrajectoryState(x=rng.standard_normal(n), log_post_z0=np.full(n, np.log(0.5)),
                                    t=FAST.num_steps, branch=branch)
            series = np.empty(FAST.num_steps + 1)
            series[FAST.num_steps] = -binary_entropy_bits(0.5)
            for t in range(FAST.num_steps, 0, -1):
                mu0 = posterior_mean(FAST_ORACLE, state.x, t, "z0", FAST)
                mu1 = posterior_mean(FAST_ORACLE, state.x, t, "z1", FAST)
                nxt = ancestral_step(rng, state, FAST_ORACLE, FAST)
                lp = posterior_update(state, nxt.x, mu0, mu1, FAST.beta(t))
                state = TrajectoryState(x=nxt.x, log_post_z0=lp, t=nxt.t, branch=branch)
                series[t - 1] = np.mean(-binary_entropy_bits(np.exp(lp)))
            stored = est.h_z0 if branch == "z0" else est.h_z1
            np.testing.assert_allclose(series, stored, atol=1e-9)

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

    def test_model_errors_carry_context(self):
        with pytest.raises(ModelEvaluationError):
            estimate_conditional_entropy(_NanModel(), FAST, n_z0=2, n_z1=2, seed=0)


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

    def test_null_complement_mode_rewrites_z1(self):
        approx = GmmScoreModel(TWO_DELTAS, SCHEDULE, PART, complement_mode="null")
        x = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(
            approx.epsilon(x, 100, "z1"), ORACLE.epsilon(x, 100, "null"), rtol=1e-13
        )
        np.testing.assert_allclose(
            approx.epsilon(x, 100, "z0"), ORACLE.epsilon(x, 100, "z0"), rtol=1e-13
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            GmmScoreModel(TWO_DELTAS, SCHEDULE, PART, complement_mode="sometimes")


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


class TestTrajectoryState:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrajectoryState(x=np.zeros(2), log_post_z0=np.zeros(3), t=1, branch="z0")
        with pytest.raises(ParameterError):
            TrajectoryState(x=np.zeros(1), log_post_z0=np.array([0.1]), t=1, branch="z0")
        with pytest.raises(ParameterError):
            TrajectoryState(x=np.zeros(1), log_post_z0=np.zeros(1), t=1, branch="left")


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
