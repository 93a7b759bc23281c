import numpy as np
import pytest
from _oracles import component_log_joints, mixture_log_density
from scipy import stats

from diffentropy import mixture
from diffentropy.core import MixtureModel, ParameterError, make_partition
from diffentropy.mixture import (
    DegenerateDensityError,
    _log_joints,
    _score_and_derivative,
    _score_terms,
    _logsumexp,
    _subset_params,
    _softmax,
    diffused_params,
    score,
    score_derivative,
)

FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR = (FOUR_DELTAS.means, FOUR_DELTAS.weights, FOUR_DELTAS.variances)


def _kernel(mix, alpha_bar, x, subset):
    """The log joints of ``subset`` at ``x``, with the diffused means and variances."""
    params = _subset_params(mix, alpha_bar, subset, np.ndim(x))
    return _log_joints(params, x), params[0], params[1]


def _score_weights(mix, alpha_bar, x):
    """The posterior weights that the score sums over, components on the last axis."""
    x = np.asarray(x, dtype=np.float64)
    params = _subset_params(mix, alpha_bar, range(mix.num_components), x.ndim)
    return np.moveaxis(_score_terms(params, x)[0], 0, -1)


class TestDiffusedParams:
    @staticmethod
    def _one(mean, variance, alpha_bar):
        m = MixtureModel(weights=[1.0], means=[mean], variances=[variance])
        mu, var = diffused_params(m, alpha_bar)
        return float(mu[0]), float(var[0])

    def test_identity_at_no_noise(self):
        assert self._one(1.0, 0.2, 1.0) == pytest.approx((1.0, 0.2))

    def test_full_noise_collapses_to_standard_normal(self):
        assert self._one(5.0, 0.0, 0.0) == (0.0, 1.0)

    def test_partial_noise_values(self):
        assert self._one(-8.0, 0.0, 0.25) == pytest.approx((-4.0, 0.75))

    def test_standard_normal_preserved(self):
        for ab in (0.0, 0.3, 0.99):
            assert self._one(0.0, 1.0, ab) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_delta_at_full_signal_is_degenerate(self):
        with pytest.raises(DegenerateDensityError):
            diffused_params(MixtureModel.deltas([1.0]), 1.0)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            MixtureModel(weights=[1.0], means=[0.0], variances=[-0.5])
        with pytest.raises(ParameterError):
            diffused_params(MixtureModel.deltas([0.0]), 1.5)


class TestAgainstPlainNumpy:
    def test_symmetric_mixture_has_an_odd_score(self):
        xs = np.linspace(-4.0, 4.0, 41)
        np.testing.assert_allclose(score(TWO_DELTAS, 0.5, xs), -score(TWO_DELTAS, 0.5, -xs),
                                   rtol=1e-13, atol=1e-15)

    def test_riemann_normalization(self):
        # Quadrature oracle: the diffused marginal integrates to one, and the
        # posteriors averaged over it recover the mixture weights.
        n = 2**14
        x = np.linspace(-20.0, 20.0, n)
        density = np.exp(mixture_log_density(*FOUR, 0.5, x))
        assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-6)
        recovered = np.trapezoid(density[:, None] * _score_weights(FOUR_DELTAS, 0.5, x), x, axis=0)
        np.testing.assert_allclose(recovered, FOUR_DELTAS.weights, atol=1e-6)

    def test_matches_scipy_reference(self):
        ab = 0.37
        mu, var = diffused_params(FOUR_DELTAS, ab)
        xs = np.linspace(-12, 12, 101)
        joints = np.stack([w * stats.norm.pdf(xs, m, np.sqrt(v))
                           for w, m, v in zip(FOUR_DELTAS.weights, mu, var)], axis=-1)
        np.testing.assert_allclose(np.exp(mixture_log_density(*FOUR, ab, xs)), joints.sum(axis=-1),
                                   rtol=1e-12)
        np.testing.assert_allclose(_score_weights(FOUR_DELTAS, ab, xs),
                                   joints / joints.sum(axis=-1, keepdims=True), rtol=1e-10, atol=1e-300)

    def test_single_component_log_joint_is_the_log_density(self):
        m = MixtureModel(weights=[1.0], means=[0.0], variances=[1.0])
        lj, _, _ = _kernel(m, 0.5, np.asarray(0.0), (0,))
        assert lj[0] == pytest.approx(np.log(1.0 / np.sqrt(2 * np.pi)))

    def test_symmetric_pair_log_joints_equal_at_origin(self):
        lj, _, _ = _kernel(TWO_DELTAS, 0.7, np.asarray(0.0), (0, 1))
        assert lj[0] == pytest.approx(lj[1], rel=1e-14)

    def test_kernel_log_joints_match_the_reference(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-12, 12, size=200)
        for ab in (0.1, 0.5, 0.9):
            lj, _, _ = _kernel(FOUR_DELTAS, ab, xs, range(4))
            np.testing.assert_allclose(np.moveaxis(lj, 0, -1), component_log_joints(*FOUR, ab, xs),
                                       rtol=1e-12, atol=1e-12)


class TestClassPosteriors:
    def test_symmetry_gives_even_split(self):
        np.testing.assert_allclose(_score_weights(TWO_DELTAS, 0.5, 0.0), [0.5, 0.5])

    def test_equal_likelihood_recovers_prior(self):
        m = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
        np.testing.assert_allclose(_score_weights(m, 0.5, 0.0), [1 / 3, 2 / 3], rtol=1e-12)

    def test_low_noise_concentration(self):
        post = _score_weights(FOUR_DELTAS, 0.99, 6.0)
        assert post[2] > 0.999

    def test_rows_normalized_everywhere(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-15, 15, size=1000)
        abs_ = rng.uniform(1e-4, 1 - 1e-4, size=1000)
        for x, ab in zip(xs, abs_):
            post = _score_weights(FOUR_DELTAS, ab, x)
            assert np.all(post >= 0.0)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_error_propagates(self):
        with pytest.raises(DegenerateDensityError):
            _score_weights(TWO_DELTAS, 1.0, 0.0)

    def test_bayes_consistency_at_random_points(self):
        # weight * likelihood / marginal must reproduce each posterior entry.
        rng = np.random.default_rng(2)
        xs = rng.uniform(-12, 12, size=1000)
        abs_ = rng.uniform(0.01, 0.99, size=1000)
        for x, ab in zip(xs, abs_):
            lj = component_log_joints(*FOUR, ab, x)
            manual = np.exp(lj - np.logaddexp.reduce(lj))
            np.testing.assert_allclose(_score_weights(FOUR_DELTAS, ab, x), manual, atol=1e-10)


class TestScore:
    def test_standard_normal_score_is_minus_x(self):
        m = MixtureModel(weights=[1.0], means=[0.0], variances=[1.0])
        xs = np.linspace(-3, 3, 13)
        for ab in (0.0, 0.4, 0.95):
            np.testing.assert_allclose(score(m, ab, xs), -xs, atol=1e-12)

    def test_symmetric_mixture_vanishes_at_origin(self):
        assert score(TWO_DELTAS, 0.5, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference_of_log_marginal(self):
        h = 1e-5
        for x in (-9.0, -2.0, 1.0, 6.5, 11.0):
            fd = (mixture_log_density(*FOUR, 0.5, x + h)
                  - mixture_log_density(*FOUR, 0.5, x - h)) / (2 * h)
            assert score(FOUR_DELTAS, 0.5, x) == pytest.approx(fd, abs=1e-6)

    def test_component_label_selects_single_gaussian(self):
        ab = 0.5
        mu, var = diffused_params(FOUR_DELTAS, ab)
        x = 1.3
        p = make_partition(FOUR_DELTAS, [2], [0, 1, 3])
        assert score(FOUR_DELTAS, ab, x, label="z0", partition=p) == pytest.approx((mu[2] - x) / var[2])

    def test_partition_labels(self):
        p = make_partition(FOUR_DELTAS, [3], [2])
        sub = MixtureModel(weights=[1.0], means=[8.0], variances=[0.0])
        assert score(FOUR_DELTAS, 0.5, 0.7, label="z0", partition=p) == pytest.approx(
            score(sub, 0.5, 0.7)
        )
        with pytest.raises(ParameterError):
            score(FOUR_DELTAS, 0.5, 0.7, label="z0")
        # Labels are "z0", "z1" and "null": a component index is not one.
        for label in (2, 0, "z2"):
            with pytest.raises(ParameterError, match="unknown label"):
                score(FOUR_DELTAS, 0.5, 0.7, label=label, partition=p)

    def test_null_label_equals_full_mixture(self):
        xs = np.linspace(-10, 10, 7)
        np.testing.assert_allclose(
            score(FOUR_DELTAS, 0.3, xs, label="null"), score(FOUR_DELTAS, 0.3, xs), rtol=1e-14
        )


class TestScoreDerivative:
    def test_matches_finite_difference_of_score(self):
        h = 1e-5
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-11, 11)
            ab = rng.uniform(0.05, 0.95)
            fd = (score(FOUR_DELTAS, ab, x + h) - score(FOUR_DELTAS, ab, x - h)) / (2 * h)
            assert score_derivative(FOUR_DELTAS, ab, x) == pytest.approx(fd, abs=1e-5)

    def test_standard_normal_curvature(self):
        m = MixtureModel(weights=[1.0], means=[0.0], variances=[1.0])
        assert score_derivative(m, 0.5, 1.7) == pytest.approx(-1.0)


class TestOutputShapes:
    @pytest.mark.parametrize("func", [score, score_derivative])
    def test_scalar_1d_and_2d_inputs_keep_their_shape(self, func):
        grid = np.linspace(-9.0, 9.0, 12)
        flat = func(FOUR_DELTAS, 0.4, grid)
        assert isinstance(func(FOUR_DELTAS, 0.4, 1.5), float)
        assert flat.shape == (12,)
        square = func(FOUR_DELTAS, 0.4, grid.reshape(3, 4))
        assert square.shape == (3, 4)
        np.testing.assert_array_equal(square.ravel(), flat)
        for i, x in enumerate(grid):
            assert func(FOUR_DELTAS, 0.4, x) == flat[i]

    def test_subset_labels_keep_their_shape(self):
        p = make_partition(FOUR_DELTAS, [0, 1], [3])
        xs = np.linspace(-9.0, 9.0, 6).reshape(2, 3)
        # z0 holds two components and z1 one.
        for label in ("z0", "z1", "null"):
            assert score(FOUR_DELTAS, 0.4, xs, label=label, partition=p).shape == (2, 3)
            assert score_derivative(FOUR_DELTAS, 0.4, xs, label=label, partition=p).shape == (2, 3)

    def test_posteriors_trail_the_input_shape(self):
        xs = np.linspace(-9.0, 9.0, 6).reshape(2, 3)
        assert _score_weights(FOUR_DELTAS, 0.4, xs).shape == (2, 3, 4)
        assert _score_weights(FOUR_DELTAS, 0.4, 0.5).shape == (4,)


class TestKernelHelpers:
    @pytest.mark.parametrize("shape", [(1,), (1, 5), (1, 2, 3)])
    def test_one_row_identities_are_exact(self, shape):
        rows = np.random.default_rng(7).normal(scale=300.0, size=shape)
        np.testing.assert_array_equal(_logsumexp(rows), rows[0])
        ones = _softmax(rows)
        assert ones.shape == shape
        np.testing.assert_array_equal(ones, 1.0)

    def test_level_batch_matches_one_level_at_a_time(self):
        mixture = MixtureModel(weights=[0.2, 0.3, 0.5], means=[-3.0, 0.5, 4.0], variances=[0.0, 0.4, 2.0])
        levels = np.array([0.0, 0.1, 0.5, 0.999])
        x = np.linspace(-6.0, 6.0, 4 * 7).reshape(4, 7)
        batch, mu, var = _kernel(mixture, levels[:, None], x, (2, 0))
        assert batch.shape == (2, 4, 7) and mu.shape == var.shape == (2, 4, 1)
        for i, ab in enumerate(levels):
            single, _, _ = _kernel(mixture, float(ab), x[i], (2, 0))
            np.testing.assert_array_equal(batch[:, i], single)

    def test_level_batch_checks_every_level(self):
        for levels in ([0.5, 1.5], [0.5, np.nan]):
            with pytest.raises(ParameterError):
                diffused_params(FOUR_DELTAS, np.array(levels))
        with pytest.raises(DegenerateDensityError):
            diffused_params(FOUR_DELTAS, np.array([0.5, 1.0]))

    def test_score_and_derivative_come_from_one_pass_bitwise(self):
        # z0 holds two components and z1 one.
        p = make_partition(FOUR_DELTAS, [0, 1], [3])
        xs = np.linspace(-11.0, 11.0, 23)
        for label in ("null", "z0", "z1"):
            for ab in (1e-4, 0.3, 0.999):
                s, ds = _score_and_derivative(FOUR_DELTAS, ab, xs, label, p)
                np.testing.assert_array_equal(s, score(FOUR_DELTAS, ab, xs, label=label, partition=p))
                np.testing.assert_array_equal(
                    ds, score_derivative(FOUR_DELTAS, ab, xs, label=label, partition=p))

    def test_one_pass_with_one_level_per_point_matches_each_level_bitwise(self):
        # The root finder's brackets: every point carries its own level.
        levels = np.array([0.0, 1e-4, 0.05, 0.5, 0.9, 0.9999])
        xs = np.linspace(-12.0, 12.0, levels.size)
        for m in (FOUR_DELTAS, MixtureModel(weights=[1.0], means=[2.0], variances=[0.5])):
            s, ds = _score_and_derivative(m, levels, xs)
            grid_s, grid_ds = _score_and_derivative(m, levels[:, None], np.tile(xs, (levels.size, 1)))
            for i, ab in enumerate(levels):
                assert s[i] == score(m, ab, xs[i]) and ds[i] == score_derivative(m, ab, xs[i])
                np.testing.assert_array_equal(grid_s[i], score(m, ab, xs))
                np.testing.assert_array_equal(grid_ds[i], score_derivative(m, ab, xs))


class TestOneComponentSubset:
    MIX = MixtureModel(weights=[0.2, 0.3, 0.5], means=[-3.0, 0.5, 4.0], variances=[0.0, 0.4, 2.0])
    XS = np.concatenate([np.linspace(-40.0, 40.0, 33), [0.0, -0.0, 1e-300, 1e300]])

    def one(self, k, side="z0"):
        """``(label, partition)`` selecting component ``k`` alone, as side ``side``."""
        rest = [j for j in range(3) if j != k]
        return side, make_partition(self.MIX, *([[k], rest] if side == "z0" else [rest, [k]]))

    def test_score_and_derivative_equal_the_general_kernel_bitwise(self):
        def bits(a):
            return np.asarray(a, dtype=np.float64).view(np.int64)

        for k, side in [(0, "z0"), (1, "z1"), (2, "z0"), (2, "z1")]:
            label, p = self.one(k, side)
            for ab in (0.0, 1e-4, 0.5, 0.999, np.array([[0.2], [0.7]])):
                x = self.XS if np.ndim(ab) == 0 else np.tile(self.XS, (2, 1))
                with np.errstate(over="ignore", invalid="ignore"):
                    lj, mu, var = _kernel(self.MIX, ab, x, (k,))
                    w = _softmax(lj)
                    pull = (mu - x) / var
                    first = (w * pull).sum(axis=0)
                    curvature = (w * (pull**2 - 1.0 / var)).sum(axis=0) - first**2
                    # The one-component score is its pull row plus +0.0: the
                    # bits of the one-row sum, signed zeros and infinities included.
                    for got in (score(self.MIX, ab, x, label=label, partition=p),
                                _score_and_derivative(self.MIX, ab, x, label, p)[0]):
                        np.testing.assert_array_equal(bits(got), bits(first))
                        np.testing.assert_array_equal(bits(got), bits((1.0 * pull).sum(axis=0)))
                    np.testing.assert_array_equal(
                        bits(score_derivative(self.MIX, ab, x, label=label, partition=p)),
                        bits(curvature))

    def test_log_joints_are_skipped(self, monkeypatch):
        calls = []
        real = mixture._log_joints
        monkeypatch.setattr(mixture, "_log_joints", lambda *args: calls.append(args) or real(*args))
        p = make_partition(self.MIX, [1], [0, 2])
        xs = np.linspace(-4.0, 4.0, 9)
        score(self.MIX, 0.5, xs, *self.one(1, "z1"))
        score_derivative(self.MIX, 0.5, xs, label="z0", partition=p)
        assert calls == []
        score(self.MIX, 0.5, xs, label="z1", partition=p)
        assert len(calls) == 1

    def test_range_and_point_mass_checks_still_run(self):
        label, p = self.one(1)
        with pytest.raises(ParameterError):
            score(self.MIX, 1.5, 0.3, label=label, partition=p)
        with pytest.raises(DegenerateDensityError):
            score(self.MIX, 1.0, 0.3, label=label, partition=p)
