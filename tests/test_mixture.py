import numpy as np
import pytest
from _oracles import component_log_joints, mixture_log_density
from scipy import stats

from diffentropy import bifurcation, entropy, mixture, tracker
from diffentropy.bifurcation import find_fixed_points, sibling_split_time, trace_bifurcations
from diffentropy.core import MixtureModel, ParameterError, linear_schedule, make_partition
from diffentropy.entropy import conditional_entropy_at, entropy_profile
from diffentropy.mixture import (
    DegenerateDensityError,
    _gather,
    _kernel_tables,
    _log_joints,
    _logsumexp,
    _score_and_slope,
    _score_terms,
    _softmax,
    score,
    score_derivative,
)
from diffentropy.tracker import GmmScoreModel

FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR = (FOUR_DELTAS.means, FOUR_DELTAS.weights, FOUR_DELTAS.variances)


def _params(mix, levels, cols, x, subset):
    """The kernel parameters of ``subset`` at ``x``, each point at its column ``cols`` of the
    table at ``levels``."""
    [table] = _kernel_tables(mix, levels, subset)
    return _gather(table, cols, x)


def _at_one_level(mix, alpha_bar, x, subset):
    """The kernel parameters of ``subset`` at ``x``, every point at the one level ``alpha_bar``."""
    return _params(mix, [alpha_bar], np.zeros((1,) * np.ndim(x), dtype=np.intp), x, subset)


def _kernel(mix, alpha_bar, x, subset):
    """The log joints of ``subset`` at ``x``, with the diffused means and variances."""
    params = _at_one_level(mix, alpha_bar, x, subset)
    return _log_joints(params, x), params[0], params[1]


def _diffused(mix, alpha_bar):
    """Every component's diffused mean and variance at the one level ``alpha_bar``."""
    [(mu, var, _)] = _kernel_tables(mix, [alpha_bar], range(mix.num_components))
    return mu[:, 0], var[:, 0]


def _score_weights(mix, alpha_bar, x):
    """The posterior weights that the score sums over, components on the last axis."""
    x = np.asarray(x, dtype=np.float64)
    params = _at_one_level(mix, alpha_bar, x, range(mix.num_components))
    return np.moveaxis(_score_terms(params, x)[0], 0, -1)


class TestDiffusion:
    @staticmethod
    def _one(mean, variance, alpha_bar):
        mu, var = _diffused(MixtureModel(weights=[1.0], means=[mean], variances=[variance]), alpha_bar)
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
            _kernel_tables(MixtureModel.deltas([1.0]), [1.0], (0,))

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            MixtureModel(weights=[1.0], means=[0.0], variances=[-0.5])
        with pytest.raises(ParameterError):
            _kernel_tables(MixtureModel.deltas([0.0]), [1.5], (0,))


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
        mu, var = _diffused(FOUR_DELTAS, ab)
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

    def test_one_component_table_selects_single_gaussian(self):
        ab = 0.5
        mu, var = _diffused(FOUR_DELTAS, ab)
        x = np.asarray(1.3)
        got = _score_terms(_at_one_level(FOUR_DELTAS, ab, x, (2,)), x)[3]
        assert got == pytest.approx((mu[2] - x) / var[2])

    def test_subset_table_gives_the_score_of_its_renormalized_sub_mixture(self):
        # A side of a decision, as the oracle score model tabulates it.  With
        # equal weights the renormalized ones are exact, so bitwise.
        xs = np.linspace(-10, 10, 7)
        for subset in ((3,), (0, 1), (0, 2, 3), range(4)):
            sub = MixtureModel.deltas(FOUR_DELTAS.means[list(subset)])
            for ab in (0.3, 0.5):
                got = _score_terms(_at_one_level(FOUR_DELTAS, ab, xs, subset), xs)[3]
                np.testing.assert_array_equal(got, score(sub, ab, xs))

    @pytest.mark.parametrize("func", [score, score_derivative])
    def test_alpha_bar_is_one_level(self, func):
        # An array of levels is never read at its first level.
        for levels in (np.array([0.5]), np.array([[0.2], [0.7]]), [0.5, 0.6]):
            with pytest.raises(ParameterError, match="one level"):
                func(FOUR_DELTAS, levels, np.linspace(-1.0, 1.0, 2))
        assert func(FOUR_DELTAS, np.float64(0.5), 0.7) == func(FOUR_DELTAS, 0.5, 0.7)


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

    def test_subset_tables_keep_their_shape(self):
        xs = np.linspace(-9.0, 9.0, 6).reshape(2, 3)
        # Two components, one and all four.
        for subset in ((0, 1), (3,), range(4)):
            s, ds = _score_and_slope(_at_one_level(FOUR_DELTAS, 0.4, xs, subset), xs)
            assert s.shape == ds.shape == (2, 3)

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
        mu, var, log_w = _params(mixture, levels, np.arange(4)[:, None], x, (2, 0))
        batch = _log_joints((mu, var, log_w), x)
        assert batch.shape == (2, 4, 7) and mu.shape == var.shape == (2, 4, 1)
        for i, ab in enumerate(levels):
            single, _, _ = _kernel(mixture, float(ab), x[i], (2, 0))
            np.testing.assert_array_equal(batch[:, i], single)

    def test_level_batch_checks_every_level(self):
        for levels in ([0.5, 1.5], [0.5, np.nan]):
            with pytest.raises(ParameterError):
                _kernel_tables(FOUR_DELTAS, np.array(levels), range(4))
        with pytest.raises(DegenerateDensityError):
            _kernel_tables(FOUR_DELTAS, np.array([0.5, 1.0]), range(4))

    def test_score_and_derivative_come_from_one_pass_bitwise(self):
        xs = np.linspace(-11.0, 11.0, 23)
        # Four components, two and one.
        for m in (FOUR_DELTAS, MixtureModel.deltas([-8.0, -4.0]), MixtureModel.deltas([8.0])):
            for ab in (1e-4, 0.3, 0.999):
                s, ds = _score_and_slope(_at_one_level(m, ab, xs, range(m.num_components)), xs)
                np.testing.assert_array_equal(s, score(m, ab, xs))
                np.testing.assert_array_equal(ds, score_derivative(m, ab, xs))

    def test_one_pass_with_one_level_per_point_matches_each_level_bitwise(self):
        # The root finder's brackets: every point carries its own level.
        levels = np.array([0.0, 1e-4, 0.05, 0.5, 0.9, 0.9999])
        xs = np.linspace(-12.0, 12.0, levels.size)
        grid, cols = np.tile(xs, (levels.size, 1)), np.arange(levels.size)
        for m in (FOUR_DELTAS, MixtureModel(weights=[1.0], means=[2.0], variances=[0.5])):
            full = range(m.num_components)
            s, ds = _score_and_slope(_params(m, levels, cols, xs, full), xs)
            grid_s, grid_ds = _score_and_slope(_params(m, levels, cols[:, None], grid, full), grid)
            for i, ab in enumerate(levels):
                assert s[i] == score(m, ab, xs[i]) and ds[i] == score_derivative(m, ab, xs[i])
                np.testing.assert_array_equal(grid_s[i], score(m, ab, xs))
                np.testing.assert_array_equal(grid_ds[i], score_derivative(m, ab, xs))


class TestOneComponentSubset:
    MIX = MixtureModel(weights=[0.2, 0.3, 0.5], means=[-3.0, 0.5, 4.0], variances=[0.0, 0.4, 2.0])
    XS = np.concatenate([np.linspace(-40.0, 40.0, 33), [0.0, -0.0, 1e-300, 1e300]])

    def test_score_and_derivative_equal_the_general_kernel_bitwise(self):
        def bits(a):
            return np.asarray(a, dtype=np.float64).view(np.int64)

        for k in range(3):
            alone = MixtureModel(weights=[1.0], means=self.MIX.means[[k]], variances=self.MIX.variances[[k]])
            for ab in (0.0, 1e-4, 0.5, 0.999, None):
                if ab is None:  # two levels, one per row
                    x = np.tile(self.XS, (2, 1))
                    params = _params(self.MIX, [0.2, 0.7], np.arange(2)[:, None], x, (k,))
                else:
                    x = self.XS
                    params = _at_one_level(self.MIX, ab, x, (k,))
                with np.errstate(over="ignore", invalid="ignore"):
                    mu, var, _ = params
                    pull = (mu - x) / var
                    # One component's posterior is exactly 1: what the softmax of its
                    # row gives where the log joint is finite, and not at +-1e300,
                    # where it overflows to -inf and the softmax gives NaN.
                    w = np.ones_like(pull)
                    first = (w * pull).sum(axis=0)
                    curvature = (w * (pull**2 - 1.0 / var)).sum(axis=0) - first**2
                    # The one-component score is its pull row plus +0.0: the
                    # bits of the one-row sum, signed zeros and infinities included.
                    got = _score_and_slope(params, x)
                    np.testing.assert_array_equal(bits(got[0]), bits(first))
                    np.testing.assert_array_equal(bits(got[0]), bits((1.0 * pull).sum(axis=0)))
                    np.testing.assert_array_equal(bits(got[1]), bits(curvature))
                    if ab is not None:  # the component's own one-component mixture
                        np.testing.assert_array_equal(bits(score(alone, ab, x)), bits(first))
                        np.testing.assert_array_equal(bits(score_derivative(alone, ab, x)), bits(curvature))

    def test_log_joints_are_skipped(self, monkeypatch):
        calls = []
        real = mixture._log_joints
        monkeypatch.setattr(mixture, "_log_joints", lambda *args: calls.append(args) or real(*args))
        xs = np.linspace(-4.0, 4.0, 9)
        _score_and_slope(_at_one_level(self.MIX, 0.5, xs, (1,)), xs)
        alone = MixtureModel(weights=[1.0], means=[0.5], variances=[0.4])
        score(alone, 0.5, xs)
        score_derivative(alone, 0.5, xs)
        assert calls == []
        _score_terms(_at_one_level(self.MIX, 0.5, xs, (0, 2)), xs)
        assert len(calls) == 1

    def test_range_and_point_mass_checks_still_run(self):
        # Component 1 has no point mass, but the table diffuses the whole mixture.
        with pytest.raises(ParameterError):
            _kernel_tables(self.MIX, [1.5], (1,))
        with pytest.raises(DegenerateDensityError):
            _kernel_tables(self.MIX, [1.0], (1,))


class TestOneDiffusionPerCall:
    SCHEDULE = linear_schedule(1000)
    PART = make_partition(FOUR_DELTAS, [0, 1], [2, 3])

    # A profile of many chunks, a trace and a sibling split that refine
    # events in further batches, and the oracle's three labels.
    @pytest.mark.parametrize("call", [
        lambda s, p: entropy_profile(FOUR_DELTAS, p, s),
        lambda s, p: conditional_entropy_at(FOUR_DELTAS, p, 0.5),
        lambda s, p: trace_bifurcations(FOUR_DELTAS, s, stride=20),
        lambda s, p: sibling_split_time(FOUR_DELTAS, s, 0, 1),
        lambda s, p: find_fixed_points(FOUR_DELTAS, 0.5),
        lambda s, p: GmmScoreModel(FOUR_DELTAS, s, p),
    ], ids=["entropy_profile", "conditional_entropy_at", "trace_bifurcations", "sibling_split_time",
            "find_fixed_points", "GmmScoreModel"])
    def test_each_entry_point_builds_one_table(self, monkeypatch, call):
        calls = []
        real = mixture._kernel_tables
        # Every module's global of the name, so a direct import would count too.
        for module in (mixture, entropy, bifurcation, tracker):
            monkeypatch.setattr(module, "_kernel_tables", lambda *args: calls.append(1) or real(*args),
                                raising=False)
        call(self.SCHEDULE, self.PART)
        assert len(calls) == 1
