import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffentropy.core import (
    MixtureModel,
    NoiseSchedule,
    ParameterError,
    PartitionError,
    linear_schedule,
    make_partition,
)

# Cumulative product of (1 - beta) for the default 1000-step linear schedule,
# frozen from a direct high-precision evaluation.
ALPHA_BAR_FINAL_DEFAULT = 4.035829765375676e-05


class TestLinearSchedule:
    def test_constant_schedule_products(self):
        sched = linear_schedule(2, 0.5, 0.5)
        np.testing.assert_allclose(sched.betas, [0.5, 0.5])
        np.testing.assert_allclose(sched.alpha_bars, [0.5, 0.25])

    def test_default_thousand_step_terminal_value(self):
        sched = linear_schedule(1000, 1e-4, 0.02)
        assert sched.num_steps == 1000
        np.testing.assert_allclose(sched.alpha_bars[-1], ALPHA_BAR_FINAL_DEFAULT, rtol=1e-12)

    def test_endpoints_inclusive(self):
        sched = linear_schedule(11, 0.01, 0.02)
        assert sched.betas[0] == 0.01
        assert sched.betas[-1] == 0.02

    @pytest.mark.parametrize(
        "args, fragment",
        [
            ((2, 0.5, 1.5), "beta_end"),
            ((2, 0.0, 0.5), "beta_start"),
            ((2, -0.1, 0.5), "beta_start"),
            ((2, 0.6, 0.5), "beta_start"),
            ((1, 0.1, 0.2), "num_steps"),
        ],
    )
    def test_invalid_bounds_name_the_offender(self, args, fragment):
        with pytest.raises(ParameterError, match=fragment):
            linear_schedule(*args)

    def test_product_reconstruction_invariant(self):
        sched = linear_schedule(500, 3e-4, 0.04)
        prev = np.concatenate(([1.0], sched.alpha_bars[:-1]))
        defect = np.abs(sched.alpha_bars - prev * (1.0 - sched.betas))
        assert defect.max() < 1e-14

    def test_alpha_bar_accessor_includes_clean_step(self):
        sched = linear_schedule(10, 0.1, 0.1)
        assert sched.alpha_bar(0) == 1.0
        assert sched.alpha_bar(1) == pytest.approx(0.9)
        with pytest.raises(ParameterError):
            sched.alpha_bar(11)

    def test_from_betas_takes_arrays_and_any_iterable_of_floats(self):
        betas = np.linspace(1e-4, 0.02, 1000)
        expected = NoiseSchedule.from_betas(betas)
        assert expected.betas is not betas and not expected.betas.flags.writeable
        for given in (betas.tolist(), tuple(betas.tolist()), (float(b) for b in betas),
                      np.stack([betas, betas], axis=1)[:, 0]):
            sched = NoiseSchedule.from_betas(given)
            assert sched.betas.tobytes() == betas.tobytes()
            assert sched.alpha_bars.tobytes() == expected.alpha_bars.tobytes()
        with pytest.raises(ParameterError, match="one-dimensional"):
            NoiseSchedule.from_betas(np.full((2, 3), 0.1))

    def test_inconsistent_alpha_bars_rejected(self):
        betas = np.linspace(0.1, 0.2, 5)
        good = np.cumprod(1 - betas)
        bad = good.copy()
        bad[3] *= 1.0 + 1e-10
        with pytest.raises(ParameterError):
            NoiseSchedule(betas=betas, alpha_bars=bad)


class TestMixtureModel:
    def test_deltas_constructor(self):
        m = MixtureModel.deltas([-1.0, 1.0])
        np.testing.assert_allclose(m.weights, [0.5, 0.5])
        np.testing.assert_allclose(m.variances, [0.0, 0.0])
        assert m.num_components == 2

    def test_arrays_are_frozen(self):
        m = MixtureModel.deltas([0.0, 2.0])
        with pytest.raises(ValueError):
            m.means[0] = 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(weights=[0.5, 0.6], means=[0, 1], variances=[1, 1]),
            dict(weights=[-0.1, 1.1], means=[0, 1], variances=[1, 1]),
            dict(weights=[0.5, 0.5], means=[0, np.inf], variances=[1, 1]),
            dict(weights=[0.5, 0.5], means=[0, 1], variances=[1, -1]),
            dict(weights=[], means=[], variances=[]),
            dict(weights=[0.5, 0.5], means=[0, 1], variances=[1]),
        ],
    )
    def test_invalid_mixtures_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            MixtureModel(**kwargs)

    def test_zero_variance_components_allowed(self):
        m = MixtureModel(weights=[1.0], means=[3.0], variances=[0.0])
        assert m.variances[0] == 0.0


class TestPartition:
    def test_pair_of_equal_weights_gives_even_priors(self):
        m = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
        p = make_partition(m, [3], [2])
        assert p.prior_z0 == pytest.approx(0.5)

    def test_full_cover_partition_keeps_raw_weights(self):
        m = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
        p = make_partition(m, [0], [1])
        assert p.prior_z0 == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "z0, z1, fragment",
        [([0], [0], "overlap"), ([], [1], "non-empty"), ([0], [5], "out of range")],
    )
    def test_bad_partitions_identify_the_problem(self, z0, z1, fragment):
        m = MixtureModel.deltas([-1.0, 0.0, 1.0])
        with pytest.raises(PartitionError, match=fragment):
            make_partition(m, z0, z1)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_priors_invariant_under_component_relabeling(self, perm):
        weights = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        means = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        base = MixtureModel(weights=weights, means=means, variances=np.zeros(5))
        p_base = make_partition(base, [0, 2], [3])

        inv = np.argsort(perm)
        shuffled = MixtureModel(weights=weights[list(perm)], means=means[list(perm)],
                                variances=np.zeros(5))
        p_shuf = make_partition(shuffled, [inv[0], inv[2]], [inv[3]])
        assert p_shuf.prior_z0 == pytest.approx(p_base.prior_z0, abs=1e-15)


def _strided_results(sched, stride):
    """The profile and the bifurcation diagram of two deltas at every ``stride``-th step."""
    from diffentropy.bifurcation import trace_bifurcations
    from diffentropy.entropy import entropy_profile

    mixture = MixtureModel.deltas([-1.0, 1.0])
    return (entropy_profile(mixture, make_partition(mixture, [0], [1]), sched, stride),
            trace_bifurcations(mixture, sched, stride))


class TestStridedSteps:
    def test_strided_always_ends_at_final_step(self):
        sched = linear_schedule(10, 0.01, 0.02)
        for result in _strided_results(sched, 4):
            assert list(result.steps) == [1, 5, 9, 10]
            np.testing.assert_allclose(result.s, np.array([1, 5, 9, 10]) / 10)

    def test_normalized_time_in_unit_interval(self):
        sched = linear_schedule(7, 0.01, 0.02)
        for result in _strided_results(sched, 1):
            assert result.s[0] > 0.0
            assert result.s[-1] == 1.0

    @pytest.mark.parametrize("stride", [7, 8, 2**63, 10**23])
    def test_every_stride_from_t_on_gives_the_first_and_last_step(self, stride):
        # np.arange(1, T + 1, stride) gives float steps for a stride past int64.
        sched = linear_schedule(7, 0.01, 0.02)
        (profile, diagram), (profile_t, diagram_t) = (_strided_results(sched, stride),
                                                      _strided_results(sched, 7))
        for result, at_t in ((profile, profile_t), (diagram, diagram_t)):
            assert result.steps.dtype == at_t.steps.dtype and result.steps.tolist() == [1, 7]
            assert result.s.tolist() == at_t.s.tolist()
        assert profile.H_bits.tobytes() == profile_t.H_bits.tobytes()
        assert diagram.counts.tolist() == diagram_t.counts.tolist()
        assert diagram.x.tobytes() == diagram_t.x.tobytes()

    def test_stride_below_one_is_rejected(self):
        with pytest.raises(ParameterError, match="stride must be >= 1, got 0"):
            _strided_results(linear_schedule(7, 0.01, 0.02), 0)

    def test_profile_steps_and_times_are_read_only(self):
        profile = _strided_results(linear_schedule(7, 0.01, 0.02), 2)[0]
        for arr in (profile.steps, profile.s, profile.H_bits):
            with pytest.raises(ValueError):
                arr[0] = 0


def _array_holders():
    """Two equal but distinct instances of each type that holds arrays."""
    from diffentropy.bifurcation import trace_bifurcations
    from diffentropy.entropy import entropy_profile
    from diffentropy.tracker import GmmScoreModel, estimate_conditional_entropy

    mixture = MixtureModel.deltas([-1.0, 1.0])
    sched = linear_schedule(20, 0.01, 0.2)
    part = make_partition(mixture, [0], [1])
    model = GmmScoreModel(mixture, sched, part)
    builds = [lambda: MixtureModel.deltas([-1.0, 1.0]), lambda: linear_schedule(20, 0.01, 0.2),
              lambda: entropy_profile(mixture, part, sched, 5),
              lambda: estimate_conditional_entropy(model, sched, n_z0=3, n_z1=3),
              lambda: trace_bifurcations(mixture, sched, 5)]
    return [(build(), build()) for build in builds]


def test_types_holding_arrays_compare_by_identity():
    # An elementwise array == has no truth value, so a field-wise == raised.
    for a, b in _array_holders():
        assert a == a and not a != a
        assert a != b and not a == b, type(a).__name__
        assert len({a, a, b}) == 2
