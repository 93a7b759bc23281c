import numpy as np
import pytest

from diffentropy.core import MixtureModel, ParameterError, linear_schedule, make_partition
from diffentropy.entropy import (
    QuadratureDomainError,
    QuadratureGrid,
    _logit_entropy_bits,
    binary_entropy_bits,
    conditional_entropy_at,
    entropy_profile,
    information_transfer,
    jsd_at,
    prior_entropy_bits,
)
from diffentropy.mixture import class_posteriors, diffused_params, partition_posterior
from diffentropy.tracker import LOGIT_MAX

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
SCHEDULE = linear_schedule(1000)


def pair(mixture, i, j):
    return make_partition(mixture, [i], [j])


class TestQuadratureGrid:
    def test_rejects_bad_bounds_and_tiny_grids(self):
        with pytest.raises(ParameterError):
            QuadratureGrid(1.0, 1.0)
        with pytest.raises(ParameterError):
            QuadratureGrid(0.0, 1.0, n=32)

    def test_auto_bounds_cover_ten_sigma(self):
        grid = QuadratureGrid.for_mixture(FOUR_DELTAS, 0.5)
        mu, var = diffused_params(FOUR_DELTAS, 0.5)
        sd = np.sqrt(var)
        assert grid.lo <= np.min(mu - 10 * sd)
        assert grid.hi >= np.max(mu + 10 * sd)

    def test_coverage_violation_raises_with_bounds(self):
        grid = QuadratureGrid(-2.0, 2.0, n=256)
        with pytest.raises(QuadratureDomainError, match="must cover"):
            conditional_entropy_at(FOUR_DELTAS, pair(FOUR_DELTAS, 0, 1), 0.5, grid)


class TestLogitEntropy:
    def test_matches_binary_entropy_across_the_clamped_range(self):
        logits = np.concatenate([np.linspace(-LOGIT_MAX, LOGIT_MAX, 2001), [0.0, -LOGIT_MAX, LOGIT_MAX]])
        # The coin's smaller probability, formed without cancellation.
        p_small = 1.0 / (1.0 + np.exp(np.abs(logits)))
        np.testing.assert_allclose(_logit_entropy_bits(logits), binary_entropy_bits(p_small),
                                   rtol=0, atol=1e-15)
        assert _logit_entropy_bits(np.array([0.0]))[0] == 1.0

    def test_symmetric_in_the_logit(self):
        logits = np.linspace(0.0, LOGIT_MAX, 101)
        assert np.array_equal(_logit_entropy_bits(logits), _logit_entropy_bits(-logits))


def _reference_entropy_bits(means, z0, z1, alpha_bar, grid):
    """Plain-numpy H(z | x_t) for equal-weight deltas on the grid's midpoints.

    Only the decision's components count, so each weighs 1 / |z0 + z1|.
    """
    x = grid.points()
    var = 1.0 - alpha_bar
    dens = [np.exp(-(x - np.sqrt(alpha_bar) * m) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
            for m in means]
    union = len(z0) + len(z1)
    joint0 = sum(dens[k] for k in z0) / union
    joint1 = sum(dens[k] for k in z1) / union
    total = joint0 + joint1
    h = np.zeros_like(x)
    live = total > 0.0
    for joint in (joint0, joint1):
        q = joint[live] / total[live]
        h[live] -= np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    return float(np.sum(total * h) * grid.dx)


class TestConditionalEntropy:
    @pytest.mark.parametrize("t", [50, 300, 600])
    @pytest.mark.parametrize("z0,z1", [([0], [1]), ([2], [3]), ([0, 1], [2, 3])])
    def test_four_delta_decisions_match_a_plain_numpy_reference(self, t, z0, z1):
        means = [-8.0, -4.0, 6.0, 8.0]
        ab = SCHEDULE.alpha_bar(t)
        sd = np.sqrt(1.0 - ab)
        mu = np.sqrt(ab) * np.array(means)
        grid = QuadratureGrid(float(np.min(mu) - 10.0 * sd), float(np.max(mu) + 10.0 * sd))
        h = conditional_entropy_at(FOUR_DELTAS, make_partition(FOUR_DELTAS, z0, z1), ab, grid)
        assert h == pytest.approx(_reference_entropy_bits(means, z0, z1, ab, grid), abs=1e-12)

    def test_full_noise_recovers_prior_entropy(self):
        h = conditional_entropy_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), SCHEDULE.alpha_bars[-1])
        assert h == pytest.approx(1.0, abs=1e-3)

    def test_resolved_decision_near_clean_data(self):
        h = conditional_entropy_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), 1.0 - 1e-6)
        assert h < 1e-3

    def test_matches_plain_monte_carlo(self):
        # Independent sampling oracle: draw from the decision's mixture and
        # average the posterior's binary entropy directly.
        mixture, part = FOUR_DELTAS, pair(FOUR_DELTAS, 2, 3)
        ab = 0.5
        rng = np.random.default_rng(2024)
        n = 1_000_000
        mu, var = diffused_params(mixture, ab)
        sides = rng.random(n) < part.prior_z0
        comp = np.where(sides, 2, 3)
        xs = mu[comp] + np.sqrt(var[comp]) * rng.standard_normal(n)
        q0, _ = partition_posterior(part, class_posteriors(mixture, ab, xs))
        values = binary_entropy_bits(q0)
        mc = values.mean()
        sem = values.std(ddof=1) / np.sqrt(n)
        h = conditional_entropy_at(mixture, part, ab)
        assert abs(h - mc) < 3 * sem

    def test_weighted_prior_recovered_at_full_noise(self):
        skew = MixtureModel(weights=[0.1, 0.9], means=[-1.0, 1.0], variances=[0.0, 0.0])
        part = pair(skew, 0, 1)
        h = conditional_entropy_at(skew, part, SCHEDULE.alpha_bars[-1])
        assert h == pytest.approx(prior_entropy_bits(part), abs=1e-3)
        assert prior_entropy_bits(part) == pytest.approx(0.4689955935892812)

    def test_grid_refinement_converged(self):
        part = pair(FOUR_DELTAS, 2, 3)
        h1 = conditional_entropy_at(FOUR_DELTAS, part, 0.5, QuadratureGrid.for_mixture(FOUR_DELTAS, 0.5, n=4096))
        h2 = conditional_entropy_at(FOUR_DELTAS, part, 0.5, QuadratureGrid.for_mixture(FOUR_DELTAS, 0.5, n=8192))
        assert abs(h1 - h2) < 1e-8

    def test_monotone_in_forward_time(self):
        part = pair(TWO_DELTAS, 0, 1)
        hs = [conditional_entropy_at(TWO_DELTAS, part, SCHEDULE.alpha_bar(t))
              for t in range(1, 1001, 10)]
        assert np.all(np.diff(hs) >= -1e-9)


class TestJsd:
    def test_identical_sides_have_zero_divergence(self):
        twins = MixtureModel(weights=[0.5, 0.5], means=[2.0, 2.0], variances=[0.3, 0.3])
        assert jsd_at(twins, pair(twins, 0, 1), 0.6) == pytest.approx(0.0, abs=1e-12)

    def test_separated_deltas_saturate_at_one_bit(self):
        assert jsd_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-3)

    def test_complements_conditional_entropy_for_even_priors(self):
        part = pair(TWO_DELTAS, 0, 1)
        for ab in np.linspace(SCHEDULE.alpha_bars[-1], SCHEDULE.alpha_bars[0], 25):
            h = conditional_entropy_at(TWO_DELTAS, part, ab)
            j = jsd_at(TWO_DELTAS, part, ab)
            assert h + j == pytest.approx(1.0, abs=1e-6)


class TestEntropyProfile:
    def test_indistinguishable_classes_stay_at_one_bit(self):
        twins = MixtureModel(weights=[0.5, 0.5], means=[1.5, 1.5], variances=[0.2, 0.2])
        prof = entropy_profile(twins, pair(twins, 0, 1), SCHEDULE, stride=100)
        np.testing.assert_allclose(prof.H_bits, 1.0, atol=1e-9)
        np.testing.assert_allclose(prof.rate_bits, 0.0, atol=1e-6)

    def test_profile_nondecreasing(self):
        prof = entropy_profile(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), SCHEDULE, stride=5)
        assert np.all(np.diff(prof.H_bits) >= -1e-9)

    def test_sibling_decisions_peak_in_order(self):
        # The wider pair's decision window sits deeper in the noising phase.
        coarse = entropy_profile(FOUR_DELTAS, pair(FOUR_DELTAS, 0, 1), SCHEDULE, stride=5)
        fine = entropy_profile(FOUR_DELTAS, pair(FOUR_DELTAS, 2, 3), SCHEDULE, stride=5)
        s_coarse = coarse.times.s[np.argmax(coarse.rate_bits)]
        s_fine = fine.times.s[np.argmax(fine.rate_bits)]
        assert s_coarse > s_fine

    def test_step_annotation_on_coverage_error(self):
        grid = QuadratureGrid(-30.0, 30.0, n=512)  # fine at high noise, too narrow later? keep valid
        prof = entropy_profile(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), SCHEDULE, grid=grid, stride=250)
        assert prof.H_bits.shape == prof.times.s.shape
        bad = QuadratureGrid(-0.5, 0.5, n=256)
        with pytest.raises(QuadratureDomainError, match="step t="):
            entropy_profile(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), SCHEDULE, grid=bad, stride=250)


class TestInformationTransfer:
    def test_limits(self):
        part = pair(TWO_DELTAS, 0, 1)
        prof = entropy_profile(TWO_DELTAS, part, SCHEDULE, stride=20)
        transfer = information_transfer(prof)
        np.testing.assert_allclose(transfer, prof.transfer_bits, rtol=1e-15)
        assert transfer[-1] == pytest.approx(0.0, abs=1e-3)   # nothing known at full noise
        assert transfer[0] == pytest.approx(prof.prior_bits, abs=1e-3)
        assert np.all(transfer >= -1e-9)
        assert np.all(transfer <= 1.0 + 1e-9)
