import math
import tracemalloc

import numpy as np
import pytest
from _oracles import side_posterior, windowed_entropy_bits

import diffentropy.entropy as entropy
from diffentropy.core import MixtureModel, ParameterError, linear_schedule, make_partition
from diffentropy.entropy import (
    QuadratureDomainError,
    _logit_entropy_bits,
    binary_entropy_bits,
    conditional_entropy_at,
    entropy_profile,
    jsd_at,
    prior_entropy_bits,
)
from diffentropy.mixture import class_posteriors, diffused_params
from diffentropy.tracker import LOGIT_MAX

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
SCHEDULE = linear_schedule(1000)


def pair(mixture, i, j):
    return make_partition(mixture, [i], [j])


# A wide component with a point mass inside its window: one merged window
# 4000 narrow sd wide at t = 1, which 1024 cells cannot resolve.
WIDE_AND_NARROW = MixtureModel(weights=[0.5, 0.5], means=[0.0, 0.5], variances=[4.0, 0.0])


def _window_edges(mixture, partition, alpha_bar, grid_points=entropy.DEFAULT_GRID_POINTS):
    lo, dx, cells = entropy._windows(mixture, partition, np.array([alpha_bar]), grid_points,
                                     lambda level: "here")
    used = cells[0] > 0
    return lo[0, used], (lo + dx * cells)[0, used], dx[0, used], cells[0, used]


class TestWindows:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ParameterError):
            conditional_entropy_at(FOUR_DELTAS, pair(FOUR_DELTAS, 0, 1), 0.5, grid_points=32)

    @pytest.mark.parametrize("t", [1, 100, 300, 1000])
    def test_merged_windows_cover_ten_sd_of_the_union_only(self, t):
        part = make_partition(FOUR_DELTAS, [0], [2, 3])
        ab = SCHEDULE.alpha_bar(t)
        lo, hi, dx, cells = _window_edges(FOUR_DELTAS, part, ab)
        mu, var = diffused_params(FOUR_DELTAS, ab)
        sd = np.sqrt(var)
        assert cells.sum() == entropy.DEFAULT_GRID_POINTS
        assert np.all(lo[1:] > hi[:-1])  # disjoint, so every edge lies in a tail
        for k in (0, 2, 3):
            inside = (lo <= mu[k] - 10 * sd[k] + 1e-12) & (hi >= mu[k] + 10 * sd[k] - 1e-12)
            assert inside.sum() == 1
        for edge in np.concatenate([lo, hi]):
            assert np.min(np.abs(edge - mu[[0, 2, 3]]) / sd[[0, 2, 3]]) >= 10 * (1 - 1e-12)
        # Component 1 is outside the decision: no window is spent on it at low noise.
        if t == 1:
            assert not np.any((lo <= mu[1]) & (mu[1] <= hi))
            assert len(lo) == 3

    def test_cells_split_by_width_in_narrowest_sd(self):
        lo, hi, dx, cells = _window_edges(WIDE_AND_NARROW, pair(WIDE_AND_NARROW, 0, 1), 0.5)
        assert len(lo) == 1 and cells[0] == entropy.DEFAULT_GRID_POINTS
        lo, hi, dx, cells = _window_edges(FOUR_DELTAS, make_partition(FOUR_DELTAS, [0, 1], [2, 3]),
                                          SCHEDULE.alpha_bar(1))
        # Four equal windows of 20 sd each get a quarter of the cells.
        np.testing.assert_array_equal(cells, [256] * 4)
        np.testing.assert_allclose(dx, 20 * np.sqrt(SCHEDULE.betas[0]) / 256, rtol=1e-12)

    def test_coarse_cell_raises_naming_a_grid_that_would_do(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        ab = SCHEDULE.alpha_bar(1)
        with pytest.raises(QuadratureDomainError, match=r"alpha_bar=.*grid_points=16384 would do"):
            conditional_entropy_at(WIDE_AND_NARROW, part, ab)
        lo, hi, dx, cells = _window_edges(WIDE_AND_NARROW, part, ab, 16384)
        assert dx[0] <= 0.25 * np.sqrt(1.0 - ab)

    def test_mass_defect_raises(self, monkeypatch):
        # Windows of 2 sd hold ~95% of the mass; the check must notice.
        monkeypatch.setattr(entropy, "WINDOW_SPAN", 2.0)
        with pytest.raises(QuadratureDomainError, match="mass"):
            conditional_entropy_at(FOUR_DELTAS, pair(FOUR_DELTAS, 0, 1), 0.5)


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


# Far-apart decisions that a grid spanning the whole mixture got silently
# wrong: (means of equal-weight deltas, z0, z1).
FAR_APART = [
    ((-1000.0, -999.9, 1000.0), [0], [1]),
    ((-1000.0, -999.9, 1000.0), [0], [1, 2]),
    ((-100.0, -99.5, 100.0, 100.5), [0, 2], [1, 3]),
    ((-30.0, -29.8, 0.0, 30.0), [0, 2], [1, 3]),
]


def _oracle(mixture, z0, z1, alpha_bar):
    return windowed_entropy_bits(mixture.means, mixture.weights, mixture.variances, z0, z1, alpha_bar)


class TestConditionalEntropy:
    @pytest.mark.parametrize("t", [1, 50, 300, 600, 1000])
    @pytest.mark.parametrize("z0,z1", [([0], [1]), ([2], [3]), ([0, 1], [2, 3])])
    def test_four_delta_decisions_match_a_plain_numpy_reference(self, t, z0, z1):
        ab = SCHEDULE.alpha_bar(t)
        h = conditional_entropy_at(FOUR_DELTAS, make_partition(FOUR_DELTAS, z0, z1), ab)
        assert h == pytest.approx(_oracle(FOUR_DELTAS, z0, z1, ab), abs=1e-12)

    @pytest.mark.parametrize("means,z0,z1", FAR_APART)
    def test_far_apart_decisions_match_the_windowed_oracle(self, means, z0, z1):
        mixture = MixtureModel.deltas(means)
        part = make_partition(mixture, z0, z1)
        for t in [*range(1, 61), 100, 300, 1000]:
            ab = SCHEDULE.alpha_bar(t)
            assert conditional_entropy_at(mixture, part, ab) == pytest.approx(
                _oracle(mixture, z0, z1, ab), abs=1e-12), f"t={t}"

    def test_wide_and_narrow_raises_at_the_default_and_resolves_when_refined(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        ab = SCHEDULE.alpha_bar(1)
        with pytest.raises(QuadratureDomainError):
            conditional_entropy_at(WIDE_AND_NARROW, part, ab)
        h = conditional_entropy_at(WIDE_AND_NARROW, part, ab, grid_points=16384)
        assert h == pytest.approx(_oracle(WIDE_AND_NARROW, [0], [1], ab), abs=1e-12)

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
        q0 = side_posterior(class_posteriors(mixture, ab, xs), part.z0, part.z1)
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

    @pytest.mark.parametrize("t", [1, 150, 500])
    def test_converged_in_grid_points(self, t):
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        ab = SCHEDULE.alpha_bar(t)
        hs = [conditional_entropy_at(FOUR_DELTAS, part, ab, grid_points=n) for n in (512, 1024, 4096, 16384)]
        assert max(hs) - min(hs) < 1e-11

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

    def test_does_not_depend_on_the_priors(self):
        # The divergence is between the side densities; a side without prior
        # mass still has one.
        skew = MixtureModel(weights=[0.0, 1.0], means=[-1.0, 1.0], variances=[0.0, 0.0])
        assert jsd_at(skew, pair(skew, 0, 1), 0.5) == pytest.approx(
            jsd_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), 0.5), abs=1e-14)

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

    def test_step_annotation_on_quadrature_error(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        prof = entropy_profile(WIDE_AND_NARROW, part, SCHEDULE, stride=250, grid_points=16384)
        assert prof.H_bits.shape == prof.times.s.shape
        with pytest.raises(QuadratureDomainError, match=r"step t=1: .*grid_points=16384 would do"):
            entropy_profile(WIDE_AND_NARROW, part, SCHEDULE, stride=250)

    def test_profile_matches_single_levels(self):
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        prof = entropy_profile(FOUR_DELTAS, part, SCHEDULE, stride=37)
        single = [conditional_entropy_at(FOUR_DELTAS, part, SCHEDULE.alpha_bar(int(t)))
                  for t in prof.times.steps]
        np.testing.assert_array_equal(prof.H_bits, single)

    def test_kernel_is_called_once_per_chunk_of_levels(self, monkeypatch):
        calls = []
        real_kernel = entropy._log_joints
        monkeypatch.setattr(entropy, "_log_joints",
                            lambda *args: calls.append(args) or real_kernel(*args))
        prof = entropy_profile(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), SCHEDULE)
        per_chunk = entropy.CHUNK_TERMS // (2 * entropy.DEFAULT_GRID_POINTS)
        assert len(calls) == math.ceil(len(prof.times) / per_chunk) < len(prof.times)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        entropy_profile(FOUR_DELTAS, part, SCHEDULE, stride=500)  # warm caches
        tracemalloc.start()
        try:
            entropy_profile(FOUR_DELTAS, part, SCHEDULE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 0.83 MB with chunks of 16k kernel terms, 1.8 MB with 32k.
        assert peak < 1_400_000


class TestInformationTransfer:
    def test_limits(self):
        part = pair(TWO_DELTAS, 0, 1)
        prof = entropy_profile(TWO_DELTAS, part, SCHEDULE, stride=20)
        transfer = prof.transfer_bits
        np.testing.assert_allclose(transfer, prof.prior_bits - prof.H_bits, rtol=1e-15)
        assert transfer[-1] == pytest.approx(0.0, abs=1e-3)   # nothing known at full noise
        assert transfer[0] == pytest.approx(prof.prior_bits, abs=1e-3)
        assert np.all(transfer >= -1e-9)
        assert np.all(transfer <= 1.0 + 1e-9)
