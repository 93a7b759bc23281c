import math
import tracemalloc

import numpy as np
import pytest
from _oracles import (binary_entropy_reference, component_posteriors, jsd_bits_reference,
                      side_posterior, windowed_entropy_bits)

import diffentropy.entropy as entropy
from diffentropy.core import MixtureModel, linear_schedule, make_partition
from diffentropy.entropy import (
    LN2,
    QuadratureDomainError,
    _binary_entropy_bits,
    _logit_entropy_nats,
    conditional_entropy_at,
    entropy_profile,
)
from diffentropy.tracker import LOGIT_MAX

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
SCHEDULE = linear_schedule(1000)


def pair(mixture, i, j):
    return make_partition(mixture, [i], [j])


# A wide component with a point mass inside its window: one merged window
# 4000 narrow sd wide at t = 1, with the switch layers of the point mass in it.
WIDE_AND_NARROW = MixtureModel(weights=[0.5, 0.5], means=[0.0, 0.5], variances=[4.0, 0.0])

# The widest cell the Gaussian factor allows, in units of the narrowest sd.
GAUSS_CELL_SD = np.pi * np.sqrt(2.0 / np.log(1.0 / entropy.WINDOW_TOL))


def _diffused(mixture, alpha_bar):
    """Every component's diffused mean and variance at the one level ``alpha_bar``."""
    [(mu, var, _)] = entropy._kernel_tables(mixture, [alpha_bar], range(mixture.num_components))
    return mu[:, 0], var[:, 0]


def _cell_counts(mixture, partition, alpha_bars):
    [table] = entropy._kernel_tables(mixture, np.asarray(alpha_bars), partition.union)
    return entropy._windows(table, len(partition.z0), lambda level: "here")


def _window_edges(mixture, partition, alpha_bar):
    lo, dx, cells, count = _cell_counts(mixture, partition, [alpha_bar])
    used = cells[0] > 0
    return lo[0, used], (lo + dx * cells)[0, used], dx[0, used], cells[0, used], count[0]


class TestWindows:
    @pytest.mark.parametrize("t", [1, 100, 300, 1000])
    def test_merged_windows_cover_ten_sd_of_the_union_only(self, t):
        part = make_partition(FOUR_DELTAS, [0], [2, 3])
        ab = SCHEDULE.alpha_bar(t)
        lo, hi, dx, cells, count = _window_edges(FOUR_DELTAS, part, ab)
        mu, var = _diffused(FOUR_DELTAS, ab)
        sd = np.sqrt(var)
        assert cells.sum() == count >= entropy.MIN_CELLS
        assert count & (count - 1) == 0  # a power of two
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

    def test_cells_split_by_need(self, monkeypatch):
        lo, hi, dx, cells, count = _window_edges(WIDE_AND_NARROW, pair(WIDE_AND_NARROW, 0, 1), 0.5)
        assert len(lo) == 1 and cells[0] == count
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        lo, hi, dx, cells, count = _window_edges(FOUR_DELTAS, part, SCHEDULE.alpha_bar(1))
        # Four equal windows of 20 sd each, with no switch layer in any of
        # them, need what the Gaussian factor asks for, and get a quarter of
        # the next power of two each.
        need = 4 * np.ceil(20 / GAUSS_CELL_SD)
        assert count // 2 < need <= count
        np.testing.assert_array_equal(cells, [count // 4] * 4)
        np.testing.assert_allclose(dx, 20 * np.sqrt(SCHEDULE.betas[0]) / (count // 4), rtol=1e-12)
        # A raised floor is split the same way.
        monkeypatch.setattr(entropy, "MIN_CELLS", 1000)
        lo, hi, dx, cells, count = _window_edges(FOUR_DELTAS, part, SCHEDULE.alpha_bar(1))
        assert count == 1024
        np.testing.assert_array_equal(cells, [256] * 4)

    def test_level_over_the_cell_cap_raises(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        ab = 1.0 - 1e-9  # a point mass of sd 3e-5 in a window 40 wide
        need = int(np.ceil(40.0 / (GAUSS_CELL_SD * np.sqrt(1.0 - ab))))
        assert need > entropy.MAX_CELLS
        with pytest.raises(QuadratureDomainError, match=r"alpha_bar=.* more than the 1048576"):
            conditional_entropy_at(WIDE_AND_NARROW, part, ab)

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
        np.testing.assert_allclose(_logit_entropy_nats(logits) / LN2,
                                   binary_entropy_reference(p_small), rtol=0, atol=1e-15)
        assert _logit_entropy_nats(np.array([0.0]))[0] / LN2 == 1.0

    def test_symmetric_in_the_logit(self):
        logits = np.linspace(0.0, LOGIT_MAX, 101)
        assert np.array_equal(_logit_entropy_nats(logits), _logit_entropy_nats(-logits))


# Far-apart decisions that a grid spanning the whole mixture got silently
# wrong: (means of equal-weight deltas, z0, z1).
FAR_APART = [
    ((-1000.0, -999.9, 1000.0), [0], [1]),
    ((-1000.0, -999.9, 1000.0), [0], [1, 2]),
    ((-100.0, -99.5, 100.0, 100.5), [0, 2], [1, 3]),
    ((-30.0, -29.8, 0.0, 30.0), [0, 2], [1, 3]),
]


def _oracle(mixture, z0, z1, alpha_bar, per_sd=32):
    return windowed_entropy_bits(mixture.means, mixture.weights, mixture.variances, z0, z1, alpha_bar,
                                 per_sd=per_sd)


# Decisions whose default profiles must match a dense grid to H_TOL: the
# benchmark's three, the comb's coarse split, a near and a far pair, and
# components of unequal variances, whose log-odds are quadratic in x.
SIZING = [
    pytest.param(FOUR_DELTAS, [0], [1], id="left-pair"),
    pytest.param(FOUR_DELTAS, [2], [3], id="right-pair"),
    pytest.param(FOUR_DELTAS, [0, 1], [2, 3], id="coarse"),
    pytest.param(MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0]), [0, 1], [2, 3], id="comb-coarse"),
    pytest.param(TWO_DELTAS, [0], [1], id="pair-1"),
    pytest.param(MixtureModel.deltas([-20.0, 20.0]), [0], [1], id="pair-20"),
    pytest.param(MixtureModel(weights=[0.5, 0.5], means=[-1.0, 1.0], variances=[0.5, 0.05]),
                 [0], [1], id="unequal-variances"),
    pytest.param(MixtureModel(weights=[0.5, 0.5], means=[0.0, 0.0], variances=[1.0, 0.01]),
                 [0], [1], id="same-mean-unequal-variances"),
    pytest.param(MixtureModel(weights=[0.3, 0.3, 0.4], means=[0.0, 0.5, 1.0], variances=[4.0, 0.0, 0.0]),
                 [0], [1, 2], id="wide-around-point-masses"),
]


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

    def test_wide_and_narrow_resolves_at_the_default_as_when_refined(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        for t in (1, 2, 10, 100):
            ab = SCHEDULE.alpha_bar(t)
            h = conditional_entropy_at(WIDE_AND_NARROW, part, ab)
            refined = _oracle(WIDE_AND_NARROW, [0], [1], ab, per_sd=64)
            assert h == pytest.approx(refined, abs=entropy.H_TOL), f"t={t}"
            assert h == pytest.approx(_oracle(WIDE_AND_NARROW, [0], [1], ab), abs=entropy.H_TOL)

    def test_switch_layer_refines_the_cells(self, monkeypatch):
        # The left pair at t = 146: cells that resolve only the Gaussian
        # factor miss the posterior's switch layer between the two deltas.
        part = pair(FOUR_DELTAS, 0, 1)
        ab = SCHEDULE.alpha_bar(146)
        ref = _oracle(FOUR_DELTAS, [0], [1], ab, per_sd=64)
        assert conditional_entropy_at(FOUR_DELTAS, part, ab) == pytest.approx(ref, abs=entropy.H_TOL)
        monkeypatch.setattr(entropy, "_branch_points", lambda mu, *rest: np.full((2,) + mu.shape[1:], np.nan))
        assert abs(conditional_entropy_at(FOUR_DELTAS, part, ab) - ref) > 1e-11

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
        mu, var = _diffused(mixture, ab)
        sides = rng.random(n) < part.prior_z0
        comp = np.where(sides, 2, 3)
        xs = mu[comp] + np.sqrt(var[comp]) * rng.standard_normal(n)
        q0 = side_posterior(component_posteriors(mixture, ab, xs), part.z0, part.z1)
        values = binary_entropy_reference(q0)
        mc = values.mean()
        sem = values.std(ddof=1) / np.sqrt(n)
        h = conditional_entropy_at(mixture, part, ab)
        assert abs(h - mc) < 3 * sem

    def test_weighted_prior_recovered_at_full_noise(self):
        skew = MixtureModel(weights=[0.1, 0.9], means=[-1.0, 1.0], variances=[0.0, 0.0])
        part = pair(skew, 0, 1)
        h = conditional_entropy_at(skew, part, SCHEDULE.alpha_bars[-1])
        assert h == pytest.approx(_binary_entropy_bits(part.prior_z0), abs=1e-3)
        assert _binary_entropy_bits(part.prior_z0) == pytest.approx(0.4689955935892812)

    @pytest.mark.parametrize("t", [1, 150, 500])
    def test_converged_in_grid_points(self, t):
        # The default cells against the plain-numpy grid at 32 to 256 cells per sd.
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        ab = SCHEDULE.alpha_bar(t)
        hs = [conditional_entropy_at(FOUR_DELTAS, part, ab)]
        hs += [_oracle(FOUR_DELTAS, [0, 1], [2, 3], ab, per_sd=n) for n in (32, 64, 128, 256)]
        assert max(hs) - min(hs) < 1e-11

    def test_monotone_in_forward_time(self):
        part = pair(TWO_DELTAS, 0, 1)
        hs = [conditional_entropy_at(TWO_DELTAS, part, SCHEDULE.alpha_bar(t))
              for t in range(1, 1001, 10)]
        assert np.all(np.diff(hs) >= -1e-9)


class TestJsd:
    """H against the plain-numpy JSD of the two side densities: for even priors H = 1 - JSD."""

    def test_identical_sides_have_zero_divergence(self):
        twins = MixtureModel(weights=[0.5, 0.5], means=[2.0, 2.0], variances=[0.3, 0.3])
        jsd = jsd_bits_reference(twins, [0], [1], 0.6)
        assert jsd == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy_at(twins, pair(twins, 0, 1), 0.6) == pytest.approx(1.0 - jsd,
                                                                                    abs=1e-12)

    def test_separated_deltas_saturate_at_one_bit(self):
        ab = 1.0 - 1e-9
        jsd = jsd_bits_reference(TWO_DELTAS, [0], [1], ab)
        assert jsd == pytest.approx(1.0, abs=1e-3)
        assert conditional_entropy_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), ab) == pytest.approx(
            1.0 - jsd, abs=1e-3)

    def test_does_not_depend_on_the_priors(self):
        # The divergence is between the side densities; a side without prior
        # mass still has one, so the skewed pair's JSD is the even pair's.
        skew = MixtureModel(weights=[0.0, 1.0], means=[-1.0, 1.0], variances=[0.0, 0.0])
        h_even = conditional_entropy_at(TWO_DELTAS, pair(TWO_DELTAS, 0, 1), 0.5)
        assert jsd_bits_reference(skew, [0], [1], 0.5, per_sd=64) == pytest.approx(
            1.0 - h_even, abs=entropy.H_TOL)

    @pytest.mark.parametrize("z0,z1", [([0], [1]), ([0, 1], [2, 3])])
    def test_complements_conditional_entropy_for_even_priors(self, z0, z1):
        part = make_partition(FOUR_DELTAS, z0, z1)
        for ab in np.linspace(SCHEDULE.alpha_bars[-1], SCHEDULE.alpha_bars[0], 25):
            h = conditional_entropy_at(FOUR_DELTAS, part, ab)
            j = jsd_bits_reference(FOUR_DELTAS, z0, z1, ab, per_sd=64)
            assert abs(h + j - 1.0) < entropy.H_TOL

    @pytest.mark.parametrize("t", [1, 146, 300, 600, 1000])
    @pytest.mark.parametrize("mixture,z0,z1", [
        (FOUR_DELTAS, [0], [1, 2, 3]),
        (MixtureModel(weights=[0.1, 0.2, 0.7], means=[-1.0, 0.0, 2.0], variances=[0.5, 0.0, 0.05]),
         [0, 2], [1]),
    ])
    def test_matches_a_plain_numpy_reference(self, mixture, z0, z1, t):
        # Uneven priors: H of the sides mixed with even priors is 1 - JSD.
        ab = SCHEDULE.alpha_bar(t)
        w = np.asarray(mixture.weights, dtype=np.float64).copy()
        for side in (z0, z1):
            w[side] = 0.5 * w[side] / w[side].sum()
        even = MixtureModel(weights=w, means=mixture.means, variances=mixture.variances)
        h = conditional_entropy_at(even, make_partition(even, z0, z1), ab)
        assert h == pytest.approx(1.0 - jsd_bits_reference(mixture, z0, z1, ab, per_sd=64),
                                  abs=entropy.H_TOL)


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
        s_coarse = coarse.s[np.argmax(coarse.rate_bits)]
        s_fine = fine.s[np.argmax(fine.rate_bits)]
        assert s_coarse > s_fine

    def test_step_annotation_on_quadrature_error(self):
        part = pair(WIDE_AND_NARROW, 0, 1)
        prof = entropy_profile(WIDE_AND_NARROW, part, SCHEDULE, stride=250)
        assert prof.H_bits.shape == prof.s.shape
        # A first step of beta = 1e-9 leaves the point mass too narrow for the cap.
        with pytest.raises(QuadratureDomainError, match=r"step t=1: .* more than the 1048576"):
            entropy_profile(WIDE_AND_NARROW, part, linear_schedule(1000, 1e-9, 0.02), stride=250)

    @pytest.mark.parametrize("mixture,z0,z1", SIZING)
    def test_default_profile_matches_a_dense_grid(self, mixture, z0, z1):
        prof = entropy_profile(mixture, make_partition(mixture, z0, z1), SCHEDULE, stride=9)
        ref = [_oracle(mixture, z0, z1, SCHEDULE.alpha_bar(int(t)), per_sd=64) for t in prof.steps]
        np.testing.assert_allclose(prof.H_bits, ref, rtol=0, atol=entropy.H_TOL)

    def test_profile_matches_single_levels(self):
        part = make_partition(FOUR_DELTAS, [0, 1], [2, 3])
        prof = entropy_profile(FOUR_DELTAS, part, SCHEDULE, stride=37)
        single = [conditional_entropy_at(FOUR_DELTAS, part, SCHEDULE.alpha_bar(int(t)))
                  for t in prof.steps]
        np.testing.assert_array_equal(prof.H_bits, single)

    def test_kernel_is_called_once_per_chunk_of_levels(self, monkeypatch):
        calls = []
        real_kernel = entropy._log_joints
        monkeypatch.setattr(entropy, "_log_joints",
                            lambda params, x: calls.append(np.shape(x)) or real_kernel(params, x))
        part = pair(TWO_DELTAS, 0, 1)
        prof = entropy_profile(TWO_DELTAS, part, SCHEDULE)
        # Levels of one cell count share chunks; the window rule's calls
        # take one point per level.
        chunks = [shape for shape in calls if len(shape) == 2]
        count = _cell_counts(TWO_DELTAS, part, SCHEDULE.alpha_bars)[3]
        sizes = {int(n): entropy.CHUNK_TERMS // (2 * int(n)) for n in count}
        assert len(sizes) > 1
        assert len(chunks) == sum(math.ceil(np.sum(count == n) / per_chunk)
                                  for n, per_chunk in sizes.items()) < len(prof.steps)
        assert all(rows <= sizes[n] for rows, n in chunks)

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
