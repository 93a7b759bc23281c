import tracemalloc
from collections import Counter

import numpy as np
import pytest

from diffentropy import bifurcation, mixture
from diffentropy.bifurcation import (
    FixedPoint,
    find_fixed_points,
    sibling_split_time,
    trace_bifurcations,
)
from diffentropy.core import MixtureModel, ParameterError, linear_schedule

from _oracles import (drift_residual_derivative_reference, drift_residual_reference, scan_box,
                      sign_change_count)

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
PAIR_SKEWED = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
ROW_LOPSIDED = MixtureModel.deltas([-2.0, 1.0, 2.0])
SCHEDULE = linear_schedule(1000)


class TestDriftResidual:
    def test_single_standard_component_has_origin_root(self):
        m = MixtureModel(weights=[1.0], means=[0.0], variances=[1.0])
        for ab in (0.1, 0.5, 0.9):
            assert drift_residual_reference(m, ab, 0.0) == 0.0

    def test_symmetric_mixture_is_odd(self):
        for ab in (0.05, 0.5, 0.95):
            assert drift_residual_reference(TWO_DELTAS, ab, 0.0) == pytest.approx(0.0, abs=1e-14)
            xs = np.linspace(0.1, 3.0, 7)
            np.testing.assert_allclose(
                drift_residual_reference(TWO_DELTAS, ab, xs),
                -drift_residual_reference(TWO_DELTAS, ab, -xs),
                atol=1e-12,
            )

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = rng.uniform(-10, 10)
            ab = rng.uniform(0.05, 0.95)
            fd = (drift_residual_reference(FOUR_DELTAS, ab, x + h)
                  - drift_residual_reference(FOUR_DELTAS, ab, x - h)) / (2 * h)
            assert drift_residual_derivative_reference(FOUR_DELTAS, ab, x) == pytest.approx(
                fd, rel=1e-6, abs=1e-6
            )

    def test_drift_coefficient_is_configurable(self):
        x = 1.3
        assert drift_residual_reference(TWO_DELTAS, 0.5, x, drift_coeff=0.0) == pytest.approx(
            drift_residual_reference(TWO_DELTAS, 0.5, x) - 0.5 * x
        )


class TestFindFixedPoints:
    def test_high_noise_single_stable_origin(self):
        pts = find_fixed_points(TWO_DELTAS, 1e-4)
        assert len(pts) == 1
        assert pts[0].stable
        assert pts[0].x == pytest.approx(0.0, abs=1e-12)

    def test_low_noise_pitchfork_arms(self):
        ab = 0.999
        pts = find_fixed_points(TWO_DELTAS, ab)
        assert len(pts) == sign_change_count(TWO_DELTAS, ab, *scan_box(TWO_DELTAS, ab))
        assert len(pts) == 3
        assert [p.stable for p in pts] == [True, False, True]
        # Arms sit just inside the noise-scaled deltas.
        assert pts[0].x == pytest.approx(-np.sqrt(ab), abs=0.01)
        assert pts[2].x == pytest.approx(np.sqrt(ab), abs=0.01)
        assert pts[1].x == pytest.approx(0.0, abs=1e-12)

    def test_every_root_is_converged_and_consistently_classified(self):
        h = 1e-5
        for ab in (0.05, 0.3, 0.6, 0.9, 0.999):
            for p in find_fixed_points(FOUR_DELTAS, ab):
                assert abs(p.residual) < 1e-10
                fd = (drift_residual_reference(FOUR_DELTAS, ab, p.x + h)
                      - drift_residual_reference(FOUR_DELTAS, ab, p.x - h)) / (2 * h)
                assert p.stable == (fd > 0)

    def test_counts_match_dense_scan_across_sweep(self):
        # Levels start at t=50: closer to the clean end, off-lattice repelling
        # roots sit on float64 residual steps above the convergence tolerance
        # (this mixture's widest gap needs variance above ~0.017 to resolve).
        for t in range(50, SCHEDULE.num_steps + 1, 97):
            ab = SCHEDULE.alpha_bar(t)
            pts = find_fixed_points(FOUR_DELTAS, ab)
            assert len(pts) == sign_change_count(FOUR_DELTAS, ab, *scan_box(FOUR_DELTAS, ab))

    def test_stable_and_unstable_alternate(self):
        for ab in (0.2, 0.6, 0.9, 0.95):
            pts = find_fixed_points(FOUR_DELTAS, ab)
            kinds = [p.stable for p in pts]
            assert kinds[0] and kinds[-1]
            assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))

    def test_symmetric_mixture_yields_symmetric_roots(self):
        sym = MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0])
        for ab in (0.1, 0.5, 0.9, 0.999):
            xs = np.array([p.x for p in find_fixed_points(sym, ab)])
            np.testing.assert_allclose(xs, -xs[::-1], atol=1e-9)

    def test_four_branches_resolve_at_low_noise(self):
        pts = find_fixed_points(FOUR_DELTAS, 0.9999)
        stable = [p for p in pts if p.stable]
        assert len(stable) == 4

    def test_root_on_a_grid_node_is_reported_once(self):
        # With an odd node count the symmetric box puts a node on the origin,
        # where the residual is exactly zero: a root with no sign-change cell.
        n = 257
        for ab in (1e-4, 0.5, 0.999):
            lo, hi = scan_box(TWO_DELTAS, ab)
            assert np.linspace(lo, hi, n)[n // 2] == 0.0
            assert drift_residual_reference(TWO_DELTAS, ab, 0.0) == 0.0
            pts = find_fixed_points(TWO_DELTAS, ab, n_starts=n)
            assert [p.x for p in pts if abs(p.x) < 1e-6] == [0.0]
            assert len(pts) == sign_change_count(TWO_DELTAS, ab, lo, hi)

    def test_counts_match_dense_scan_at_refined_events(self):
        # The adjacent steps around each count change of FOUR_DELTAS, where
        # roots are born or die and the brackets are hardest to resolve.
        events = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=20).critical
        steps = sorted({t for e in events if e.t_before >= 25 for t in (e.t_before, e.t_after)})
        assert steps == [130, 131, 222, 223, 565, 566]
        for t in steps:
            ab = SCHEDULE.alpha_bar(t)
            pts = find_fixed_points(FOUR_DELTAS, ab)
            assert len(pts) == sign_change_count(FOUR_DELTAS, ab, *scan_box(FOUR_DELTAS, ab))

    def test_steep_low_noise_repellers_are_kept(self):
        # A few steps from the clean end the repeller between two deltas sits
        # in a posterior switch layer where |g'| reaches 1e5..1e8, so only a
        # float-resolution end of its bracket meets the residual tolerance.
        skewed = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
        for t in (3, 7, 8):
            ab = SCHEDULE.alpha_bar(t)
            pts = find_fixed_points(skewed, ab)
            assert [p.stable for p in pts] == [True, False, True]
            assert abs(drift_residual_derivative_reference(skewed, ab, pts[1].x)) > 1e4

    def test_bad_search_box_rejected(self):
        with pytest.raises(ParameterError):
            find_fixed_points(TWO_DELTAS, 0.5, search_box=(1.0, 1.0))

    def test_rootless_box_warns_and_returns_empty(self):
        with pytest.warns(RuntimeWarning, match="no drift fixed points"):
            assert find_fixed_points(TWO_DELTAS, 0.5, search_box=(5.0, 6.0)) == ()

    def test_fixed_point_constructor_enforces_convergence(self):
        with pytest.raises(ParameterError):
            FixedPoint(x=0.0, alpha_bar=0.5, residual=1e-8, stable=True)


class TestTraceBifurcations:
    def test_single_component_single_branch_no_events(self):
        m = MixtureModel(weights=[1.0], means=[2.0], variances=[0.5])
        sched = linear_schedule(200, 5e-4, 0.1)
        diagram = trace_bifurcations(m, sched, stride=20)
        assert diagram.critical == ()
        assert all(len(pts) == 1 for pts in diagram.points)

    def test_uneven_weights_keep_the_heavy_branch_alive_longer(self):
        skew = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
        diagram = trace_bifurcations(skew, SCHEDULE, stride=25)
        assert diagram.critical
        merge = diagram.critical[-1]
        assert merge.count_before == 3
        assert merge.count_after == 1
        # Right after the lighter branch dies, the survivor still sits on the
        # heavier (positive) side.
        after = next(pts for t, pts in zip(diagram.steps, diagram.points) if t > merge.t_after)
        assert len(after) == 1
        assert after[0].x > 0.1

    def test_symmetric_four_deltas_merge_in_two_stages(self):
        sym = MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0])
        diagram = trace_bifurcations(sym, SCHEDULE, stride=25)
        # Ignore events in the first few steps, where off-lattice repellers
        # fall below float64 residual resolution; the merge structure proper
        # lives far from the clean end.
        events = [e for e in diagram.critical if e.t_before >= 25]
        counts = [(e.count_before, e.count_after) for e in events]
        assert counts == [(7, 3), (3, 1)]
        assert events[0].s < events[1].s
        for event in events:
            ab = SCHEDULE.alpha_bar(event.t_before)
            assert event.count_before == sign_change_count(sym, ab, *scan_box(sym, ab))

    def test_events_refined_to_adjacent_steps(self):
        diagram = trace_bifurcations(TWO_DELTAS, SCHEDULE, stride=50)
        assert len(diagram.critical) == 1
        event = diagram.critical[0]
        assert event.t_after - event.t_before == 1
        assert event.s == pytest.approx((event.t_before + event.t_after) / 2000)

    def test_each_step_is_solved_once(self, monkeypatch):
        batches = []
        real = bifurcation._fixed_points_at_levels

        def counting(mixture, alpha_bars, *args, **kwargs):
            batches.append(list(alpha_bars))
            return real(mixture, alpha_bars, *args, **kwargs)

        def solved():
            return Counter(ab for batch in batches for ab in batch)

        monkeypatch.setattr(bifurcation, "_fixed_points_at_levels", counting)
        diagram = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=20)
        # The strided levels are one batch; then each round of the bisection
        # solves the midpoints of every count change as one batch, at most
        # ceil(log2(20)) = 5 rounds.
        assert len(diagram.critical) > 1
        assert batches[0] == list(diagram.alpha_bars)
        assert 1 <= len(batches) - 1 <= 5
        assert len(batches[1]) == len(diagram.critical)
        assert len(solved()) > len(diagram.steps)  # refinement solved extra steps
        assert set(solved().values()) == {1}
        batches.clear()
        assert sibling_split_time(FOUR_DELTAS, SCHEDULE, 0, 1) is not None
        probes = [SCHEDULE.alpha_bar(t) for t in range(1, 1001, 20)] + [SCHEDULE.alpha_bar(1000)]
        assert batches[0] == probes
        assert 1 <= len(batches) - 1 <= 5
        assert all(len(batch) == 1 for batch in batches[1:])
        assert set(solved().values()) == {1}

    @pytest.mark.parametrize("mix", [FOUR_DELTAS, PAIR_SKEWED, ROW_LOPSIDED])
    def test_batched_sweep_equals_one_level_at_a_time_bitwise(self, mix):
        diagram = trace_bifurcations(mix, SCHEDULE, stride=1)
        for t, points in zip(diagram.steps, diagram.points):
            assert points == find_fixed_points(mix, SCHEDULE.alpha_bar(int(t)))

    def test_batched_brackets_are_cells_of_each_levels_own_grid(self, monkeypatch):
        brackets = []
        real = bifurcation._bracketed_roots

        def recording(terms, alpha_bar, lo, hi, *args):
            brackets.extend(zip(alpha_bar.tolist(), lo.tolist(), hi.tolist()))
            return real(terms, alpha_bar, lo, hi, *args)

        monkeypatch.setattr(bifurcation, "_bracketed_roots", recording)
        diagram = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=7)
        assert {ab for ab, _, _ in brackets} >= set(diagram.alpha_bars.tolist())
        for ab, lo, hi in brackets:
            nodes = np.linspace(*scan_box(FOUR_DELTAS, ab), 256).tolist()
            assert nodes.index(hi) == nodes.index(lo) + 1

    def test_sweep_makes_far_fewer_kernel_passes_than_levels(self, monkeypatch):
        calls = []
        real = mixture._score_terms
        monkeypatch.setattr(mixture, "_score_terms", lambda *args: calls.append(args) or real(*args))
        unimodal = MixtureModel(weights=[0.5, 0.5], means=[-0.5, 0.5], variances=[1.0, 1.0])
        diagram = trace_bifurcations(unimodal, SCHEDULE, stride=10)
        assert diagram.critical == () and len(diagram.steps) == 101
        # Solving level by level takes two passes per Newton-bisection iteration.
        assert len(calls) <= len(diagram.steps) // 4

    def test_peak_memory_of_a_stride_one_sweep_is_bounded_by_the_chunk(self):
        trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=500)  # warm caches
        tracemalloc.start()
        try:
            trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 1.35 MB with chunks of 16k kernel terms, 2.0 MB with 32k
        # and 37 MB unchunked; the 1000 levels' fixed points take ~0.6 MB.
        assert peak < 1_700_000

    @pytest.mark.parametrize("stride, bad_step", [(1, 137), (10, 131)])
    def test_a_failing_level_of_a_batch_names_its_step(self, monkeypatch, stride, bad_step):
        bad = SCHEDULE.alpha_bar(bad_step)
        real = bifurcation._score_and_derivative

        def failing(mix, alpha_bar, x):
            s, ds = real(mix, alpha_bar, x)
            return np.where(np.asarray(alpha_bar) == bad, np.nan, s), ds

        monkeypatch.setattr(bifurcation, "_score_and_derivative", failing)
        with pytest.raises(FloatingPointError, match=f"^step t={bad_step}: "):
            trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=stride)

    def test_an_overflowing_search_box_raises_naming_its_level(self):
        with pytest.raises(FloatingPointError, match=r"^alpha_bar=0\.5: .* not finite"):
            find_fixed_points(TWO_DELTAS, 0.5, search_box=(-1.7e308, 1.7e308))

    def test_each_rootless_level_of_a_batch_warns(self):
        levels = np.array([0.3, 0.5, 0.7])
        with pytest.warns(RuntimeWarning) as record:
            found = bifurcation._fixed_points_at_levels(TWO_DELTAS, levels, search_box=(5.0, 6.0))
        assert found == [(), (), ()]
        assert [str(w.message) for w in record] == [
            f"no drift fixed points converged at alpha_bar={ab!r} in (5.0, 6.0)" for ab in (0.3, 0.5, 0.7)]


class TestSiblingSplitTime:
    def test_four_delta_pairs_split_at_distinct_times(self):
        s01 = sibling_split_time(FOUR_DELTAS, SCHEDULE, 0, 1)
        s23 = sibling_split_time(FOUR_DELTAS, SCHEDULE, 2, 3)
        assert s01 is not None and s23 is not None
        assert s01 > s23  # wider pair keeps separate branches deeper into the noise
        assert 0.05 < s23 < s01 < 0.5

    def test_split_is_where_the_stable_count_first_drops_below_two(self):
        # In the bracket of the pair (-2.75, 3) the stable count falls 3 -> 2
        # at t = 243 and 2 -> 1 at t = 255, both inside the probe interval
        # [241, 261]; the split is the second drop.
        mix = MixtureModel.deltas([-2.75, 0.0, 3.0])
        pad = 0.3 * 5.75

        def stable(t, points):
            root = np.sqrt(SCHEDULE.alpha_bar(int(t)))
            return sum(1 for p in points if p.stable and root * (-2.75 - pad) <= p.x <= root * (3.0 + pad))

        diagram = trace_bifurcations(mix, SCHEDULE, stride=1)
        counts = [stable(t, points) for t, points in zip(diagram.steps, diagram.points)]
        first = next(int(t) for t, c in zip(diagram.steps, counts) if c < 2)
        assert first == 255 and (counts[242 - 1], counts[243 - 1]) == (3, 2)
        assert sibling_split_time(mix, SCHEDULE, 0, 2) == (2 * first - 1) / 2000 == 0.2545
        # A dense scan counts the stable roots (upward sign changes of the
        # residual) in the bracket on either side of the drop.
        for t, expected in ((first - 1, 2), (first, 1)):
            ab = SCHEDULE.alpha_bar(t)
            x = np.sqrt(ab) * np.linspace(-2.75 - pad, 3.0 + pad, 100_000)
            g = np.sign(drift_residual_reference(mix, ab, x))
            assert np.sum((g[:-1] < 0) & (g[1:] > 0)) == expected

    def test_twin_components_never_split(self):
        twins = MixtureModel(weights=[0.5, 0.5], means=[1.0, 1.0], variances=[0.0, 0.0])
        sched = linear_schedule(100, 1e-3, 0.05)
        assert sibling_split_time(twins, sched, 0, 1) is None

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            sibling_split_time(FOUR_DELTAS, SCHEDULE, 1, 1)
