import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffentropy import bifurcation, mixture
from diffentropy.bifurcation import find_fixed_points, sibling_split_time, trace_bifurcations
from diffentropy.core import MixtureModel, ParameterError, _strided_steps, linear_schedule

from _oracles import (drift_residual_derivative_reference, drift_residual_reference, root_certified,
                      scan_box, sign_change_count)
from test_acceptance import SETUPS

TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
PAIR_SKEWED = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
ROW_LOPSIDED = MixtureModel.deltas([-2.0, 1.0, 2.0])
COMB_SYMMETRIC = MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0])
TEN_DELTAS = MixtureModel.deltas(np.linspace(-9.0, 9.0, 10))
SCHEDULE = linear_schedule(1000)


def _injected(residual, slope):
    """A stand-in for ``_score_and_slope`` whose drift residual is ``residual(x)``."""
    def score_and_slope(params, x):
        x = np.asarray(x, dtype=np.float64)
        return bifurcation.DRIFT_COEFF * x - residual(x), bifurcation.DRIFT_COEFF - slope(x)
    return score_and_slope


def _full_scans_only():
    """A context in which no level is proven monotone, so each one scans its full grid."""
    return mock.patch.object(bifurcation, "_proven_monotone", lambda table, cols: np.zeros(len(cols), dtype=bool))


def _levels(diagram):
    """Each swept level's ``(x, stable)``: its slices of the diagram's flat arrays."""
    cuts = np.cumsum(diagram.counts)[:-1]
    return list(zip(np.split(diagram.x, cuts), np.split(diagram.stable, cuts)))


def _bits(x, stable):
    """The exact bits of one level's fixed points: ``-0.0`` and ``+0.0`` differ."""
    return x.tobytes(), stable.tolist()


@st.composite
def _mixture_and_levels(draw):
    """One to six components, point masses and Gaussians, uneven weights, and four levels."""
    k = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    means = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    variances = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 4.0)), min_size=k, max_size=k))
    levels = draw(st.lists(st.floats(1e-4, 0.9999), min_size=4, max_size=4))
    return MixtureModel(weights=weights / weights.sum(), means=means, variances=variances), levels


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

    def test_drift_coefficient_is_the_vp_drift(self):
        # The library's residual is DRIFT_COEFF * x less its score; the
        # oracle's is 0.5 * x less a plain-numpy score.
        assert bifurcation.DRIFT_COEFF == 0.5
        x = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(
            drift_residual_reference(TWO_DELTAS, 0.5, x),
            bifurcation.DRIFT_COEFF * x - mixture.score(TWO_DELTAS, 0.5, x), rtol=1e-12, atol=1e-14)


class TestFindFixedPoints:
    def test_high_noise_single_stable_origin(self):
        x, stable = find_fixed_points(TWO_DELTAS, 1e-4)
        assert x.dtype == np.float64 and stable.dtype == bool and x.shape == stable.shape == (1,)
        assert stable[0]
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_low_noise_pitchfork_arms(self):
        ab = 0.999
        x, stable = find_fixed_points(TWO_DELTAS, ab)
        assert len(x) == sign_change_count(TWO_DELTAS, ab, *scan_box(TWO_DELTAS, ab))
        assert len(x) == 3
        assert stable.tolist() == [True, False, True]
        # Arms sit just inside the noise-scaled deltas.
        assert x[0] == pytest.approx(-np.sqrt(ab), abs=0.01)
        assert x[2] == pytest.approx(np.sqrt(ab), abs=0.01)
        assert x[1] == pytest.approx(0.0, abs=1e-12)

    def test_every_root_is_converged_and_consistently_classified(self):
        h = 1e-5
        for ab in (0.05, 0.3, 0.6, 0.9, 0.999):
            roots, flags = find_fixed_points(FOUR_DELTAS, ab)
            for x, stable in zip(roots.tolist(), flags.tolist()):
                assert root_certified(FOUR_DELTAS, ab, x)
                fd = (drift_residual_reference(FOUR_DELTAS, ab, x + h)
                      - drift_residual_reference(FOUR_DELTAS, ab, x - h)) / (2 * h)
                assert stable == (fd > 0)

    def test_counts_match_dense_scan_across_sweep(self):
        for t in range(1, SCHEDULE.num_steps + 1, 97):
            ab = SCHEDULE.alpha_bar(t)
            x, _ = find_fixed_points(FOUR_DELTAS, ab)
            assert len(x) == sign_change_count(FOUR_DELTAS, ab, *scan_box(FOUR_DELTAS, ab))

    def test_stable_and_unstable_alternate(self):
        for ab in (0.2, 0.6, 0.9, 0.95):
            kinds = find_fixed_points(FOUR_DELTAS, ab)[1].tolist()
            assert kinds[0] and kinds[-1]
            assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))

    def test_symmetric_mixture_yields_symmetric_roots(self):
        sym = MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0])
        for ab in (0.1, 0.5, 0.9, 0.999):
            xs, _ = find_fixed_points(sym, ab)
            np.testing.assert_allclose(xs, -xs[::-1], atol=1e-9)

    def test_four_branches_resolve_at_low_noise(self):
        _, stable = find_fixed_points(FOUR_DELTAS, 0.9999)
        assert np.count_nonzero(stable) == 4

    def test_root_on_a_grid_node_is_reported_once(self, monkeypatch):
        # The residual (x - a)(x - b), with a on a grid node and b inside a
        # cell: at a it is exactly zero, a root with no sign-change cell.
        for ab in (1e-4, 0.5, 0.999):
            nodes = np.linspace(*scan_box(TWO_DELTAS, ab), bifurcation.GRID_NODES)
            a, b = nodes[100], 0.5 * (nodes[150] + nodes[151])
            monkeypatch.setattr(bifurcation, "_score_and_slope", _injected(
                lambda x: (x - a) * (x - b), lambda x: 2.0 * x - a - b))
            x, stable = find_fixed_points(TWO_DELTAS, ab)
            assert stable.tolist() == [False, True]
            assert x[0] == a
            assert x[1] == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("mix, t, near, calls", [
        (MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0]), 517, 0.0, 24),
        (ROW_LOPSIDED, 1, 1.5, 10),
    ], ids=["comb-symmetric-centre", "row-lopsided-repeller"])
    def test_hard_brackets_close_in_few_kernel_calls(self, monkeypatch, mix, t, near, calls):
        # The comb's central root sits where g is rounding noise over many
        # floats, and the repeller (g' = -2.5e7) is approached by Newton from
        # one side.  Bisecting them down to adjacent floats took 73 and 38
        # kernel calls (grid and classifying passes included); 22 and 8 now.
        real = bifurcation._drift_terms
        made = []
        monkeypatch.setattr(bifurcation, "_drift_terms", lambda *args: made.append(1) or real(*args))
        ab = SCHEDULE.alpha_bar(t)
        x, _ = find_fixed_points(mix, ab)
        assert len(made) <= calls
        root = float(x[np.argmin(np.abs(x - near))])
        assert abs(root - near) < 1e-3
        assert root_certified(mix, ab, root)

    def test_counts_match_dense_scan_at_refined_events(self):
        # The adjacent steps around each count change of FOUR_DELTAS, where
        # roots are born or die and the brackets are hardest to resolve.
        events = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=20).critical
        steps = sorted({t for e in events for t in (e.t_before, e.t_after)})
        assert steps == [130, 131, 222, 223, 565, 566]
        for t in steps:
            ab = SCHEDULE.alpha_bar(t)
            x, _ = find_fixed_points(FOUR_DELTAS, ab)
            assert len(x) == sign_change_count(FOUR_DELTAS, ab, *scan_box(FOUR_DELTAS, ab))

    def test_steep_low_noise_repellers_are_kept(self):
        # A few steps from the clean end the repeller between two deltas sits
        # in a posterior switch layer where |g'| reaches 1e5..1e8, so the
        # residual can jump past 1e-10 between adjacent floats; the sign
        # change across the collapsed bracket still certifies the root.
        for t in (3, 7, 8):
            ab = SCHEDULE.alpha_bar(t)
            x, stable = find_fixed_points(PAIR_SKEWED, ab)
            assert stable.tolist() == [True, False, True]
            assert abs(drift_residual_derivative_reference(PAIR_SKEWED, ab, x[1])) > 1e4
            assert all(root_certified(PAIR_SKEWED, ab, r) for r in x.tolist())


class TestTraceBifurcations:
    def test_single_component_single_branch_no_events(self):
        m = MixtureModel(weights=[1.0], means=[2.0], variances=[0.5])
        sched = linear_schedule(200, 5e-4, 0.1)
        diagram = trace_bifurcations(m, sched, stride=20)
        assert diagram.critical == ()
        assert diagram.counts.tolist() == [1] * len(diagram.steps)

    def test_uneven_weights_keep_the_heavy_branch_alive_longer(self):
        skew = MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0])
        diagram = trace_bifurcations(skew, SCHEDULE, stride=25)
        assert diagram.critical
        merge = diagram.critical[-1]
        assert merge.count_before == 3
        assert merge.count_after == 1
        # Right after the lighter branch dies, the survivor still sits on the
        # heavier (positive) side.
        after, _ = next(roots for t, roots in zip(diagram.steps, _levels(diagram)) if t > merge.t_after)
        assert len(after) == 1
        assert after[0] > 0.1

    def test_symmetric_four_deltas_merge_in_two_stages(self):
        sym = MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0])
        events = trace_bifurcations(sym, SCHEDULE, stride=25).critical
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

    @staticmethod
    def _record_solves(monkeypatch):
        """Record the levels (alpha-bars) of each solve and the provisional counts of each trace."""
        batches, provisional = [], []
        solve, counts = bifurcation._solve_levels, bifurcation._provisional_counts

        def recording_solve(table, cols, scan):
            batches.append(table[3][cols].tolist())
            return solve(table, cols, scan)

        def recording_counts(scan, size):
            provisional.append(counts(scan, size))
            return provisional[-1]

        monkeypatch.setattr(bifurcation, "_solve_levels", recording_solve)
        monkeypatch.setattr(bifurcation, "_provisional_counts", recording_counts)
        return batches, provisional

    @staticmethod
    def _inner(steps, counts):
        """The steps inside each interval of ``steps`` over which ``counts`` changes."""
        return [t for a, b, ca, cb in zip(steps, steps[1:], counts, counts[1:]) if ca != cb
                for t in range(a + 1, b)]

    @staticmethod
    def _bisect(steps, counts, count_at):
        """Bisect each interval of ``steps`` over which ``counts`` changes while ``count_at(t)``
        is not ``None``: the narrowed intervals and the midpoints read."""
        narrowed, read = [], []
        for a, b, ca, cb in zip(steps, steps[1:], counts, counts[1:]):
            while ca != cb and b - a > 1 and (c := count_at((a + b) // 2)) is not None:
                t = (a + b) // 2
                read.append(t)
                a, ca, b, cb = (t, c, b, cb) if c == ca else (a, ca, t, c)
            narrowed += [(a, b)] if ca != cb else []
        return narrowed, read

    def test_each_step_is_solved_once(self, monkeypatch):
        batches, provisional = self._record_solves(monkeypatch)
        diagram = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=20)
        solves = batches[:]  # find_fixed_points below solves too
        # One solve: the strided steps, then the midpoints that bisecting every
        # strided interval whose provisional count changes reads, replayed
        # over the provisional counts of its scanned inner steps.  Here every
        # provisional count is exact, so no second batch follows.
        steps = diagram.steps.tolist()
        counts = diagram.counts.tolist()
        assert provisional[0][diagram.steps - 1].tolist() == counts
        inner = self._inner(steps, counts)
        assert len(diagram.critical) > 1 and len(inner) == 19 * len(diagram.critical)
        assert (provisional[1][np.array(inner) - 1].tolist()
                == [len(find_fixed_points(FOUR_DELTAS, SCHEDULE.alpha_bar(t))[0]) for t in inner])
        _, read = self._bisect(steps, counts, lambda t: provisional[1][t - 1])
        assert set(read) < set(inner) and len(read) <= 5 * len(diagram.critical)
        assert solves == [diagram.alpha_bars.tolist() + [SCHEDULE.alpha_bar(t) for t in sorted(read)]]
        batches.clear()
        # The sibling split keeps two batches: the coarse probes, then the
        # steps of the one probe interval that holds the split.
        split = sibling_split_time(FOUR_DELTAS, SCHEDULE, 0, 1)
        probes = list(range(1, 1001, 20)) + [1000]
        a = max(t for t in probes if t < split * SCHEDULE.num_steps)
        assert batches == [[SCHEDULE.alpha_bar(t) for t in probes],
                           [SCHEDULE.alpha_bar(t) for t in range(a + 1, a + 20)]]

    @pytest.mark.parametrize("mix", [FOUR_DELTAS, COMB_SYMMETRIC], ids=["four-deltas", "comb-symmetric"])
    @pytest.mark.parametrize("wrong", ["zeros", "shifted"])
    def test_a_wrong_provisional_count_never_moves_an_event(self, monkeypatch, mix, wrong):
        expected = trace_bifurcations(mix, SCHEDULE, stride=20)
        real = bifurcation._provisional_counts
        monkeypatch.setattr(bifurcation, "_provisional_counts", {
            "zeros": lambda scan, size: np.zeros(size, dtype=np.int64),
            "shifted": lambda scan, size: np.roll(real(scan, size), 20),  # one strided level late
        }[wrong])
        batches, provisional = self._record_solves(monkeypatch)
        diagram = trace_bifurcations(mix, SCHEDULE, stride=20)
        solves = batches[:]  # find_fixed_points below solves too
        assert ([_bits(*roots) for roots in _levels(diagram)]
                == [_bits(*roots) for roots in _levels(expected)])
        assert diagram.critical == expected.critical
        assert diagram.alpha_bars.tolist() == expected.alpha_bars.tolist()
        # The first solve reads the midpoints of the wrong counts' bisection.
        # Bisecting the exact counts over the steps solved so far stops at a
        # step it lacks; one more batch solves exactly the steps left inside
        # those intervals.
        steps = diagram.steps.tolist()
        wrong_counts = sum(provisional)  # the strided scan's, plus the inner scan's if it ran
        _, read = self._bisect(steps, provisional[0][diagram.steps - 1].tolist(),
                               lambda t: wrong_counts[t - 1])
        solved = set(steps + read)
        narrowed, _ = self._bisect(steps, diagram.counts.tolist(), lambda t: len(
            find_fixed_points(mix, SCHEDULE.alpha_bar(t))[0]) if t in solved else None)
        missing = sorted({t for a, b in narrowed for t in range(a + 1, b)} - solved)
        assert missing
        assert solves == [[SCHEDULE.alpha_bar(t) for t in steps + sorted(read)],
                           [SCHEDULE.alpha_bar(t) for t in missing]]

    def test_one_newton_loop_per_trace(self, monkeypatch):
        loops = []
        real = bifurcation._bracketed_roots
        monkeypatch.setattr(bifurcation, "_bracketed_roots", lambda *args: loops.append(1) or real(*args))
        # The three mixtures of the benchmark's fixed-point atlas; six loops
        # when each count refinement ran its own.
        for mix in (PAIR_SKEWED, ROW_LOPSIDED, COMB_SYMMETRIC):
            assert trace_bifurcations(mix, SCHEDULE, stride=10).critical
        assert len(loops) == 3

    # From eight components on, numpy would sum a lone bracket's components
    # in another order than a batch's.
    @pytest.mark.parametrize("mix", [FOUR_DELTAS, PAIR_SKEWED, ROW_LOPSIDED,
                                     MixtureModel.deltas(np.linspace(-9.0, 9.0, 8)), TEN_DELTAS])
    def test_batched_sweep_equals_one_level_at_a_time_bitwise(self, mix):
        diagram = trace_bifurcations(mix, SCHEDULE, stride=1)
        assert len(diagram.counts) == SCHEDULE.num_steps
        for t, roots in zip(diagram.steps.tolist(), _levels(diagram)):
            assert _bits(*roots) == _bits(*find_fixed_points(mix, SCHEDULE.alpha_bar(t)))

    def test_no_kernel_call_of_a_sweep_exceeds_the_chunk(self, monkeypatch):
        sizes, loops = [], []
        real_roots, real_terms = bifurcation._bracketed_roots, bifurcation._drift_terms
        monkeypatch.setattr(bifurcation, "_bracketed_roots",
                            lambda *args: loops.append(1) or real_roots(*args))
        monkeypatch.setattr(bifurcation, "_drift_terms", lambda params, level, x: sizes.append(
            len(params[0]) * x.size) or real_terms(params, level, x))
        trace_bifurcations(TEN_DELTAS, SCHEDULE, stride=1)
        assert len(loops) > 1  # the sweep's brackets fill more than one chunk
        assert max(sizes) <= mixture.CHUNK_TERMS

    def test_batched_brackets_are_cells_of_each_levels_own_grid(self, monkeypatch):
        brackets = []
        real = bifurcation._bracketed_roots
        # A bracket's level, from its diffused variance: 1 - alpha_bar for point masses.
        level_of = {1.0 - ab: ab for ab in SCHEDULE.alpha_bars.tolist()}

        def recording(params, level, lo, hi, *args):
            levels = [level_of[v] for v in params[1][0, level].tolist()]
            brackets.extend(zip(levels, lo.tolist(), hi.tolist()))
            return real(params, level, lo, hi, *args)

        monkeypatch.setattr(bifurcation, "_bracketed_roots", recording)
        diagram = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=7)
        assert {ab for ab, _, _ in brackets} >= set(diagram.alpha_bars.tolist())
        for ab, lo, hi in brackets:
            nodes = np.linspace(*scan_box(FOUR_DELTAS, ab), 256).tolist()
            assert nodes.index(hi) == nodes.index(lo) + 1

    def test_gathered_levels_give_the_general_kernel_bitwise(self):
        # Ten components: numpy sums a column-major (components, points)
        # array over the components in another order than a row-major one.
        ten = MixtureModel(weights=np.arange(1.0, 11.0) / 55.0, means=np.linspace(-9.0, 9.0, 10),
                           variances=np.linspace(0.0, 0.9, 10))
        levels = SCHEDULE.alpha_bars[::37]
        [params] = mixture._kernel_tables(ten, levels, range(10))
        index = np.repeat(np.arange(levels.size)[::-1], 5)
        x = np.linspace(-3.0, 3.0, index.size)
        g, slope = bifurcation._drift_terms(params, index, x)
        # Each point at its level alone.
        s = np.array([mixture.score(ten, levels[i], p) for i, p in zip(index, x)])
        ds = np.array([mixture.score_derivative(ten, levels[i], p) for i, p in zip(index, x)])
        np.testing.assert_array_equal(g.view(np.int64), (0.5 * x - s).view(np.int64))
        np.testing.assert_array_equal(slope.view(np.int64), (0.5 - ds).view(np.int64))

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
        # A point mass diffuses to the variance 1 - alpha_bar, exactly.
        bad_var = 1.0 - SCHEDULE.alpha_bar(bad_step)
        real = bifurcation._score_and_slope

        def failing(params, x):
            s, ds = real(params, x)
            return np.where(params[1][0] == bad_var, np.nan, s), ds

        monkeypatch.setattr(bifurcation, "_score_and_slope", failing)
        with pytest.raises(FloatingPointError, match=f"^step t={bad_step}: "):
            trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=stride)

    def test_an_overflowing_search_box_raises_naming_its_level(self):
        # The box spans the deltas' 2.4e308, so its node spacing overflows.
        huge = MixtureModel.deltas([-1.7e308, 1.7e308])
        message = r"^alpha_bar=0\.5: .* not finite on the search box"
        with pytest.raises(FloatingPointError, match=message):
            find_fixed_points(huge, 0.5)

    @pytest.mark.parametrize("name", SETUPS)
    def test_every_level_of_a_sweep_has_a_root(self, name):
        # Below every diffused mean the residual is negative and above them
        # positive, so each level's box holds a sign change.
        diagram = trace_bifurcations(SETUPS[name], SCHEDULE, stride=1)
        assert len(diagram.counts) == SCHEDULE.num_steps
        assert diagram.counts.min() >= 1
        assert diagram.x.size == diagram.stable.size == diagram.counts.sum()

    # The razor-thin repellers near the clean end stay in the count at every
    # step, so the only events are the merges of branches.
    @pytest.mark.parametrize("means, weights, expected", [
        ([-8.0, -4.0, 6.0, 8.0], None, [(130, 7, 5), (222, 5, 3), (565, 3, 1)]),
        ([-1.0, 1.0], None, [(240, 3, 1)]),
        ([-1.0, 1.0], [1 / 3, 2 / 3], [(196, 3, 1)]),
        ([-2.0, 0.0, 2.0], None, [(201, 5, 1)]),
        ([-2.0, 0.0, 2.0], [0.25, 0.25, 0.5], [(201, 5, 3), (223, 3, 1)]),
        ([-2.0, 1.0, 2.0], None, [(110, 5, 3), (274, 3, 1)]),
        ([-8.0, -4.0, 4.0, 8.0], None, [(222, 7, 3), (535, 3, 1)]),
    ], ids=["four-deltas", "pair-even", "pair-skewed", "row-even", "row-heavy-right",
            "row-lopsided", "comb-symmetric"])
    def test_stride_one_sweep_reports_only_the_merges(self, means, weights, expected):
        k = len(means)
        mix = MixtureModel(weights=weights or [1 / k] * k, means=means, variances=[0.0] * k)
        events = trace_bifurcations(mix, SCHEDULE, stride=1).critical
        assert [(e.t_before, e.count_before, e.count_after) for e in events] == expected
        assert all(e.t_after == e.t_before + 1 for e in events)


class TestProvenLevels:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_mixture_and_levels())
    def test_a_proven_level_has_one_root_in_its_full_scans_cell(self, case):
        mix, levels = case
        table = bifurcation._level_table(mix, np.array(levels))
        cols = np.arange(len(levels))
        scan = bifurcation._scan_levels(table, cols)
        with _full_scans_only():
            full = bifurcation._scan_levels(table, cols)
        # Every level's brackets and zero nodes are bitwise the full scan's.
        for col in cols:
            for part, full_part in zip(scan, full):
                for a, b in zip(part[1:], full_part[1:]):
                    np.testing.assert_array_equal(a[part[0] == col].view(np.int64),
                                                  b[full_part[0] == col].view(np.int64))
        # A dense scan that shares no code with the library finds one root.
        for col in cols[bifurcation._proven_monotone(table, cols)]:
            assert sign_change_count(mix, levels[col], *scan_box(mix, levels[col])) == 1
            assert bifurcation._provisional_counts(scan, len(levels))[col] == 1

    def test_grid_nodes_are_linspaces_bitwise(self):
        table = bifurcation._schedule_table(COMB_SYMMETRIC, SCHEDULE)
        cols = np.arange(0, 1000, 3)
        nodes = bifurcation._grid_nodes(table, cols, np.arange(bifurcation.GRID_NODES))
        for col, row in zip(cols, nodes):
            expected = np.linspace(table[1][col], table[2][col], bifurcation.GRID_NODES)
            np.testing.assert_array_equal(row.view(np.int64), expected.view(np.int64))

    def test_most_atlas_levels_are_proven(self):
        # The 101 strided levels of the benchmark's atlas mixtures at stride 10.
        proven = [int(bifurcation._proven_monotone(bifurcation._schedule_table(mix, SCHEDULE),
                                                   _strided_steps(SCHEDULE, 10) - 1).sum())
                  for mix in (PAIR_SKEWED, ROW_LOPSIDED, COMB_SYMMETRIC)]
        assert proven == [77, 64, 40]

    @pytest.mark.parametrize("node", [34, 40], ids=["coarse-node", "fine-node"])
    def test_a_zero_on_a_node_of_a_proven_level(self, monkeypatch, node):
        # g(x) = x - r, with r on node 34 = 2 * 17 (a coarse node) or on node
        # 40, inside the coarse cell [34, 51].
        ab = 0.5
        assert bifurcation._proven_monotone(bifurcation._level_table(TWO_DELTAS, np.array([ab])), np.arange(1))
        root = np.linspace(*scan_box(TWO_DELTAS, ab), bifurcation.GRID_NODES)[node]
        monkeypatch.setattr(bifurcation, "_score_and_slope", _injected(lambda x: x - root, np.ones_like))
        sizes, real = [], bifurcation._drift_terms
        monkeypatch.setattr(bifurcation, "_drift_terms",
                            lambda params, level, x: sizes.append(x.size) or real(params, level, x))
        x, stable = find_fixed_points(TWO_DELTAS, ab)
        assert (x.tolist(), stable.tolist()) == ([root], [True])
        assert sizes == [16, 16, 1]  # the coarse nodes, the cell's inner nodes, the slope at the zero
        with _full_scans_only():
            assert _bits(*find_fixed_points(TWO_DELTAS, ab)) == _bits(x, stable)

    @pytest.mark.parametrize("mix", [PAIR_SKEWED, ROW_LOPSIDED, COMB_SYMMETRIC, TEN_DELTAS],
                             ids=["pair-skewed", "row-lopsided", "comb-symmetric", "ten-deltas"])
    def test_a_stride_one_sweep_is_bitwise_its_full_scans(self, mix):
        assert bifurcation._proven_monotone(bifurcation._schedule_table(mix, SCHEDULE), np.arange(1000)).any()
        diagram = trace_bifurcations(mix, SCHEDULE, stride=1)
        with _full_scans_only():
            full = trace_bifurcations(mix, SCHEDULE, stride=1)
            one_level = [find_fixed_points(mix, ab) for ab in SCHEDULE.alpha_bars.tolist()]
        assert len(diagram.counts) == SCHEDULE.num_steps
        assert [_bits(*roots) for roots in _levels(diagram)] == [_bits(*roots) for roots in one_level]
        assert diagram.critical == full.critical

    def test_an_overflowing_search_box_is_never_proven(self):
        # The node spacing overflows, so the nodes are not finite: the full
        # scan must see the level, and it raises.
        huge = MixtureModel.deltas([-1.7e308, 1.7e308])
        table = bifurcation._schedule_table(huge, SCHEDULE)
        assert not bifurcation._proven_monotone(table, np.arange(1000)).any()
        with pytest.raises(FloatingPointError, match=r"^step t=1: .* not finite on the search box"):
            trace_bifurcations(huge, SCHEDULE, stride=10)


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

        def stable(t, roots):
            x, is_stable = roots
            root = np.sqrt(SCHEDULE.alpha_bar(int(t)))
            return np.count_nonzero(is_stable & (root * (-2.75 - pad) <= x) & (x <= root * (3.0 + pad)))

        diagram = trace_bifurcations(mix, SCHEDULE, stride=1)
        counts = [stable(t, roots) for t, roots in zip(diagram.steps, _levels(diagram))]
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
