"""End-to-end verification gates for the whole package.

One test per criterion; each prints a single PASS/FAIL line with the measured
numbers (run ``pytest -s tests/test_acceptance.py -v`` to see them all).
Tolerances are fixed here, not tuned at runtime.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from diffentropy.bifurcation import find_fixed_points, sibling_split_time, trace_bifurcations
from diffentropy.cli import main as cli_main
from diffentropy.core import MixtureModel, linear_schedule, make_partition
from diffentropy.entropy import conditional_entropy_at, entropy_profile
from diffentropy.tracker import GmmScoreModel, estimate_conditional_entropy

from _oracles import (binary_entropy_reference, drift_residual_reference, jsd_bits_reference,
                      root_certified, scan_box, sign_change_count)

SCHEDULE = linear_schedule(1000)   # T=1000, betas 1e-4 -> 0.02
FOUR_DELTAS = MixtureModel.deltas([-8.0, -4.0, 6.0, 8.0])
TWO_DELTAS = MixtureModel.deltas([-1.0, 1.0])

# The six reference setups swept by the bifurcation and monotonicity gates.
SETUPS = {
    "two-even": MixtureModel.deltas([-1.0, 1.0]),
    "two-skewed": MixtureModel(weights=[1 / 3, 2 / 3], means=[-1.0, 1.0], variances=[0.0, 0.0]),
    "three-even": MixtureModel.deltas([-2.0, 0.0, 2.0]),
    "three-skewed": MixtureModel(weights=[0.25, 0.25, 0.5], means=[-2.0, 0.0, 2.0],
                                 variances=[0.0, 0.0, 0.0]),
    "three-lopsided": MixtureModel.deltas([-2.0, 1.0, 2.0]),
    "four-symmetric": MixtureModel.deltas([-8.0, -4.0, 4.0, 8.0]),
}
SYMMETRIC_SETUPS = ("two-even", "three-even", "four-symmetric")


def _gate(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _decision_partitions(mixture):
    """All adjacent one-vs-one decisions plus first-vs-rest (when K > 2)."""
    k = mixture.num_components
    parts = [make_partition(mixture, [i], [i + 1]) for i in range(k - 1)]
    if k > 2:
        parts.append(make_partition(mixture, [0], list(range(1, k))))
    return parts


@pytest.fixture(scope="module")
def pair_quadrature():
    part = make_partition(FOUR_DELTAS, [3], [2])
    levels = np.array([SCHEDULE.alpha_bar(t) for t in range(1, 1001)])
    h = np.array([conditional_entropy_at(FOUR_DELTAS, part, ab) for ab in levels])
    return part, h


def test_criterion_1_jsd_identity():
    # Even priors: H is one bit less the JSD of the two side densities,
    # which the plain-numpy oracle integrates on its own grid.
    cases = [(TWO_DELTAS, [make_partition(TWO_DELTAS, [0], [1])])]
    four_delta_parts = [make_partition(FOUR_DELTAS, [3], [2]),
                 make_partition(FOUR_DELTAS, [0], [1]),
                 make_partition(FOUR_DELTAS, [0, 1], [2, 3])]
    cases.append((FOUR_DELTAS, four_delta_parts))
    levels = np.linspace(SCHEDULE.alpha_bars[-1], SCHEDULE.alpha_bars[0], 100)

    start = time.perf_counter()
    worst = 0.0
    for mixture, parts in cases:
        for part in parts:
            for ab in levels:
                gap = abs(conditional_entropy_at(mixture, part, ab)
                          + jsd_bits_reference(mixture, part.z0, part.z1, ab) - 1.0)
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _gate(1, "jsd-identity", worst < 1e-6 and elapsed < 5.0,
          f"max |H + JSD - 1| = {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_boundary_values():
    ab_final = SCHEDULE.alpha_bars[-1]
    even = make_partition(TWO_DELTAS, [0], [1])
    gap_even = abs(conditional_entropy_at(TWO_DELTAS, even, ab_final) - 1.0)

    skew = MixtureModel(weights=[0.1, 0.9], means=[-1.0, 1.0], variances=[0.0, 0.0])
    skew_part = make_partition(skew, [0], [1])
    gap_skew = abs(conditional_entropy_at(skew, skew_part, ab_final)
                   - binary_entropy_reference(skew_part.prior_z0))

    resolved = conditional_entropy_at(TWO_DELTAS, even, 1.0 - 1e-6)
    ok = gap_even < 1e-3 and gap_skew < 1e-3 and resolved < 1e-3
    _gate(2, "boundary-values", ok,
          f"|H_T - 1| = {gap_even:.2e}, |H_T - 0.469| = {gap_skew:.2e}, "
          f"H(near-clean) = {resolved:.2e} (tol 1e-3 each)")


def test_criterion_3_data_processing_monotonicity():
    worst = 0.0
    worst_case = ""
    for name, mixture in SETUPS.items():
        for part in _decision_partitions(mixture):
            profile = entropy_profile(mixture, part, SCHEDULE, stride=5)
            drop = float(np.min(np.diff(profile.H_bits)))
            if drop < worst:
                worst, worst_case = drop, f"{name} z0={part.z0}"
    _gate(3, "monotonicity", worst >= -1e-9,
          f"largest H decrease in forward time = {worst:.2e} "
          f"(bound -1e-9){' at ' + worst_case if worst_case else ''}")


def test_criterion_4_oracle_equivalence(pair_quadrature):
    part, h_quad = pair_quadrature
    model = GmmScoreModel(FOUR_DELTAS, SCHEDULE, part)

    start = time.perf_counter()
    errors = {}
    for n in (100, 1000, 10000):
        est = estimate_conditional_entropy(model, SCHEDULE, prior_z0=part.prior_z0,
                                           n_z0=n, n_z1=n, seed=42)
        errors[n] = float(np.max(np.abs(est.H_bits[1:] - h_quad)))
    elapsed = time.perf_counter() - start

    ok = (errors[1000] < 0.05
          and errors[100] > errors[1000] > errors[10000]
          and elapsed < 120.0)
    _gate(4, "oracle-equivalence", ok,
          f"max|H_mc - H_quad| = {errors[1000]:.4f} bits at N=1000 (tol 0.05); "
          f"errors N=100/1000/10000 = {errors[100]:.4f}/{errors[1000]:.4f}/{errors[10000]:.4f} "
          f"(strictly decreasing); runtime {elapsed:.1f}s (< 120s)")


def test_criterion_5_peak_bifurcation_alignment():
    # Alignment tolerance: 0.05 normalized time (a fixed design choice). It
    # gates the coarse decision {0,1} vs {2,3}: its rate peak must lie within
    # 0.05 of its branch merge, the last count change (3 -> 1) of the diagram.
    # Within-pair gaps are reported, not gated: a pair's merge sits at a fixed
    # noise level, while dH/ds also carries the schedule's d(alpha_bar)/ds, so
    # the gap moves with the schedule alone (left/right pair 0.134/0.069 on
    # linear_schedule(1000), 0.193/0.095 with betas 5e-4 -> 0.01, 0.189/0.095
    # at T=500). What holds is that each pair's branches merge before its rate
    # peaks, and that the three decisions sort the same way by peak as by merge.
    decisions = {"left-pair": ([0], [1]), "right-pair": ([2], [3]), "coarse": ([0, 1], [2, 3])}
    peaks = {}
    for label, (z0, z1) in decisions.items():
        profile = entropy_profile(FOUR_DELTAS, make_partition(FOUR_DELTAS, z0, z1),
                                  SCHEDULE, stride=2)
        peaks[label] = float(profile.s[np.argmax(profile.rate_bits)])
    merges = {"left-pair": sibling_split_time(FOUR_DELTAS, SCHEDULE, 0, 1),
              "right-pair": sibling_split_time(FOUR_DELTAS, SCHEDULE, 2, 3)}
    changes = trace_bifurcations(FOUR_DELTAS, SCHEDULE, stride=20).critical
    coarse_change = changes[-1] if changes else None
    merges["coarse"] = coarse_change.s if coarse_change else None

    def gap(label):
        return None if merges[label] is None else abs(peaks[label] - merges[label])

    coarse_aligned = (coarse_change is not None
                      and (coarse_change.count_before, coarse_change.count_after) == (3, 1)
                      and gap("coarse") < 0.05)
    merge_first = all(merges[label] is not None and merges[label] < peaks[label]
                      for label in ("left-pair", "right-pair"))
    by_peak = sorted(decisions, key=peaks.get)
    by_merge = sorted(decisions, key=merges.get) if None not in merges.values() else None
    same_order = (by_peak == by_merge
                  and len(set(peaks.values())) == len(set(merges.values())) == len(decisions))

    def fmt(x):
        return "none" if x is None else f"{x:.4f}"

    detail = "; ".join(
        f"{label}: rate peak s={fmt(peaks[label])}, branch merge s={fmt(merges[label])}, "
        f"gap {fmt(gap(label))}"
        for label in decisions
    )
    change = (f"{coarse_change.count_before} -> {coarse_change.count_after}"
              if coarse_change else "none")
    _gate(5, "peak-bifurcation-alignment", coarse_aligned and merge_first and same_order,
          f"{detail}. (a) coarse gap < 0.05 at a 3 -> 1 change ({change}): "
          f"{coarse_aligned}; (b) pair merges precede peaks: {merge_first}; "
          f"(c) order by peak {by_peak} == by merge {by_merge}: {same_order}")


def test_criterion_6_fixed_point_correctness():
    # From t=25 on, every root's residual is below 1e-10.  Closer to the clean
    # end a razor-thin repeller's residual can jump past that between adjacent
    # floats, so there each root must carry the reference's own certificate.
    worst_residual = 0.0
    uncertified = []
    count_mismatches = []
    worst_asymmetry = 0.0
    for name, mixture in SETUPS.items():
        for t in [*range(1, 25), *range(25, 1001, 25)]:
            ab = SCHEDULE.alpha_bar(t)
            xs, _ = find_fixed_points(mixture, ab)
            if t >= 25:
                residuals = drift_residual_reference(mixture, ab, xs)
                worst_residual = max(worst_residual, float(np.max(np.abs(residuals))))
            else:
                uncertified += [(name, t, x) for x in xs.tolist() if not root_certified(mixture, ab, x)]
            expected = sign_change_count(mixture, ab, *scan_box(mixture, ab))
            if len(xs) != expected:
                count_mismatches.append((name, t, len(xs), expected))
            if name in SYMMETRIC_SETUPS:
                worst_asymmetry = max(worst_asymmetry, float(np.max(np.abs(xs + xs[::-1]))))
    ok = worst_residual < 1e-10 and not uncertified and not count_mismatches and worst_asymmetry < 1e-9
    _gate(6, "fixed-point-correctness", ok,
          f"max reference residual from t=25 {worst_residual:.2e} (tol 1e-10), "
          f"uncertified roots before t=25: {uncertified or 'none'}, "
          f"count mismatches vs dense scan: {count_mismatches or 'none'}, "
          f"max symmetry defect {worst_asymmetry:.2e} (tol 1e-9)")


def test_criterion_7_null_model_approximation():
    gaps = {}
    for k in (2, 4, 8):
        means = 2.0 * np.arange(k) - (k - 1.0)
        mixture = MixtureModel.deltas(means)
        part = make_partition(mixture, [0], list(range(1, k)))
        runs = {}
        model = GmmScoreModel(mixture, SCHEDULE, part)
        for complement in ("exact", "null"):
            runs[complement] = estimate_conditional_entropy(
                model, SCHEDULE, prior_z0=1.0 / k, n_z0=1000, n_z1=1000, seed=42,
                complement=complement,
            ).H_bits
        gaps[k] = float(np.max(np.abs(runs["null"] - runs["exact"])))
    ok = gaps[2] > gaps[4] > gaps[8]
    _gate(7, "null-model-quality", ok,
          "max|H_null - H_exact| for K=2/4/8 = "
          f"{gaps[2]:.4f}/{gaps[4]:.4f}/{gaps[8]:.4f} bits (strictly decreasing)")


def test_criterion_8_determinism(tmp_path):
    config = {
        "mixture": {"means": [-8.0, -4.0, 6.0, 8.0]},
        "schedule": {"num_steps": 200, "beta_start": 5e-4, "beta_end": 0.1},
        "partitions": [{"preset": "one-vs-one", "classes": [3, 2], "name": "pair"}],
        "method": "quadrature",
        "seed": 42,
        "samples": 50,
        "stride": 10,
    }
    cfg_q = tmp_path / "quad.json"
    cfg_q.write_text(json.dumps(config))
    cfg_m = tmp_path / "mc.json"
    cfg_m.write_text(json.dumps({**config, "method": "montecarlo"}))

    outputs = {}
    for label, args in (
        ("profile", ["profile", "--config", str(cfg_q)]),
        ("estimate", ["estimate", "--config", str(cfg_m)]),
    ):
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{label}-{run}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(args + ["--out", str(out)])
            assert code == 0
            payloads.append(b"".join(sorted(p.read_bytes() for p in out.iterdir())))
        outputs[label] = payloads[0] == payloads[1]
    ok = all(outputs.values())
    _gate(8, "determinism", ok,
          f"byte-identical reruns: {outputs}")
