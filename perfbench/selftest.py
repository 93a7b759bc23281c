"""Self-test: the oracles catch silent errors and pass the library's outputs.

Cases:
- the quadrature defect of ROADMAP item 3 (deltas at -1000, -999.9, 1000,
  deciding 0 vs 1 at t=10): the reference must give the 0.4218 bits of a
  grid local to the pair, and the profile oracle must flag the 1.2e-8 bits
  the library returned when it was measured;
- small real profile, estimate and fixed-points outputs from the CLI must
  pass, and the same outputs with a perturbed H, a flipped stability flag or
  a root moved by 1e-11 must fail.

The library's own current answer on the item-3 case is reported, flagged or
not, so the test stays valid once that defect is fixed.

Run alone with ``python3 perfbench/selftest.py``; exit code 0 when every
case behaves as expected.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

import oracles
from workloads import ATLAS_MIXTURES, ESTIMATE_CONFIG, PROFILE_CONFIG, SCHEDULE

ITEM3_MEANS = [-1000.0, -999.9, 1000.0]
ITEM3_STEP = 10
ITEM3_REFERENCE = 0.4218   # bits, from a grid local to the pair
ITEM3_DEFECT = 1.2e-8      # bits, what the library returned when measured


def _cli_text(argv: list[str], path: str) -> str:
    from diffentropy.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"diffentropy {' '.join(argv)} exited {code}")
    with open(path) as fh:
        return fh.read()


def _write_config(directory: str, name: str, config: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _replace_column(text: str, column: int, row: int, transform) -> str:
    """Apply ``transform`` to one data cell of a CSV, counting rows from 0."""
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[column] = transform(cells[column])
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines)


def item3_cases() -> list[tuple[str, bool, str]]:
    from diffentropy.core import MixtureModel, make_partition
    from diffentropy.entropy import conditional_entropy_at

    config = {"schedule": SCHEDULE}
    ab = oracles.alpha_bars(config)[ITEM3_STEP]
    k = len(ITEM3_MEANS)
    ref = oracles.reference_entropy_bits(np.asarray(ITEM3_MEANS), np.full(k, 1.0 / k),
                                         np.zeros(k), [0], [1], ab)
    cases = [("item3-reference", abs(ref - ITEM3_REFERENCE) < 5e-5,
              f"reference {ref:.6f} bits, expected {ITEM3_REFERENCE}")]
    problems, err = oracles.check_entropy_levels(np.asarray([ITEM3_DEFECT]), np.asarray([ref]))
    cases.append(("item3-defect-flagged", bool(problems), f"{ITEM3_DEFECT} bits: |err| {err:.4f}"))

    mixture = MixtureModel.deltas(ITEM3_MEANS)
    try:
        lib = conditional_entropy_at(mixture, make_partition(mixture, [0], [1]), ab)
    except Exception as err:  # a loud failure is not a silent error
        detail = f"library raises {type(err).__name__}"
    else:
        problems, err = oracles.check_entropy_levels(np.asarray([lib]), np.asarray([ref]))
        detail = f"library returns {lib:.3g} bits: {'flagged' if problems else 'passes'}"
    cases.append(("item3-library", True, detail))
    return cases


def output_cases(work_dir: str) -> list[tuple[str, bool, str]]:
    cases = []
    inputs, out = os.path.join(work_dir, "inputs"), os.path.join(work_dir, "out")

    # Profile: 21 levels per decision; perturb one H and keep transfer consistent.
    path = _write_config(inputs, "profile.json", PROFILE_CONFIG)
    decision = oracles.decisions(PROFILE_CONFIG)[0]
    text = _cli_text(["profile", "--config", path, "--out", out, "--stride", "50"],
                     os.path.join(out, f"profile_{decision[0]}.csv"))
    problems, err = oracles.check_profile(PROFILE_CONFIG, 50, decision, text)
    cases.append(("profile-clean-passes", not problems, f"|err| {err:.3g}; {problems[:1]}"))
    bad = _replace_column(text, 2, 10, lambda v: repr(float(v) + 1e-6))
    bad = _replace_column(bad, 4, 10, lambda v: repr(float(v) - 1e-6))
    problems, _ = oracles.check_profile(PROFILE_CONFIG, 50, decision, bad)
    cases.append(("profile-perturbed-H-flagged", bool(problems), "H += 1e-6 at one level"))

    # Estimate: 500 trajectories per side; shift H through both branch means.
    samples, seed = 500, ESTIMATE_CONFIG["seed"]
    path = _write_config(inputs, "estimate.json", ESTIMATE_CONFIG)
    text = _cli_text(["estimate", "--config", path, "--out", out, "--samples", str(samples)],
                     os.path.join(out, "estimate.csv"))
    problems, err = oracles.check_estimate(ESTIMATE_CONFIG, samples, seed, text)
    cases.append(("estimate-clean-passes", not problems, f"|err| {err:.3g}; {problems[:1]}"))
    shift = 2.0 * oracles.estimate_tolerance(samples)
    bad = _replace_column(text, 2, 500, lambda v: repr(float(v) + shift))
    bad = _replace_column(bad, 3, 500, lambda v: repr(float(v) - shift))
    bad = _replace_column(bad, 4, 500, lambda v: repr(float(v) - shift))
    problems, _ = oracles.check_estimate(ESTIMATE_CONFIG, samples, seed, bad)
    cases.append(("estimate-perturbed-H-flagged", bool(problems), f"H += {shift:.3g} at t=500"))

    # Fixed points: 11 levels of the skewed pair; flip the first stable root.
    config = {"mixture": ATLAS_MIXTURES["pair-skewed"], "schedule": SCHEDULE,
              "method": "fixedpoints", "stride": 100}
    path = _write_config(inputs, "fixed_points.json", config)
    text = _cli_text(["fixed-points", "--config", path, "--out", out],
                     os.path.join(out, "fixed_points.csv"))
    problems, _ = oracles.check_fixed_points(config, text)
    cases.append(("fixedpoints-clean-passes", not problems, f"{problems[:1]}"))
    bad = text.replace(",stable\n", ",unstable\n", 1)
    problems, _ = oracles.check_fixed_points(config, bad)
    cases.append(("fixedpoints-flipped-stable-flagged", bad != text and bool(problems),
                  "first stable root relabelled unstable"))
    bad = _replace_column(text, 2, 0, lambda v: repr(float(v) + 1e-11))
    problems, _ = oracles.check_fixed_points(config, bad)
    cases.append(("fixedpoints-shifted-root-flagged", bool(problems), "x_star += 1e-11 at t=1"))
    return cases


def run_selftest(work_dir: str) -> list[tuple[str, bool, str]]:
    """Every case as (name, behaved as expected, detail)."""
    return item3_cases() + output_cases(work_dir)


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    results = run_selftest(os.path.join(root, ".perfbench_out", "selftest"))
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)
