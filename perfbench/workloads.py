"""The benchmark's workloads: demo configs, seeded variants and CLI jobs.

Each workload is a list of jobs; a job is one ``diffentropy`` CLI call whose
CSV outputs are the job's operations.  Two workloads split the code in two:
``profile-estimate`` runs the quadrature profile and the Monte-Carlo estimate
(entropy, tracker, kernel on 10^4-point batches); ``fixedpoints-atlas3`` runs
the root finder (bifurcation, kernel on ~20-point batches).  Each is the
control for a change to the other's layers.  The default seed reproduces the demo
configs exactly (the profile stride and the estimate sample count are set by
CLI overrides, as a user would).  Any other seed sets the Monte-Carlo seed and
scales all component means of each config by one factor drawn within +-3%, so
a claim can be re-checked on unseen inputs of the same size.  One factor per
config keeps the layout (order, symmetry, spacing ratios), and with it the
root finder's bifurcation events; jittering each mean on its own varied the
atlas's kernel calls by ~10% (IQR/median over 12 seeds) against ~5% for a
common factor.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 42
MEAN_SCALE = 0.03

SCHEDULE = {"num_steps": 1000, "beta_start": 1e-4, "beta_end": 0.02}

# demos/01_decision_entropy_profiles.py
PROFILE_CONFIG = {
    "mixture": {"means": [-8.0, -4.0, 6.0, 8.0]},
    "schedule": SCHEDULE,
    "partitions": [
        {"preset": "one-vs-one", "classes": [0, 1], "name": "left-pair"},
        {"preset": "one-vs-one", "classes": [2, 3], "name": "right-pair"},
        {"preset": "group-vs-group", "z0": [0, 1], "z1": [2, 3], "name": "coarse"},
    ],
    "method": "quadrature",
    "stride": 2,
}

# demos/02_monte_carlo_vs_quadrature.py
ESTIMATE_CONFIG = {
    "mixture": {"means": [-8.0, -4.0, 6.0, 8.0]},
    "schedule": SCHEDULE,
    "partitions": [{"preset": "one-vs-one", "classes": [3, 2], "name": "pair"}],
    "method": "montecarlo",
    "seed": 42,
    "samples": 1000,
}

# demos/03_bifurcation_atlas.py: K=2 skewed, K=3 uneven, K=4 symmetric.
ATLAS_MIXTURES = {
    "pair-skewed": {"means": [-1.0, 1.0], "weights": [1 / 3, 2 / 3]},
    "row-lopsided": {"means": [-2.0, 1.0, 2.0]},
    "comb-symmetric": {"means": [-8.0, -4.0, 4.0, 8.0]},
}

ESTIMATE_SAMPLES = 10_000


@dataclass(frozen=True)
class Job:
    """One CLI call: its argument list, config and the CSVs it must write."""

    name: str
    argv: tuple[str, ...]
    config: dict
    config_path: str
    out_dir: str
    csv_names: tuple[str, ...]
    stride: int | None = None
    samples: int | None = None
    seed: int | None = None


def _scaled(config: dict, rng: np.random.Generator | None) -> dict:
    config = json.loads(json.dumps(config))
    if rng is not None:
        factor = 1.0 + rng.uniform(-MEAN_SCALE, MEAN_SCALE)
        config["mixture"]["means"] = [float(m * factor) for m in config["mixture"]["means"]]
    return config


def _write(path: str, config: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path


def build_jobs(workload: str, seed: int, work_dir: str) -> list[Job]:
    """Write the workload's configs under ``work_dir`` and return its jobs."""
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    inputs = os.path.join(work_dir, "inputs")
    outputs = os.path.join(work_dir, "out")
    if workload == "profile-estimate":
        config = _scaled(PROFILE_CONFIG, rng)
        path = _write(os.path.join(inputs, "profile.json"), config)
        names = tuple(f"profile_{p['name']}.csv" for p in config["partitions"])
        out = os.path.join(outputs, "profile")
        argv = ("profile", "--config", path, "--out", out, "--svg", "--stride", "1")
        profile = Job("profile", argv, config, path, out, names, stride=1)
        config = _scaled(ESTIMATE_CONFIG, rng)
        path = _write(os.path.join(inputs, "estimate.json"), config)
        out = os.path.join(outputs, "estimate")
        argv = ("estimate", "--config", path, "--out", out, "--svg",
                "--samples", str(ESTIMATE_SAMPLES), "--seed", str(seed))
        return [profile, Job("estimate", argv, config, path, out, ("estimate.csv",),
                             samples=ESTIMATE_SAMPLES, seed=seed)]
    if workload == "fixedpoints-atlas3":
        jobs = []
        for name, mixture in ATLAS_MIXTURES.items():
            config = _scaled({"mixture": mixture, "schedule": SCHEDULE,
                                "method": "fixedpoints", "stride": 10}, rng)
            path = _write(os.path.join(inputs, f"{name}.json"), config)
            out = os.path.join(outputs, name)
            argv = ("fixed-points", "--config", path, "--out", out, "--svg")
            jobs.append(Job(name, argv, config, path, out, ("fixed_points.csv",),
                            stride=config["stride"]))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("profile-estimate", "fixedpoints-atlas3")
