"""Fixed-point structure of the reverse drift across noise, for six mixtures.

As noise shrinks, the single attractor of the reverse drift splits into one
branch per data cluster.  This demo traces the fixed points of
``0.5 x - score(x)`` along the schedule for six reference mixtures (even and
skewed pairs, three-component rows, a symmetric four-delta comb), reports
the critical times where the branch count changes, and renders one
branch-diagram SVG per mixture.
"""

import json
from pathlib import Path

import numpy as np

from diffentropy import MixtureModel, linear_schedule, trace_bifurcations
from diffentropy.cli import main as cli

OUT = Path(__file__).resolve().parent / "output" / "03_atlas"

SETUPS = {
    "pair-even": {"means": [-1.0, 1.0]},
    "pair-skewed": {"means": [-1.0, 1.0], "weights": [1 / 3, 2 / 3]},
    "row-even": {"means": [-2.0, 0.0, 2.0]},
    "row-heavy-right": {"means": [-2.0, 0.0, 2.0], "weights": [0.25, 0.25, 0.5]},
    "row-lopsided": {"means": [-2.0, 1.0, 2.0]},
    "comb-symmetric": {"means": [-8.0, -4.0, 4.0, 8.0]},
}


def main():
    schedule = linear_schedule(1000)
    for name, spec in SETUPS.items():
        out = OUT / name
        out.mkdir(parents=True, exist_ok=True)
        config = {
            "mixture": spec,
            "schedule": {"num_steps": 1000, "beta_start": 1e-4, "beta_end": 0.02},
            "method": "fixedpoints",
            "stride": 10,
        }
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        assert cli(["fixed-points", "--config", str(config_path),
                    "--out", str(out), "--svg"]) == 0

        mixture = MixtureModel(
            weights=spec.get("weights", [1 / len(spec["means"])] * len(spec["means"])),
            means=spec["means"],
            variances=[0.0] * len(spec["means"]),
        )
        diagram = trace_bifurcations(mixture, schedule, stride=10)
        merges = stable_branch_merges(diagram)
        events = ", ".join(f"s~{s:.2f} ({a}->{b})" for s, a, b in merges) or "none"
        print(f"{name:>16}: stable branches merge at {events}")
    print(f"\nDiagrams and CSVs under {OUT}/<name>/")
    print("Skewed weights delay the heavy branch's merge; wider separations")
    print("keep separate branches alive deeper into the noise.")


def stable_branch_merges(diagram):
    """Stable-branch count drops at the sweep's stride resolution."""
    counts = [int(stable.sum()) for stable in np.split(diagram.stable, np.cumsum(diagram.counts)[:-1])]
    return [(float(diagram.s[i]), counts[i - 1], counts[i])
            for i in range(1, len(counts)) if counts[i] < counts[i - 1]]


if __name__ == "__main__":
    main()
