"""Where is decision information created during generation?

A four-delta mixture at (-8, -4, 6, 8) carries three natural binary
decisions: the coarse left-vs-right split, and the two fine within-group
decisions.  This demo computes the conditional entropy of each decision
along the noising schedule, locates the entropy-rate peak (the "decision
window"), and emits the CSV/SVG outputs through the command-line front end.
"""

import json
from pathlib import Path

import numpy as np

from diffentropy import MixtureModel, entropy_profile, linear_schedule, make_partition
from diffentropy.cli import main as cli

OUT = Path(__file__).resolve().parent / "output" / "01_profiles"

CONFIG = {
    "mixture": {"means": [-8.0, -4.0, 6.0, 8.0]},
    "schedule": {"num_steps": 1000, "beta_start": 1e-4, "beta_end": 0.02},
    "partitions": [
        {"preset": "one-vs-one", "classes": [0, 1], "name": "left-pair"},
        {"preset": "one-vs-one", "classes": [2, 3], "name": "right-pair"},
        {"preset": "group-vs-group", "z0": [0, 1], "z1": [2, 3], "name": "coarse"},
    ],
    "method": "quadrature",
    "stride": 2,
}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    config_path = OUT / "config.json"
    config_path.write_text(json.dumps(CONFIG, indent=2))

    code = cli(["profile", "--config", str(config_path), "--out", str(OUT), "--svg"])
    assert code == 0, "profile run failed"

    mixture = MixtureModel.deltas(CONFIG["mixture"]["means"])
    schedule = linear_schedule(1000)
    print("Decision windows on the four-delta mixture (s = normalized noising time):")
    for spec in CONFIG["partitions"]:
        if "classes" in spec:
            z0, z1 = [spec["classes"][0]], [spec["classes"][1]]
        else:
            z0, z1 = spec["z0"], spec["z1"]
        profile = entropy_profile(mixture, make_partition(mixture, z0, z1),
                                  schedule, stride=2)
        peak = profile.s[np.argmax(profile.rate_bits)]
        half = profile.s[np.argmin(np.abs(profile.H_bits - 0.5))]
        print(f"  {spec['name']:>10}: rate peak at s={peak:.3f}, "
              f"half-information point at s={half:.3f}")
    print(f"\nWrote per-decision CSVs and profile_rate.svg under {OUT}")
    print("The coarse split resolves deepest into the noise; the tighter the")
    print("pair, the later (in noising time) its decision window sits.")


if __name__ == "__main__":
    main()
