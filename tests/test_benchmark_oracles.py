"""The benchmark's fixed-point oracle passes the atlas diagrams the CLI writes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from diffentropy.cli import main

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"

# demos/03_bifurcation_atlas.py's K=2 skewed, K=3 uneven and K=4 symmetric
# mixtures, as the benchmark's fixed-point workload runs them.
ATLAS = {
    "pair-skewed": {"means": [-1.0, 1.0], "weights": [1 / 3, 2 / 3]},
    "row-lopsided": {"means": [-2.0, 1.0, 2.0]},
    "comb-symmetric": {"means": [-8.0, -4.0, 4.0, 8.0]},
}


@pytest.fixture(scope="module")
def oracles():
    # Loaded from its source without writing bytecode next to it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("_perfbench_oracles", ORACLES)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ATLAS)
def test_atlas_diagram_passes_the_fixed_point_oracle(oracles, tmp_path, name):
    config = {"mixture": ATLAS[name], "method": "fixedpoints", "stride": 10,
              "schedule": {"num_steps": 1000, "beta_start": 1e-4, "beta_end": 0.02}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["fixed-points", "--config", str(path), "--out", str(tmp_path)]) == 0
    problems, missed = oracles.check_fixed_points(config, (tmp_path / "fixed_points.csv").read_text())
    assert problems == []
    assert missed == 0
