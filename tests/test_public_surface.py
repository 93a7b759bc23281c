"""Every exported name of the package and its modules must resolve, once."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import diffentropy

MODULES = ["diffentropy"] + [f"diffentropy.{info.name}"
                             for info in pkgutil.iter_modules(diffentropy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


# The package's names, sorted: an addition or a removal shows up here.
PACKAGE_NAMES = [
    "BifurcationDiagram", "CountChange", "DegenerateDensityError", "EntropyProfile", "GmmScoreModel",
    "McEntropyEstimate", "MixtureModel", "ModelEvaluationError", "NoiseSchedule", "ParameterError",
    "Partition", "PartitionError", "QuadratureDomainError", "ReplayScoreModel", "__version__",
    "conditional_entropy_at", "entropy_profile", "estimate_conditional_entropy", "find_fixed_points",
    "linear_schedule", "make_partition", "score", "sibling_split_time", "trace_bifurcations",
    "write_replay_csv",
]


def test_the_package_exports_exactly_these_names():
    assert PACKAGE_NAMES == sorted(PACKAGE_NAMES)
    assert sorted(diffentropy.__all__) == PACKAGE_NAMES
    assert len(PACKAGE_NAMES) <= 30  # the design limit on the package's surface


def test_the_package_and_its_metadata_name_one_version():
    # Every CSV's "# diffentropy" line carries __version__, which tells which
    # sampler drew an estimate; the distribution must say the same.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == diffentropy.__version__
