"""Command-line front end: experiment configs in, CSV (and optional SVG) out.

Configs are JSON documents describing the mixture, the noise schedule, the
decision partitions and the method to run, in one schema: a key outside it
is a config problem that names its path.  Outputs are deterministic given
(config, seed): CSV is the canonical format (17 significant digits, comment
header carrying the tool version and the hash of the config keys the job
reads), SVG is a convenience rendering only.  Exit codes: 0 success, 2 usage
or config problem (an allocation too large for the machine included), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from ._svg import line_chart, scatter_chart
from .bifurcation import trace_bifurcations
from .core import (
    MixtureModel,
    NoiseSchedule,
    ParameterError,
    Partition,
    PartitionError,
    linear_schedule,
    make_partition,
)
from .entropy import QuadratureDomainError, entropy_profile
from .mixture import DegenerateDensityError
from .tracker import (
    GmmScoreModel,
    ModelEvaluationError,
    ReplayScoreModel,
    estimate_conditional_entropy,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

METHODS = ("quadrature", "montecarlo", "fixedpoints")

# Smallest accepted value of each count key; ``num_steps`` is bounded by
# ``linear_schedule``, which the config boundary builds.
_MINIMUMS = {"stride": 1, "samples_z0": 1, "samples_z1": 1}

# The keys of ``ExperimentConfig.to_dict`` that each method's job reads, and
# so its config hash covers.
_HASHED_KEYS = {
    "quadrature": ("mixture", "schedule", "partitions", "stride"),
    "montecarlo": ("mixture", "schedule", "partitions", "seed", "samples_z0", "samples_z1",
                   "prior_z0", "score_model"),
    "fixedpoints": ("mixture", "schedule", "stride"),
}

# The one schema of a config: the keys each object may hold, with the type of
# each scalar key; any other key is an error.
_TOP_KEYS = {"method": str, "mixture": dict, "schedule": dict, "partitions": list, "seed": int,
             "samples": int, "samples_z0": int, "samples_z1": int, "stride": int,
             "prior_z0": float, "score_model": dict, "out": str}
_SECTION_KEYS = {
    "mixture": {"means": list, "weights": list, "variances": list},
    "schedule": {"num_steps": int, "beta_start": float, "beta_end": float},
    "score_model": {"kind": str, "path": str, "complement": str},
}
_SCORE_FIELDS = {"kind": "score_kind", "path": "replay_path", "complement": "complement"}
# A partition entry's keys besides ``name``, by preset (None: explicit sides).
_PRESET_KEYS = {
    None: ("z0", "z1"),
    "one-vs-one": ("preset", "classes"),
    "one-vs-rest": ("preset", "target"),
    "group-vs-group": ("preset", "z0", "z1"),
}

NUMERICAL_ERRORS = (
    QuadratureDomainError,
    ModelEvaluationError,
    DegenerateDensityError,
    FloatingPointError,
)


class ConfigError(ValueError):
    """The experiment configuration cannot be used as given."""


@dataclass(frozen=True)
class PartitionSpec:
    z0: tuple[int, ...]
    z1: tuple[int, ...]
    name: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized experiment description; round-trips through a JSON dict."""

    method: str
    means: tuple[float, ...]
    weights: tuple[float, ...] | None = None
    variances: tuple[float, ...] | None = None
    num_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    partitions: tuple[PartitionSpec, ...] = ()
    seed: int = 0
    samples_z0: int = 1000
    samples_z1: int = 1000
    stride: int = 1
    prior_z0: float | None = None
    score_kind: str = "oracle"
    replay_path: str | None = None
    complement: str = "exact"
    out: str = "."

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.score_kind not in ("oracle", "replay"):
            raise ConfigError(f"score model kind must be 'oracle' or 'replay', got {self.score_kind!r}")
        if self.complement not in ("exact", "null"):
            raise ConfigError(f"complement must be 'exact' or 'null', got {self.complement!r}")
        if self.score_kind == "replay" and not self.replay_path:
            raise ConfigError("replay score model needs a 'path'")
        if self.score_kind == "oracle" and self.replay_path is not None:
            raise ConfigError("an oracle score model reads no 'path'")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for key, low in _MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)!r}")

    # -- domain object construction -------------------------------------

    @cached_property
    def _objects(self) -> tuple:
        """The mixture, the schedule and the named partitions, built once per config."""
        means = np.asarray(self.means, dtype=np.float64)
        weights = self.weights if self.weights is not None else np.full(means.size, 1.0 / means.size)
        variances = self.variances if self.variances is not None else np.zeros(means.size)
        mixture = MixtureModel(weights=weights, means=means, variances=variances)
        return (mixture, linear_schedule(self.num_steps, self.beta_start, self.beta_end),
                tuple((spec.name, make_partition(mixture, spec.z0, spec.z1)) for spec in self.partitions))

    def mixture(self) -> MixtureModel:
        return self._objects[0]

    def schedule(self) -> NoiseSchedule:
        return self._objects[1]

    def built_partitions(self) -> list[tuple[str, Partition]]:
        return list(self._objects[2])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical nested form; ``from_dict`` of the result reproduces self."""
        mixture: dict = {"means": list(self.means)}
        if self.weights is not None:
            mixture["weights"] = list(self.weights)
        if self.variances is not None:
            mixture["variances"] = list(self.variances)
        return {
            "method": self.method,
            "mixture": mixture,
            "schedule": {"num_steps": self.num_steps, "beta_start": self.beta_start,
                         "beta_end": self.beta_end},
            "partitions": [{"z0": list(p.z0), "z1": list(p.z1), "name": p.name}
                           for p in self.partitions],
            "seed": self.seed,
            "samples_z0": self.samples_z0,
            "samples_z1": self.samples_z1,
            "stride": self.stride,
            "prior_z0": self.prior_z0,
            "score_model": {"kind": self.score_kind, "path": self.replay_path,
                            "complement": self.complement},
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _config_from_dict(raw)

    def config_hash(self) -> str:
        """SHA-256 of the canonical form of the keys that ``self.method``'s job reads."""
        full = self.to_dict()
        canon = json.dumps({key: full[key] for key in ("method",) + _HASHED_KEYS[self.method]},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _scalar(value, key: str, kind: type):
    """``value`` as ``kind``: a string key takes a JSON string, a number key a
    JSON number, an integer key a JSON integer."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    # bool is an int subclass, and a float must not be truncated to an integer.
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    # JSON's NaN and +-Infinity parse as floats, and an integer may exceed the float range.
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return kind(value)


def _object(value, where: str, keys) -> dict:
    """``value``, an object at path ``where`` ("" for the root) holding only ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"config {where or 'root'} must be an object, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        path = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"unknown config key {path!r}: {where or 'the root'} takes {list(keys)}")
    return value


def _numbers(mix: dict, key: str) -> tuple[float, ...] | None:
    if key not in mix:
        return None
    values = mix[key]
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"mixture.{key} must be a non-empty list of numbers, got {values!r}")
    return tuple(_scalar(v, f"mixture.{key}", float) for v in values)


def _index_list(entry: dict, key: str, where: str) -> tuple[int, ...]:
    values = entry.get(key)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} needs {key!r} as a list of component indices, got {values!r}")
    return tuple(_scalar(v, f"{where}.{key}: component index", int) for v in values)


def _partition_spec(entry: dict, k: int, index: int) -> PartitionSpec:
    where = f"partitions[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object, got {entry!r}")
    preset = entry.get("preset")
    if not (preset is None or isinstance(preset, str)) or preset not in _PRESET_KEYS:
        raise ConfigError(f"{where}: unknown partition preset {preset!r}")
    _object(entry, where, _PRESET_KEYS[preset] + ("name",))
    if preset is None:
        if "z0" not in entry or "z1" not in entry:
            raise ConfigError(f"{where} needs 'z0' and 'z1' (or a 'preset')")
        z0, z1 = _index_list(entry, "z0", where), _index_list(entry, "z1", where)
        default = f"z0-{'-'.join(map(str, z0))}_vs_z1-{'-'.join(map(str, z1))}"
    elif preset == "one-vs-one":
        classes = _index_list(entry, "classes", where)
        if len(classes) != 2:
            raise ConfigError(f"{where}.classes needs two component indices, got {list(classes)}")
        z0, z1 = classes[:1], classes[1:]
        default = f"c{z0[0]}-vs-c{z1[0]}"
    elif preset == "one-vs-rest":
        target = _scalar(entry.get("target"), f"{where}.target: component index", int)
        z0 = (target,)
        z1 = tuple(i for i in range(k) if i != target)
        default = f"c{target}-vs-rest"
    else:
        z0, z1 = _index_list(entry, "z0", where), _index_list(entry, "z1", where)
        default = f"group-{'-'.join(map(str, z0))}_vs_{'-'.join(map(str, z1))}"
    name = _scalar(entry["name"], f"{where}.name", str) if "name" in entry else default
    # The name becomes part of a file name and of a CSV comment line.
    if name in ("", ".", "..") or any(c in "/\\" or not c.isprintable() for c in name):
        raise ConfigError(f"{where}.name must be a non-empty file name without "
                          f"path separators or control characters, got {name!r}")
    return PartitionSpec(z0=z0, z1=z1, name=name)


def _config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    raw = _object(raw, "", _TOP_KEYS)
    mix, sched, score = (_object(raw.get(name, {}), name, _SECTION_KEYS[name])
                         for name in ("mixture", "schedule", "score_model"))
    if "means" not in mix:
        raise ConfigError("config needs mixture.means")
    kwargs: dict = {key: _numbers(mix, key) for key in _SECTION_KEYS["mixture"]}
    for key, value in sched.items():
        kwargs[key] = _scalar(value, f"schedule.{key}", _SECTION_KEYS["schedule"][key])
    for key, value in score.items():
        # A null path is the default, as ``to_dict`` writes it.
        if value is not None or key != "path":
            kwargs[_SCORE_FIELDS[key]] = _scalar(value, f"score_model.{key}", str)
    for key, value in raw.items():
        kind = _TOP_KEYS[key]
        # A null prior_z0 is the partition's own, as ``to_dict`` writes it.
        if kind not in (dict, list) and (value is not None or key != "prior_z0"):
            kwargs[key] = _scalar(value, key, kind)
    if "samples" in kwargs:
        if "samples_z0" in raw or "samples_z1" in raw:
            raise ConfigError("config gives 'samples' with 'samples_z0'/'samples_z1': "
                              "'samples' sets both, so give one or the others")
        kwargs["samples_z0"] = kwargs["samples_z1"] = kwargs.pop("samples")

    if "partitions" in raw:
        entries = raw["partitions"]
        if not isinstance(entries, (list, tuple)):
            raise ConfigError(f"config 'partitions' must be a list of objects, got {entries!r}")
        specs = [_partition_spec(e, len(kwargs["means"]), i) for i, e in enumerate(entries)]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"partition names must be unique, got {names}")
        kwargs["partitions"] = tuple(specs)

    kwargs.update(overrides or {})
    try:
        cfg = ExperimentConfig(method=kwargs.pop("method", "quadrature"), **kwargs)
        cfg._objects  # noqa: B018 - building the objects validates them; the job reuses them
    except (ParameterError, PartitionError, ValueError) as err:
        raise ConfigError(str(err)) from err
    if cfg.method == "quadrature" and not cfg.partitions:
        raise ConfigError("profile needs at least one partition")
    if cfg.method == "montecarlo":
        if len(cfg.partitions) != 1:
            raise ConfigError("estimate needs exactly one partition")
        # The estimator tracks both sides from the prior, so each needs mass.
        [(name, partition)] = cfg.built_partitions()
        prior = cfg.prior_z0 if cfg.prior_z0 is not None else partition.prior_z0
        if not 0.0 < prior < 1.0:
            raise ConfigError(f"partition {name!r}: prior_z0 must lie strictly inside (0, 1), "
                              f"got {prior!r}")
    return cfg


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """The config at ``path``, with the fields in ``overrides`` replaced before it is built."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return _config_from_dict(raw, overrides)


# -- output ---------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CELL_FORMATS = {int: "%d", float: "%.17g", str: "%s"}


def _csv_text(comments: list[str], header: list[str], columns) -> str:
    """The CSV of ``columns`` (arrays or lists), each cell formatted by its
    column's Python type: integers in full, floats to 17 digits, strings as is."""
    values = [np.asarray(column).tolist() for column in columns]
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    if values[0]:
        row = ",".join(_CELL_FORMATS[type(column[0])] for column in values)
        lines.extend(row % cells for cells in zip(*values))
    return "\n".join(lines) + "\n"


def _common_comments(config: ExperimentConfig) -> list[str]:
    return [f"diffentropy {__version__}", f"config sha256 {config.config_hash()}"]


def _profile_job(config: ExperimentConfig, out_dir: str, svg: bool) -> list[str]:
    """Quadrature entropy profiles, one CSV per configured partition."""
    mixture = config.mixture()
    schedule = config.schedule()
    written = []
    rate_series = []
    for name, partition in config.built_partitions():
        profile = entropy_profile(mixture, partition, schedule, stride=config.stride)
        columns = [profile.steps, profile.s, profile.H_bits,
                   profile.rate_bits, profile.transfer_bits]
        text = _csv_text(_common_comments(config) + [f"partition {name}"],
                         ["t", "s", "H_bits", "dH_ds", "transfer_bits"], columns)
        path = os.path.join(out_dir, f"profile_{name}.csv")
        _atomic_write(path, text)
        written.append(path)
        rate_series.append((name, profile.s, profile.rate_bits))
    if svg:
        path = os.path.join(out_dir, "profile_rate.svg")
        _atomic_write(path, line_chart(rate_series, title="entropy rate",
                                       xlabel="normalized time s", ylabel="dH/ds (bits)"))
        written.append(path)
    return written


def _score_model(config: ExperimentConfig, mixture, schedule, partition):
    if config.score_kind == "replay":
        return ReplayScoreModel.from_csv(config.replay_path)
    return GmmScoreModel(mixture=mixture, schedule=schedule, partition=partition)


def _estimate_job(config: ExperimentConfig, out_dir: str, svg: bool) -> list[str]:
    """Monte-Carlo entropy estimate CSV for the configured decision."""
    mixture = config.mixture()
    schedule = config.schedule()
    name, partition = config.built_partitions()[0]
    prior = config.prior_z0 if config.prior_z0 is not None else partition.prior_z0
    model = _score_model(config, mixture, schedule, partition)
    estimate = estimate_conditional_entropy(
        model, schedule, prior_z0=prior,
        n_z0=config.samples_z0, n_z1=config.samples_z1, seed=config.seed,
        complement=config.complement,
    )
    rows = len(estimate.steps)
    columns = [estimate.steps, estimate.s, estimate.H_bits, estimate.h_z0, estimate.h_z1,
               [estimate.n_z0] * rows, [estimate.n_z1] * rows, [estimate.seed] * rows]
    text = _csv_text(_common_comments(config) + [f"partition {name}", f"prior_z0 {prior!r}"],
                     ["t", "s", "H_bits", "H_z0_mean", "H_z1_mean", "N_z0", "N_z1", "seed"],
                     columns)
    path = os.path.join(out_dir, "estimate.csv")
    _atomic_write(path, text)
    written = [path]
    if svg:
        chart = line_chart([("H_mc", estimate.s, estimate.H_bits)],
                           title="tracked conditional entropy",
                           xlabel="normalized time s", ylabel="H (bits)")
        spath = os.path.join(out_dir, "estimate.svg")
        _atomic_write(spath, chart)
        written.append(spath)
    return written


def _fixed_points_job(config: ExperimentConfig, out_dir: str, svg: bool) -> list[str]:
    """Bifurcation diagram CSV (and optional SVG scatter of the branches)."""
    mixture = config.mixture()
    schedule = config.schedule()
    diagram = trace_bifurcations(mixture, schedule, stride=config.stride)
    comments = _common_comments(config)
    for event in diagram.critical:
        comments.append(
            f"critical s={event.s!r} steps {event.t_before}->{event.t_after} "
            f"count {event.count_before}->{event.count_after}"
        )
    counts = [len(points) for points in diagram.points]
    found = [p for points in diagram.points for p in points]
    s, x = np.repeat(diagram.s, counts), np.array([p.x for p in found], dtype=float)
    stability = np.array(["stable" if p.stable else "unstable" for p in found], dtype=str)
    text = _csv_text(comments, ["s", "alpha_bar", "x_star", "stability"],
                     [s, np.repeat(diagram.alpha_bars, counts), x, stability])
    path = os.path.join(out_dir, "fixed_points.csv")
    _atomic_write(path, text)
    written = [path]
    if svg:
        groups = [(kind, s[stability == kind], x[stability == kind])
                  for kind in ("stable", "unstable") if np.any(stability == kind)]
        chart = scatter_chart(groups, title="drift fixed points",
                              xlabel="normalized time s", ylabel="x*")
        spath = os.path.join(out_dir, "fixed_points.svg")
        _atomic_write(spath, chart)
        written.append(spath)
    return written


# -- argument parsing -------------------------------------------------------


# The override flags, and per subcommand: its help, the flags it takes (those
# its job reads), the config method it needs and its job.  ``validate-config``
# runs no job, so it takes any method, and neither ``--out`` nor ``--svg``.
_OVERRIDE_HELP = {"seed": "override the config seed",
                  "samples": "override both per-branch sample counts",
                  "stride": "override the evaluation stride"}
_COMMANDS = {
    "profile": ("quadrature entropy/rate/transfer profiles", ("stride",), "quadrature", _profile_job),
    "estimate": ("Monte-Carlo entropy estimate via posterior tracking", ("seed", "samples"),
                 "montecarlo", _estimate_job),
    "fixed-points": ("reverse-drift fixed points across noise levels", ("stride",), "fixedpoints",
                     _fixed_points_job),
    "validate-config": ("parse and validate a config, print its hash", ("seed", "samples", "stride"),
                        None, None),
}


def _add_common(parser: argparse.ArgumentParser, overrides, writes: bool) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    if writes:
        parser.add_argument("--out", default=None, help="output directory (default: config 'out')")
        parser.add_argument("--svg", action="store_true", help="also write SVG figures")
    parser.set_defaults(**dict.fromkeys(_OVERRIDE_HELP))
    for name in overrides:
        parser.add_argument(f"--{name}", type=int, help=_OVERRIDE_HELP[name])


def _overrides(args: argparse.Namespace) -> dict:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.samples is not None:
        updates["samples_z0"] = updates["samples_z1"] = args.samples
    if args.stride is not None:
        updates["stride"] = args.stride
    return updates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffentropy",
        description="Conditional-entropy and bifurcation analysis of 1-D diffusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, overrides, _, job) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text), overrides, writes=job is not None)

    args = parser.parse_args(argv)
    _, _, method, job = _COMMANDS[args.command]
    try:
        config = load_config(args.config, _overrides(args))
        if job is None:
            roundtrip = ExperimentConfig.from_dict(config.to_dict())
            if roundtrip != config:
                raise ConfigError("config does not round-trip through its dict form")
            print(f"ok: method={config.method} hash={config.config_hash()}")
            return 0
        if config.method != method:
            raise ConfigError(f"{args.command} needs method={method!r}, config says {config.method!r}")
        written = job(config, args.out if args.out is not None else config.out, args.svg)
    # A MemoryError is an array size that the config asks for, beyond what
    # the machine can allocate.
    except (ConfigError, ParameterError, PartitionError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
