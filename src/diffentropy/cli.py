"""Command-line front end: experiment configs in, CSV (and optional SVG) out.

Configs are JSON documents describing the mixture, the noise schedule, the
decision partitions and the method to run.  Outputs are deterministic given
(config, seed): CSV is the canonical format (17 significant digits, comment
header carrying the tool version and the hash of the config keys the job
reads), SVG is a convenience rendering only.  Exit codes: 0 success, 2 usage
or config problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

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
from .entropy import MIN_GRID_POINTS, QuadratureDomainError, entropy_profile
from .mixture import DegenerateDensityError
from .tracker import (
    GmmScoreModel,
    ModelEvaluationError,
    ReplayScoreModel,
    estimate_conditional_entropy,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main",
           "run_profile", "run_estimate", "run_fixed_points"]

METHODS = ("quadrature", "montecarlo", "fixedpoints")

# Smallest accepted value of each count key; ``num_steps`` is bounded by
# ``linear_schedule``, which the config boundary builds.
_MINIMUMS = {"stride": 1, "samples_z0": 1, "samples_z1": 1, "grid_points": MIN_GRID_POINTS}

# The keys of ``ExperimentConfig.to_dict`` that each method's job reads, and
# so its config hash covers.
_HASHED_KEYS = {
    "quadrature": ("mixture", "schedule", "partitions", "stride", "grid_points"),
    "montecarlo": ("mixture", "schedule", "partitions", "seed", "samples_z0", "samples_z1",
                   "prior_z0", "score_model"),
    "fixedpoints": ("mixture", "schedule", "stride", "drift_coeff"),
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
    grid_points: int = MIN_GRID_POINTS
    stride: int = 1
    prior_z0: float | None = None
    score_kind: str = "oracle"
    replay_path: str | None = None
    complement: str = "exact"
    drift_coeff: float = 0.5
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
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for key, low in _MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)!r}")

    # -- domain object construction -------------------------------------

    def mixture(self) -> MixtureModel:
        means = np.asarray(self.means, dtype=np.float64)
        weights = self.weights
        if weights is None:
            weights = np.full(means.size, 1.0 / means.size)
        variances = self.variances
        if variances is None:
            variances = np.zeros(means.size)
        return MixtureModel(weights=weights, means=means, variances=variances)

    def schedule(self) -> NoiseSchedule:
        return linear_schedule(self.num_steps, self.beta_start, self.beta_end)

    def built_partitions(self) -> list[tuple[str, Partition]]:
        mixture = self.mixture()
        return [(spec.name, make_partition(mixture, spec.z0, spec.z1)) for spec in self.partitions]

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
            "grid_points": self.grid_points,
            "stride": self.stride,
            "prior_z0": self.prior_z0,
            "score_model": {"kind": self.score_kind, "path": self.replay_path,
                            "complement": self.complement},
            "drift_coeff": self.drift_coeff,
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
    """``value`` as ``kind``: a number key takes a JSON number, an integer key a JSON integer."""
    if kind is str:
        return str(value)
    # bool is an int subclass, and a float must not be truncated to an integer.
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    # JSON's NaN and +-Infinity parse as floats, and an integer may exceed the float range.
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return kind(value)


def _numbers(mix: dict, key: str) -> tuple[float, ...] | None:
    if key not in mix:
        return None
    values = mix[key]
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"mixture.{key} must be a non-empty list of numbers, got {values!r}")
    return tuple(_scalar(v, f"mixture.{key}", float) for v in values)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config {key!r} must be an object, got {value!r}")
    return value


def _index(value, key: str, index: int) -> int:
    return _scalar(value, f"partition #{index} {key!r}: component index", int)


def _index_list(entry: dict, key: str, index: int) -> tuple[int, ...]:
    values = entry.get(key)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"partition #{index} needs {key!r} as a list of component indices, "
                          f"got {values!r}")
    return tuple(_index(v, key, index) for v in values)


def _partition_spec(entry: dict, k: int, index: int) -> PartitionSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"partition #{index} must be an object, got {entry!r}")
    preset = entry.get("preset")
    if preset is None:
        if "z0" not in entry or "z1" not in entry:
            raise ConfigError(f"partition #{index} needs 'z0' and 'z1' (or a 'preset')")
        z0, z1 = _index_list(entry, "z0", index), _index_list(entry, "z1", index)
        default = f"z0-{'-'.join(map(str, z0))}_vs_z1-{'-'.join(map(str, z1))}"
    elif preset == "one-vs-one":
        classes = _index_list(entry, "classes", index)
        if len(classes) != 2:
            raise ConfigError(f"partition #{index} 'classes' needs two component indices, "
                              f"got {list(classes)}")
        z0, z1 = classes[:1], classes[1:]
        default = f"c{z0[0]}-vs-c{z1[0]}"
    elif preset == "one-vs-rest":
        target = _index(entry.get("target"), "target", index)
        z0 = (target,)
        z1 = tuple(i for i in range(k) if i != target)
        default = f"c{target}-vs-rest"
    elif preset == "group-vs-group":
        z0, z1 = _index_list(entry, "z0", index), _index_list(entry, "z1", index)
        default = f"group-{'-'.join(map(str, z0))}_vs_{'-'.join(map(str, z1))}"
    else:
        raise ConfigError(f"unknown partition preset {preset!r}")
    name = str(entry.get("name", default))
    # The name becomes part of a file name and of a CSV comment line.
    if name in ("", ".", "..") or any(c in "/\\" or not c.isprintable() for c in name):
        raise ConfigError(f"partition #{index} name must be a non-empty file name without "
                          f"path separators or control characters, got {name!r}")
    return PartitionSpec(z0=z0, z1=z1, name=name)


_SCALAR_KEYS = {
    "method": str, "num_steps": int, "beta_start": float, "beta_end": float,
    "seed": int, "samples_z0": int, "samples_z1": int, "grid_points": int,
    "stride": int, "drift_coeff": float, "out": str,
}


def _config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)} | {"mixture", "schedule", "partition", "score_model", "samples"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    mix = _section(raw, "mixture")
    if "means" not in mix:
        raise ConfigError("config needs mixture.means")
    means = _numbers(mix, "means")
    kwargs: dict = {"means": means, "weights": _numbers(mix, "weights"),
                    "variances": _numbers(mix, "variances")}
    sched = _section(raw, "schedule")
    if "betas" in sched:
        raise ConfigError("explicit beta arrays are supported via the library API, not the CLI config")
    for key in ("num_steps", "beta_start", "beta_end"):
        if key in sched:
            kwargs[key] = _scalar(sched[key], f"schedule.{key}", _SCALAR_KEYS[key])

    for key, kind in _SCALAR_KEYS.items():
        if key in raw:
            kwargs[key] = _scalar(raw[key], key, kind)
    if "samples" in raw:
        kwargs["samples_z0"] = kwargs["samples_z1"] = _scalar(raw["samples"], "samples", int)
    if raw.get("prior_z0") is not None:
        kwargs["prior_z0"] = _scalar(raw["prior_z0"], "prior_z0", float)

    score = _section(raw, "score_model")
    if score:
        kwargs["score_kind"] = str(score.get("kind", "oracle"))
        kwargs["replay_path"] = score.get("path")
        kwargs["complement"] = str(score.get("complement", "exact"))

    entries = raw.get("partitions", raw.get("partition"))
    if entries is not None:
        if isinstance(entries, dict):
            entries = [entries]
        if not isinstance(entries, (list, tuple)):
            raise ConfigError(f"config 'partitions' must be a list of objects, got {entries!r}")
        k = len(means)
        specs = [_partition_spec(e, k, i) for i, e in enumerate(entries)]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"partition names must be unique, got {names}")
        kwargs["partitions"] = tuple(specs)

    try:
        cfg = ExperimentConfig(method=str(raw.get("method", "quadrature")),
                               **{k: v for k, v in kwargs.items() if k != "method"})
        cfg.mixture()
        cfg.schedule()
        cfg.built_partitions()
    except (ParameterError, PartitionError, ValueError) as err:
        raise ConfigError(str(err)) from err
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return _config_from_dict(raw)


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


def _csv_text(comments: list[str], header: list[str], rows) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, str):
                cells.append(value)
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append("%.17g" % float(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _common_comments(config: ExperimentConfig) -> list[str]:
    return [f"diffentropy {__version__}", f"config sha256 {config.config_hash()}"]


def run_profile(config: ExperimentConfig, out_dir: str, svg: bool = False) -> list[str]:
    """Quadrature entropy profiles, one CSV per configured partition."""
    if config.method != "quadrature":
        raise ConfigError(f"profile needs method='quadrature', config says {config.method!r}")
    if not config.partitions:
        raise ConfigError("profile needs at least one partition")
    mixture = config.mixture()
    schedule = config.schedule()
    written = []
    rate_series = []
    for name, partition in config.built_partitions():
        profile = entropy_profile(mixture, partition, schedule,
                                  stride=config.stride, grid_points=config.grid_points)
        rows = zip(profile.times.steps, profile.times.s, profile.H_bits,
                   profile.rate_bits, profile.transfer_bits)
        text = _csv_text(_common_comments(config) + [f"partition {name}"],
                         ["t", "s", "H_bits", "dH_ds", "transfer_bits"], rows)
        path = os.path.join(out_dir, f"profile_{name}.csv")
        _atomic_write(path, text)
        written.append(path)
        rate_series.append((name, profile.times.s, profile.rate_bits))
    if svg:
        path = os.path.join(out_dir, "profile_rate.svg")
        _atomic_write(path, line_chart(rate_series, title="entropy rate",
                                       xlabel="normalized time s", ylabel="dH/ds (bits)"))
        written.append(path)
    return written


def _score_model(config: ExperimentConfig, mixture, schedule, partition):
    if config.score_kind == "replay":
        return ReplayScoreModel.from_csv(config.replay_path)
    return GmmScoreModel(mixture=mixture, schedule=schedule, partition=partition,
                         complement_mode=config.complement)


def run_estimate(config: ExperimentConfig, out_dir: str, svg: bool = False) -> list[str]:
    """Monte-Carlo entropy estimate CSV for the configured decision."""
    if config.method != "montecarlo":
        raise ConfigError(f"estimate needs method='montecarlo', config says {config.method!r}")
    if len(config.partitions) != 1:
        raise ConfigError("estimate needs exactly one partition")
    mixture = config.mixture()
    schedule = config.schedule()
    name, partition = config.built_partitions()[0]
    prior = config.prior_z0 if config.prior_z0 is not None else partition.prior_z0
    model = _score_model(config, mixture, schedule, partition)
    estimate = estimate_conditional_entropy(
        model, schedule, prior_z0=prior,
        n_z0=config.samples_z0, n_z1=config.samples_z1, seed=config.seed,
    )
    rows = ((t, s, h, h0, h1, estimate.n_z0, estimate.n_z1, estimate.seed)
            for t, s, h, h0, h1 in zip(estimate.steps, estimate.s, estimate.H_bits,
                                       estimate.h_z0, estimate.h_z1))
    text = _csv_text(_common_comments(config) + [f"partition {name}", f"prior_z0 {prior!r}"],
                     ["t", "s", "H_bits", "H_z0_mean", "H_z1_mean", "N_z0", "N_z1", "seed"],
                     rows)
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


def run_fixed_points(config: ExperimentConfig, out_dir: str, svg: bool = False) -> list[str]:
    """Bifurcation diagram CSV (and optional SVG scatter of the branches)."""
    if config.method != "fixedpoints":
        raise ConfigError(f"fixed-points needs method='fixedpoints', config says {config.method!r}")
    mixture = config.mixture()
    schedule = config.schedule()
    diagram = trace_bifurcations(mixture, schedule, stride=config.stride,
                                 drift_coeff=config.drift_coeff)
    comments = _common_comments(config) + [f"drift_coeff {config.drift_coeff!r}"]
    for event in diagram.critical:
        comments.append(
            f"critical s={event.s!r} steps {event.t_before}->{event.t_after} "
            f"count {event.count_before}->{event.count_after}"
        )
    rows = []
    for s, ab, points in zip(diagram.s, diagram.alpha_bars, diagram.points):
        for p in points:
            rows.append((s, ab, p.x, "stable" if p.stable else "unstable"))
    text = _csv_text(comments, ["s", "alpha_bar", "x_star", "stability"], rows)
    path = os.path.join(out_dir, "fixed_points.csv")
    _atomic_write(path, text)
    written = [path]
    if svg:
        stable = [(s, p.x) for s, pts in zip(diagram.s, diagram.points) for p in pts if p.stable]
        unstable = [(s, p.x) for s, pts in zip(diagram.s, diagram.points) for p in pts if not p.stable]
        groups = []
        if stable:
            sx, sy = zip(*stable)
            groups.append(("stable", sx, sy))
        if unstable:
            ux, uy = zip(*unstable)
            groups.append(("unstable", ux, uy))
        chart = scatter_chart(groups, title="drift fixed points",
                              xlabel="normalized time s", ylabel="x*")
        spath = os.path.join(out_dir, "fixed_points.svg")
        _atomic_write(spath, chart)
        written.append(spath)
    return written


# -- argument parsing -------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out')")
    parser.add_argument("--svg", action="store_true", help="also write SVG figures")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--samples", type=int, default=None,
                        help="override both per-branch sample counts")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the floor on the quadrature cells per level")
    parser.add_argument("--stride", type=int, default=None, help="override the evaluation stride")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.samples is not None:
        updates["samples_z0"] = updates["samples_z1"] = args.samples
    if args.grid is not None:
        updates["grid_points"] = args.grid
    if args.stride is not None:
        updates["stride"] = args.stride
    return replace(config, **updates) if updates else config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffentropy",
        description="Conditional-entropy and bifurcation analysis of 1-D diffusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("profile", "quadrature entropy/rate/transfer profiles"),
        ("estimate", "Monte-Carlo entropy estimate via posterior tracking"),
        ("fixed-points", "reverse-drift fixed points across noise levels"),
        ("validate-config", "parse and validate a config, print its hash"),
    ):
        _add_common(sub.add_parser(name, help=help_text))

    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        out_dir = args.out if args.out is not None else config.out
        if args.command == "validate-config":
            roundtrip = ExperimentConfig.from_dict(config.to_dict())
            if roundtrip != config:
                raise ConfigError("config does not round-trip through its dict form")
            print(f"ok: method={config.method} hash={config.config_hash()}")
            return 0
        runner = {"profile": run_profile, "estimate": run_estimate,
                  "fixed-points": run_fixed_points}[args.command]
        written = runner(config, out_dir, svg=args.svg)
    except (ConfigError, ParameterError, PartitionError, OSError) as err:
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
