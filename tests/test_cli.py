import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import diffentropy
from diffentropy import cli
from diffentropy._svg import scatter_chart
from diffentropy.bifurcation import find_fixed_points, trace_bifurcations
from diffentropy.cli import ConfigError, ExperimentConfig, load_config, main
from diffentropy.core import linear_schedule
from diffentropy.tracker import GmmScoreModel, write_replay_csv
from diffentropy.core import MixtureModel, make_partition

from test_benchmark_oracles import ATLAS


SCHEDULE_150 = {"num_steps": 150, "beta_start": 5e-4, "beta_end": 0.12}

# Deltas at -2, 0 and 2, one-vs-rest on the first, over 50 steps of the default betas.
THREE_DELTAS = {"mixture": {"means": [-2.0, 0.0, 2.0]}, "schedule": {"num_steps": 50},
                "partitions": [{"preset": "one-vs-rest", "target": 0, "name": "d"}], "seed": 1}
COMMANDS = {"quadrature": "profile", "montecarlo": "estimate", "fixedpoints": "fixed-points"}


@pytest.fixture(scope="module")
def replay_tables(tmp_path_factory):
    """THREE_DELTAS's oracle tabulated by ``write_replay_csv`` on 601 and on 121
    nodes of [-6, 6], by node count."""
    mixture = MixtureModel.deltas([-2.0, 0.0, 2.0])
    sched = linear_schedule(50)
    model = GmmScoreModel(mixture, sched, make_partition(mixture, [0], [1, 2]))
    paths = {}
    for nodes in (601, 121):
        paths[nodes] = str(tmp_path_factory.mktemp("replay") / f"eps{nodes}.csv")
        write_replay_csv(paths[nodes], model, sched, np.linspace(-6.0, 6.0, nodes))
    return paths


def data_rows(where, method, config):
    """The config's hash and the lines of its job's CSVs that are not comments."""
    where.mkdir()
    cfg = where / "c.json"
    cfg.write_text(json.dumps({**config, "method": method}))
    assert main([COMMANDS[method], "--config", str(cfg), "--out", str(where / "out")]) == 0
    rows = [ln for path in sorted((where / "out").glob("*.csv"))
            for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return load_config(str(cfg)).config_hash(), rows


def write_config(path, **overrides):
    base = {
        "mixture": {"means": [-1.0, 1.0]},
        "schedule": SCHEDULE_150,
        "partitions": [{"z0": [0], "z1": [1]}],
        "method": "quadrature",
        "seed": 7,
        "stride": 10,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        # An oracle's path is null, as ``to_dict`` writes it.
        assert cfg.to_dict()["score_model"]["path"] is None
        assert load_config(write_config(tmp_path / "d.json", **cfg.to_dict())) == cfg

    def test_hash_is_stable_and_content_sensitive(self, tmp_path):
        a = load_config(write_config(tmp_path / "a.json"))
        b = load_config(write_config(tmp_path / "b.json"))
        c = load_config(write_config(tmp_path / "c.json", stride=5))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("method, unread, read", [
        ("fixedpoints", {"samples": 5}, {"stride": 5}),
        ("quadrature", {"seed": 3}, {"partitions": [{"z0": [1], "z1": [0]}]}),
        ("montecarlo", {"stride": 5}, {"samples": 5}),
    ])
    def test_hash_covers_only_the_keys_the_job_reads(self, tmp_path, method, unread, read):
        base = load_config(write_config(tmp_path / "a.json", method=method))
        assert load_config(write_config(tmp_path / "b.json", method=method, out="elsewhere",
                                        **unread)).config_hash() == base.config_hash()
        assert load_config(write_config(tmp_path / "c.json", method=method,
                                        **read)).config_hash() != base.config_hash()

    def test_presets_expand(self, tmp_path):
        path = write_config(
            tmp_path / "p.json",
            mixture={"means": [-8.0, -4.0, 6.0, 8.0]},
            partitions=[
                {"preset": "one-vs-one", "classes": [3, 2]},
                {"preset": "one-vs-rest", "target": 0},
                {"preset": "group-vs-group", "z0": [0, 1], "z1": [2, 3]},
            ],
        )
        cfg = load_config(path)
        assert cfg.partitions[0].z0 == (3,)
        assert cfg.partitions[0].z1 == (2,)
        assert cfg.partitions[1].z1 == (1, 2, 3)
        assert cfg.partitions[2].name == "group-0-1_vs_2-3"

    def test_defaults_fill_weights_and_variances(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "d.json"))
        mix = cfg.mixture()
        np.testing.assert_allclose(mix.weights, [0.5, 0.5])
        np.testing.assert_allclose(mix.variances, [0.0, 0.0])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"method": "annealing"},
            {"mixture": {"means": [0.0], "weights": [0.7]}},
            {"partitions": [{"z0": [0], "z1": [0]}]},
            {"typo_key": 1},
            {"score_model": {"kind": "replay"}},
            {"partitions": [{"z0": [0.5], "z1": [1]}]},
            {"seed": -1},
            {"partitions": [{"preset": "one-vs-rest"}]},
            {"partitions": [{"preset": "one-vs-one"}]},
            {"partitions": [{"preset": "one-vs-one", "classes": [1]}]},
            {"mixture": {"means": "ab"}},
            {"mixture": {"means": []}},
            {"mixture": {"means": [-1.0, 1.0], "weights": ["a", "b"]}},
            {"mixture": {"means": [-1.0, 1.0], "variances": "ab"}},
            {"schedule": {"num_steps": "x"}},
            {"schedule": {"num_steps": 150.0}},
            {"seed": 1.5},
            {"stride": 2.7},
            {"samples": 2.5},
            {"seed": True},
            {"schedule": 5},
            {"score_model": 5},
            {"partitions": 5},
            {"stride": 0},
            {"samples": 0},
            {"samples_z0": 0},
            {"samples_z1": -3},
            # Misspelt keys of a section, once ignored.
            {"mixture": {"means": [-1.0, 1.0], "weigths": [0.9, 0.1]}},
            {"schedule": {"num_step": 20}},
            {"score_model": {"complemnt": "null"}},
            {"partitions": [{"preset": "one-vs-one", "classes": [0, 1], "target": 1}]},
            {"partitions": [{"z0": [0], "z1": [1], "preset": None}]},
            # Field names of the parsed config, once accepted at the top and ignored.
            {"complement": "null"},
            {"means": [-2.0, 2.0]},
            {"weights": [0.9, 0.1]},
            {"variances": [0.5, 0.5]},
            {"score_kind": "replay"},
            {"replay_path": "eps.csv"},
            # Schedule keys at the top, once beating the schedule's.
            {"num_steps": 20},
            {"beta_start": 1e-3},
            {"beta_end": 0.05},
            # Two spellings of one setting.
            {"samples": 10, "samples_z0": 500},
            {"samples": 10, "samples_z1": 500},
            {"partition": {"z0": [1], "z1": [0]}},
            # Settings that are constants of the library.
            {"grid_points": 1024},
            {"drift_coeff": 0.5},
            # Strings must be JSON strings.
            {"out": 5},
            {"score_model": {"kind": "replay", "path": 5}},
            {"partitions": [{"z0": [0], "z1": [1], "name": 7}]},
            # A path that an oracle score model does not read.
            {"score_model": {"path": "eps.csv"}},
            {"score_model": {"kind": "oracle", "path": "eps.csv", "complement": "null"}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        path = write_config(tmp_path / "bad.json", **overrides)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("overrides, path", [
        ({"mixture": {"means": [-1.0, 1.0], "weigths": [0.9, 0.1]}}, "mixture.weigths"),
        ({"schedule": {"num_step": 20}}, "schedule.num_step"),
        ({"score_model": {"complemnt": "null"}}, "score_model.complemnt"),
        ({"partitions": [{"z0": [0], "z1": [1]}, {"preset": "one-vs-rest", "target": 0, "z0": [0]}]},
         "partitions[1].z0"),
        ({"complement": "null"}, "complement"),
    ])
    def test_an_unknown_key_exits_2_naming_its_path(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"unknown config key {path!r}" in err[0], err
        assert not (tmp_path / "out").exists()


class TestProfileCommand:
    def test_writes_csv_with_expected_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
        assert main(["profile", "--config", str(cfg)]) == 0
        out = tmp_path / "out" / "profile_z0-0_vs_z1-1.csv"
        assert out.exists()
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("config sha256" in c for c in comments)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "t,s,H_bits,dH_ds,transfer_bits"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 16  # 150 steps, stride 10, final step appended
        first = rows[0].split(",")
        assert int(first[0]) == 1
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "profile_z0-0_vs_z1-1.csv").read_bytes()
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "profile_z0-0_vs_z1-1.csv").read_bytes() == first

    def test_svg_is_self_contained_and_small(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
        svg = (out / "profile_rate.svg").read_text()
        assert svg.startswith("<svg")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert len(svg.encode()) < 1_000_000

    def test_identical_components_give_flat_profile(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mixture={"means": [0.5, 0.5],
                                                         "variances": [0.1, 0.1]})
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in
                (out / "profile_z0-0_vs_z1-1.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        h = np.array([float(r[2]) for r in rows])
        rate = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(h, 1.0, atol=1e-9)
        np.testing.assert_allclose(rate, 0.0, atol=1e-6)

    def test_a_decided_prior_writes_no_negative_zero(self, tmp_path):
        # All weight on z0: the prior's entropy is 0, and so is H at t = 1.
        cfg = write_config(tmp_path / "c.json", mixture={"means": [-1.0, 1.0], "weights": [1.0, 0.0]},
                           partitions=[{"preset": "one-vs-one", "classes": [0, 1]}])
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in (out / "profile_c0-vs-c1.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert rows[0][:3] == ["1", "0.0066666666666666671", "0"] and rows[0][4] == "0"
        assert all(cell != "-0" for row in rows for cell in row)

    def test_unresolved_window_is_numerical_failure(self, tmp_path, capsys):
        # A point mass inside a wide component's window: resolved at the
        # default floor, until the first step leaves it too narrow for the
        # cap on a level's cells.
        mixture = {"means": [0.0, 0.5], "variances": [4.0, 0.0]}
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path / "c.json", mixture=mixture)
        assert main(["profile", "--config", str(cfg), "--out", out]) == 0
        cfg = write_config(tmp_path / "c.json", mixture=mixture,
                           schedule={"num_steps": 150, "beta_start": 1e-10, "beta_end": 0.12})
        assert main(["profile", "--config", str(cfg), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "step t=1:" in err and "more than the 1048576" in err


class TestEstimateCommand:
    def test_csv_schema_and_seed_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="montecarlo", samples=40)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        body = (out / "estimate.csv").read_text()
        header = next(ln for ln in body.splitlines() if not ln.startswith("#"))
        assert header == "t,s,H_bits,H_z0_mean,H_z1_mean,N_z0,N_z1,seed"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "estimate.csv").read_text() == body
        assert main(["estimate", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        assert (out / "estimate.csv").read_text() != body

    def test_single_sample_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="montecarlo", samples=1)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln for ln in (out / "estimate.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 151
        assert all(np.isfinite(float(r.split(",")[2])) for r in rows)

    @pytest.mark.parametrize("job, method, module", [
        # The noise producer is a plain thread: concurrent.futures, with its
        # imports, would cost every CLI process ~9 ms and ~0.6 MB.
        ("estimate", "montecarlo", "concurrent"),
        # The quadrature groups its levels without np.unique, whose first
        # call imports numpy.ma: ~1.4 MB of peak RSS.
        ("profile", "quadrature", "numpy.ma"),
    ])
    def test_estimate_job_loads_no_executor_module(self, tmp_path, job, method, module):
        cfg = write_config(tmp_path / "c.json", method=method, samples=4)
        script = "\n".join([
            "import sys",
            "from diffentropy.cli import main",
            f"assert main([{job!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0",
            f"print(sorted(name for name in sys.modules if (name + '.').startswith({module + '.'!r})))",
        ])
        src = str(Path(diffentropy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_replay_model_honours_the_null_complement(self, tmp_path, replay_tables):
        # The replay model once ran the exact complement under complement
        # "null": 0.302 bits from the oracle's "null" estimate.
        config = {**THREE_DELTAS, "samples": 2000}
        runs = {}
        for kind in ("oracle", "replay"):
            score_model = {"kind": kind, "complement": "null"}
            if kind == "replay":
                score_model["path"] = replay_tables[601]
            _, rows = data_rows(tmp_path / kind, "montecarlo", {**config, "score_model": score_model})
            runs[kind] = np.array([float(row.split(",")[2]) for row in rows[1:]])
        assert runs["oracle"].shape == runs["replay"].shape == (51,)
        np.testing.assert_allclose(runs["replay"], runs["oracle"], rtol=0, atol=1e-4)

    def test_missing_replay_file_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="montecarlo",
                           score_model={"kind": "replay", "path": str(tmp_path / "nope.csv")})
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_incomplete_replay_data_is_numerical_failure(self, tmp_path):
        mixture = MixtureModel.deltas([-1.0, 1.0])
        sched = linear_schedule(150, 5e-4, 0.12)
        part = make_partition(mixture, [0], [1])
        replay = tmp_path / "partial.csv"
        write_replay_csv(replay, GmmScoreModel(mixture, sched, part), sched,
                         np.linspace(-5, 5, 21), steps=[150])
        cfg = write_config(tmp_path / "c.json", method="montecarlo", samples=4,
                           score_model={"kind": "replay", "path": str(replay)})
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("body, where", [
        (b"", "is empty"),
        (b"# comment only\nt,x,eps_z0,eps_z1,eps_null\n150,0.0,0.1,-0.1,abc\n", "line 3"),
        (b"t,x,eps_z0,eps_z1,eps_null\n150,0.0,0.1\n", "line 2"),
        (b"t,x,eps_z0,eps_z1,eps_null\n150,0.0,0.1,-0.1,0.0\n149.5,0.0,0.1,-0.1,0.0\n", "line 3"),
        (b"t,x,eps_z0,eps_z1,eps_null\n\xff\xfe,0.0,0.1,-0.1,0.0\n", "is not text"),
        (b"t,x,eps_z0,eps_z1,eps_null\n6,0.0,0.1,-0.1,0.0\n6,0,123,-123,0\n7,0.0,0.1,-0.1,0.0\n",
         "step t=6: x=0.0 appears on two rows"),
        (b"t,x,eps_z0,eps_z1,eps_null\n150,-1.0,0.1,-0.1,0.0\n150,0.0,0.1,nan,0.0\n",
         "step t=150: the row [0.0, 0.1, nan, 0.0] holds a value that is not finite"),
    ], ids=["empty", "non-numeric", "short-row", "non-integer-t", "not-text", "repeated-x",
            "non-finite"])
    def test_malformed_replay_file_is_numerical_failure(self, tmp_path, capsys, body, where):
        replay = tmp_path / "bad.csv"
        replay.write_bytes(body)
        cfg = write_config(tmp_path / "c.json", method="montecarlo", samples=4,
                           score_model={"kind": "replay", "path": str(replay)})
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(replay) in err and where in err


class TestFixedPointsCommand:
    def test_symmetric_pitchfork_in_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="fixedpoints", stride=15)
        out = tmp_path / "out"
        assert main(["fixed-points", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
        lines = (out / "fixed_points.csv").read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "s,alpha_bar,x_star,stability"
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert {r[3] for r in rows} <= {"stable", "unstable"}
        # Pitchfork arms are mirror images at every level.
        by_s: dict = {}
        for r in rows:
            by_s.setdefault(r[0], []).append(float(r[2]))
        for xs in by_s.values():
            np.testing.assert_allclose(sorted(xs), sorted(-x for x in xs), atol=1e-9)
        assert any("critical" in ln for ln in lines if ln.startswith("#"))
        assert (out / "fixed_points.svg").exists()

    def test_single_component_single_branch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="fixedpoints", stride=25,
                           mixture={"means": [2.0], "variances": [0.3]},
                           partitions=None)
        cfg_data = json.loads(cfg.read_text())
        del cfg_data["partitions"]
        cfg.write_text(json.dumps(cfg_data))
        out = tmp_path / "out"
        assert main(["fixed-points", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [ln for ln in (out / "fixed_points.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        seen_s = set()
        for r in rows:
            assert r[3] == "stable"
            assert r[0] not in seen_s
            seen_s.add(r[0])
        assert not any("critical" in ln for ln in lines)

    def test_heavier_branch_survives_longer(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="fixedpoints", stride=10,
                           mixture={"means": [-2.0, 0.0, 2.0], "weights": [0.25, 0.25, 0.5]},
                           partitions=[{"z0": [0], "z1": [1]}])
        out = tmp_path / "out"
        assert main(["fixed-points", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in
                (out / "fixed_points.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        stable = [(float(r[0]), float(r[2])) for r in rows if r[3] == "stable"]
        # Once only one branch remains, it must be the heavy (positive) one.
        by_s: dict = {}
        for s, x in stable:
            by_s.setdefault(s, []).append(x)
        lone = {s: xs[0] for s, xs in by_s.items() if len(xs) == 1 and s < 1.0}
        assert lone
        assert all(x > 0 for x in lone.values())

    def test_overflowing_search_box_is_numerical_failure(self, tmp_path, capsys):
        # The default box spans the whole float range, so the grid and the
        # residual overflow: the job fails loudly, not with an empty diagram.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mixture": {"means": [-1.7976931348623157e308,
                                                         1.7976931348623157e308]},
                                   "method": "fixedpoints", "schedule": {"num_steps": 10}}))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fixed-points", "--config", str(cfg), "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: step t=1: "), err
        assert not (out / "fixed_points.csv").exists()


def _fixed_point_files(config):
    """``fixed_points.csv`` and ``.svg`` written row by row from each strided level's
    :func:`find_fixed_points`, the one-level solve."""
    mixture, schedule = config.mixture(), config.schedule()
    diagram = trace_bifurcations(mixture, schedule, stride=config.stride)
    comments = cli._common_comments(config) + [
        f"critical s={e.s!r} steps {e.t_before}->{e.t_after} count {e.count_before}->{e.count_after}"
        for e in diagram.critical]
    levels = [find_fixed_points(mixture, schedule.alpha_bar(t)) for t in diagram.steps.tolist()]
    counts = [len(x) for x, _ in levels]
    s, x = np.repeat(diagram.s, counts), np.array([r for x, _ in levels for r in x.tolist()], dtype=float)
    stability = np.array(["stable" if b else "unstable" for _, flags in levels for b in flags.tolist()],
                         dtype=str)
    text = cli._csv_text(comments, ["s", "alpha_bar", "x_star", "stability"],
                         [s, np.repeat(diagram.alpha_bars, counts), x, stability])
    groups = [(kind, s[stability == kind], x[stability == kind])
              for kind in ("stable", "unstable") if np.any(stability == kind)]
    return counts, text, scatter_chart(groups, title="drift fixed points", xlabel="normalized time s",
                                       ylabel="x*")


class TestFixedPointArrays:
    MIXTURES = {**ATLAS, "four-deltas": {"means": [-8.0, -4.0, 6.0, 8.0]}}

    @pytest.mark.parametrize("stride", [10, 1])
    @pytest.mark.parametrize("name", MIXTURES)
    def test_the_job_writes_each_levels_one_level_solve(self, tmp_path, name, stride):
        config = ExperimentConfig.from_dict({"method": "fixedpoints", "mixture": self.MIXTURES[name],
                                             "stride": stride})
        diagram = trace_bifurcations(config.mixture(), config.schedule(), stride=stride)
        written = cli._fixed_points_job(config, str(tmp_path), svg=True)
        assert written == [str(tmp_path / "fixed_points.csv"), str(tmp_path / "fixed_points.svg")]
        counts, text, chart = _fixed_point_files(config)
        assert diagram.counts.tolist() == counts
        assert (tmp_path / "fixed_points.csv").read_text() == text
        assert (tmp_path / "fixed_points.svg").read_text() == chart


class TestSvg:
    @pytest.mark.parametrize("method", COMMANDS)
    def test_svg_reruns_are_byte_identical(self, tmp_path, method):
        cfg = write_config(tmp_path / "c.json", method=method, samples=50)
        charts = []
        for run in ("first", "second"):
            assert main([COMMANDS[method], "--config", str(cfg), "--out", str(tmp_path / run), "--svg"]) == 0
            charts.append({path.name: path.read_bytes() for path in (tmp_path / run).glob("*.svg")})
        assert len(charts[0]) == 1 and charts[0] == charts[1]

    def test_each_fixed_point_row_has_one_dot_coloured_by_its_stability(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", method="fixedpoints", mixture=ATLAS["row-lopsided"],
                           schedule={"num_steps": 1000})
        assert main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path), "--svg"]) == 0
        lines = (tmp_path / "fixed_points.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        svg = (tmp_path / "fixed_points.svg").read_text()
        colour = {label: c for c, label in re.findall(
            r'stroke="(#\w+)" stroke-width="2"/>\n<text [^>]*>(\w+)</text>', svg)}
        assert colour.keys() == {"stable", "unstable"} and len(set(colour.values())) == 2
        # Each row's dot, at its place on the 720 x 480 chart: a 64-px left margin, 640 px of
        # plot width, 400 px of height over the roots' range padded by 4%, and a 44-px bottom margin.
        s, x = [float(row[0]) for row in rows], [float(row[2]) for row in rows]
        s0, s1 = min(s), max(s)
        pad = 0.04 * (max(x) - min(x))
        x0, x1 = min(x) - pad, max(x) + pad
        dots = [(f"{64 + (a - s0) / (s1 - s0) * 640:.2f}", f"{480 - 44 - (b - x0) / (x1 - x0) * 400:.2f}",
                 colour[row[3]]) for a, b, row in zip(s, x, rows)]
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"/>', svg)
        assert len(circles) == svg.count("<circle") == len(rows)
        assert sorted(circles) == sorted(dots)


def _full_parser():
    """The parser with every subcommand, as ``main`` built it for any arguments: the oracle of
    its usage lines, errors and help."""
    parser = argparse.ArgumentParser(
        prog="diffentropy",
        description="Conditional-entropy and bifurcation analysis of 1-D diffusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, overrides, _, job) in cli._COMMANDS.items():
        cli._add_common(sub.add_parser(name, help=help_text), overrides, writes=job is not None)
    return parser


class TestParser:
    USAGE = "usage: diffentropy [-h] {profile,estimate,fixed-points,validate-config} ...\n"

    @pytest.mark.parametrize("argv", [
        *([command, "--config", "c.json", "--bogus"] for command in cli._COMMANDS),
        *([command, "--help"] for command in cli._COMMANDS),
        *([command] for command in cli._COMMANDS),
        ["fixed-points", "--config", "c.json", "extra"], ["profile", "--config", "c.json", "--stride", "x"],
        ["estimate", "--config"], ["validate-config", "--config", "c.json", "--svg"],
        [], ["--help"], ["-h", "profile"], ["bogus"], ["Profile"], ["--config", "c.json"],
    ], ids=" ".join)
    def test_usage_errors_and_help_match_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as expected:
            _full_parser().parse_args(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == expected.value.code
        assert capsys.readouterr() == printed

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_an_unrecognized_flag_prints_the_usage_of_every_command(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as caught:
            main([command, "--config", "c.json", "--bogus"])
        assert caught.value.code == 2
        assert capsys.readouterr().err == self.USAGE + "diffentropy: error: unrecognized arguments: --bogus\n"

    def test_only_the_named_command_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda sub, name, add=argparse._SubParsersAction.add_parser, **kw:
                            built.append(name) or add(sub, name, **kw))
        with pytest.raises(SystemExit):
            main(["fixed-points", "--help"])
        assert built == ["fixed-points"]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == ["fixed-points", *cli._COMMANDS]


class TestValidateAndErrors:
    def test_validate_config_prints_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["validate-config", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "hash=" in out

    @pytest.mark.parametrize("command, method, given", [
        ("profile", "quadrature", "montecarlo"), ("estimate", "montecarlo", "fixedpoints"),
        ("fixed-points", "fixedpoints", "quadrature"),
    ])
    def test_method_mismatch_is_usage_error(self, tmp_path, capsys, command, method, given):
        cfg = write_config(tmp_path / "c.json", method=given)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {command} needs method={method!r}, config says {given!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, partitions, message", [
        ("montecarlo", [{"z0": [0], "z1": [1]}, {"z0": [1], "z1": [0]}], "estimate needs exactly one partition"),
        ("quadrature", [], "profile needs at least one partition"),
    ], ids=["montecarlo-two", "quadrature-none"])
    def test_a_partition_count_the_job_rejects_fails_validation(self, tmp_path, capsys, method,
                                                               partitions, message):
        cfg = write_config(tmp_path / "c.json", method=method, partitions=partitions)
        for command in ("validate-config", COMMANDS[method]):
            out = [] if command == "validate-config" else ["--out", str(tmp_path / "out")]
            assert main([command, "--config", str(cfg)] + out) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides", [
        ("validate-config", {"schedule": {"num_steps": 10**17}}),
        ("profile", {"schedule": {"num_steps": 10**17}}),
        ("estimate", {"method": "montecarlo", "samples": 10**17}),
    ])
    def test_an_allocation_past_any_address_space_is_a_config_error(self, tmp_path, capsys, command,
                                                                    overrides):
        # 10^17 float64 values exceed every address space, so no machine can
        # commit them, however it overcommits.
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = [] if command == "validate-config" else ["--out", str(tmp_path / "out")]
        assert main([command, "--config", str(cfg)] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stride, flag", [(10**23, []), (10, ["--stride", str(2**63)])],
                             ids=["config", "flag"])
    @pytest.mark.parametrize("method", ["quadrature", "fixedpoints"])
    def test_a_stride_past_int64_writes_the_stride_t_rows(self, tmp_path, method, stride, flag):
        # Every stride from T = 150 on gives the steps [1, T].
        rows = {}
        for name, (value, extra) in {"huge": (stride, flag), "t": (150, [])}.items():
            cfg = write_config(tmp_path / f"{name}.json", method=method, stride=value)
            out = tmp_path / name
            assert main([COMMANDS[method], "--config", str(cfg), "--out", str(out)] + extra) == 0
            rows[name] = [ln for path in sorted(out.glob("*.csv"))
                          for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows["t"]) > 2 and rows["huge"] == rows["t"]

    @pytest.mark.parametrize("overrides, flag, counts", [
        ({"samples": 10**23}, [], (10**23, 10**23)),
        ({"samples_z0": 3, "samples_z1": 2**63}, [], (3, 2**63)),
        ({}, ["--samples", str(2**62)], (2**62, 2**62)),
        ({"samples_z0": 2**60 - 8, "samples_z1": 8}, [], (2**60 - 8, 8)),
    ], ids=["config-both", "config-one-side", "flag", "at-the-bound"])
    def test_sample_counts_past_any_address_space_are_a_config_error(self, tmp_path, capsys, overrides,
                                                                     flag, counts):
        # 8 (n_z0 + n_z1) bytes past the largest intp: numpy cannot even size the array.
        cfg = write_config(tmp_path / "c.json", method="montecarlo", **overrides)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")] + flag) == 2
        n_z0, n_z1 = counts
        assert capsys.readouterr().err == f"error: sample counts {n_z0} + {n_z1} exceed any address space\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["profile", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("overrides, prior", [
        ({"prior_z0": 1.5}, "1.5"),
        # A side without weight leaves the partition's prior at 1.
        ({"mixture": {"means": [-1.0, 1.0], "weights": [1.0, 0.0]}}, "1.0"),
    ], ids=["prior-above-one", "zero-weight-side"])
    def test_a_prior_the_estimator_rejects_fails_validation(self, tmp_path, capsys, overrides, prior):
        cfg = write_config(tmp_path / "c.json", method="montecarlo", **overrides)
        for command in ("validate-config", "estimate"):
            out = [] if command == "validate-config" else ["--out", str(tmp_path / "out")]
            assert main([command, "--config", str(cfg)] + out) == 2
            err = capsys.readouterr().err
            assert f"prior_z0 must lie strictly inside (0, 1), got {prior}" in err
        assert not (tmp_path / "out").exists()
        # A profile reads no prior_z0, and a decided decision has a profile.
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main(["validate-config", "--config", str(cfg)]) == 0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["profile", "--config", str(path)]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "401-digit"])
    @pytest.mark.parametrize("key", ["beta_start", "prior_z0", "beta_end", "means"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key, value):
        # Python's json reads NaN and +-Infinity as floats, and a 401-digit
        # integer overflows one.
        cfg = write_config(tmp_path / "c.json", method="fixedpoints", stride=50)
        text = cfg.read_text()
        if key.startswith("beta"):
            text = text.replace(f'"{key}": {SCHEDULE_150[key]!r}', f'"{key}": {value}')
        elif key == "means":
            text = text.replace('"means": [-1.0, 1.0]', f'"means": [-1.0, {value}]')
        else:
            text = text.replace('"stride": 50', f'"stride": 50, "{key}": {value}')
        cfg.write_text(text)
        assert main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--stride", "0"], ["--samples", "0"]])
    def test_out_of_range_override_is_config_error(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "c.json")
        assert main(["validate-config", "--config", str(cfg)] + flag) == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("profile", ["--samples", "7"]), ("profile", ["--seed", "1"]),
        ("fixed-points", ["--seed", "5"]), ("fixed-points", ["--samples", "3"]),
        ("estimate", ["--stride", "3"]),
        # validate-config writes nothing, so it reads no output flag.
        ("validate-config", ["--out", "out"]), ("validate-config", ["--svg"]),
    ])
    def test_a_flag_the_job_does_not_read_is_a_usage_error(self, tmp_path, capsys, command, flag,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json")
        out = [] if command == "validate-config" else ["--out", "out"]
        with pytest.raises(SystemExit) as caught:
            main([command, "--config", str(cfg)] + out + flag)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, flags", [
        ("quadrature", []), ("quadrature", ["--stride", "25"]), ("montecarlo", ["--samples", "20", "--seed", "3"]),
        ("fixedpoints", []), ("fixedpoints", ["--stride", "5"]),
    ])
    def test_each_job_builds_its_mixture_and_schedule_once(self, tmp_path, monkeypatch, method, flags):
        # Validating the config builds the objects, and the job reuses them,
        # flag overrides included.
        built = {"mixture": 0, "schedule": 0, "partition": 0}

        def counting(key, build):
            return lambda *args, **kwargs: built.update({key: built[key] + 1}) or build(*args, **kwargs)

        monkeypatch.setattr(cli, "MixtureModel", counting("mixture", cli.MixtureModel))
        monkeypatch.setattr(cli, "linear_schedule", counting("schedule", cli.linear_schedule))
        monkeypatch.setattr(cli, "make_partition", counting("partition", cli.make_partition))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**THREE_DELTAS, "method": method, "samples": 10}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([COMMANDS[method], "--config", str(cfg), "--out", str(tmp_path / "out")] + flags) == 0
        assert built == {"mixture": 1, "schedule": 1, "partition": 1}

    def test_grid_flag_is_a_usage_error(self, tmp_path, capsys):
        # The quadrature's cells come from an error bound: there is no grid to set.
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as caught:
            main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out"), "--grid", "1024"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# One change of each key that a job's config hash covers, as (method, key,
# THREE_DELTAS's score model, change).  A replay path names a node count of
# ``replay_tables``.
REPLAY = {"kind": "replay", "path": 601}
HASHED_KEY_CHANGES = [
    *[(method, key, None, change) for method in COMMANDS for key, change in [
        ("mixture", {"mixture": {"means": [-2.0, 0.0, 2.5]}}),
        ("schedule", {"schedule": {"num_steps": 50, "beta_end": 0.03}}),
        ("stride", {"stride": 7}),
        ("partitions", {"partitions": [{"preset": "one-vs-rest", "target": 1, "name": "d"}]}),
    ] if key in cli._HASHED_KEYS[method]],
    ("montecarlo", "seed", None, {"seed": 2}),
    ("montecarlo", "samples_z0", None, {"samples_z0": 41}),
    ("montecarlo", "samples_z1", None, {"samples_z1": 41}),
    ("montecarlo", "prior_z0", None, {"prior_z0": 0.5}),
    ("montecarlo", "score_model", None, {"score_model": {"complement": "null"}}),
    ("montecarlo", "score_model", None, {"score_model": REPLAY}),
    ("montecarlo", "score_model", REPLAY, {"score_model": {**REPLAY, "complement": "null"}}),
    ("montecarlo", "score_model", REPLAY, {"score_model": {**REPLAY, "path": 121}}),
]


class TestHashedKeys:
    def test_every_hashed_key_has_a_change(self):
        covered = {(method, key) for method, key, _, _ in HASHED_KEY_CHANGES}
        assert covered == {(method, key) for method, keys in cli._HASHED_KEYS.items() for key in keys}

    @pytest.mark.parametrize("method, key, score_model, change", HASHED_KEY_CHANGES,
                             ids=[f"{m}-{k}-{json.dumps(c)}" for m, k, _, c in HASHED_KEY_CHANGES])
    def test_a_hashed_key_changes_the_data_rows(self, tmp_path, replay_tables, method, key,
                                                score_model, change):
        def resolved(config):
            if "path" in config.get("score_model", {}):
                config["score_model"] = {**config["score_model"],
                                         "path": replay_tables[config["score_model"]["path"]]}
            return config

        base = {**THREE_DELTAS, "samples_z0": 40, "samples_z1": 40}
        if score_model is not None:
            base["score_model"] = score_model
        before = data_rows(tmp_path / "before", method, resolved(dict(base)))
        after = data_rows(tmp_path / "after", method, resolved({**base, **change}))
        assert before[0] != after[0]
        assert before[1] != after[1]


class TestConfigFuzz:
    """Malformed and edge-case configs on small schedules: an exit code, never a traceback."""

    JUNK = st.sampled_from(["x", "", None, True, [], {}, [1], -1, 0, float("nan"), float("inf")])
    EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e6, 1e150, 1e300, -1e300,
                             1.7976931348623157e308])

    @staticmethod
    @st.composite
    def cases(draw, junk=JUNK, edges=EDGES):
        def mostly(valid, invalid=junk):
            # Invalid one time in 40, so most configs reach a job.  The pick
            # is 17, not 0: Hypothesis favours the simplest draw, 0.
            return draw(invalid) if draw(st.integers(0, 39)) == 17 else draw(valid)

        k = draw(st.integers(1, 5))
        finite = st.one_of(st.floats(-20.0, 20.0), edges)
        positive = st.one_of(st.floats(0.01, 5.0), st.sampled_from([1e-300, 1e-12, 1e12, 1e300]))
        bad_list = st.one_of(junk, st.lists(finite, max_size=6))
        mix = {"means": mostly(st.lists(finite, min_size=k, max_size=k), bad_list)}
        if draw(st.booleans()):
            w = draw(st.lists(positive, min_size=k, max_size=k))
            mix["weights"] = mostly(st.just([v / sum(w) for v in w]), bad_list)
        if draw(st.booleans()):
            mix["variances"] = mostly(st.lists(st.one_of(st.just(0.0), positive), min_size=k,
                                               max_size=k), bad_list)
        method = draw(st.sampled_from(["quadrature", "montecarlo", "fixedpoints"]))
        # Small schedules and samples keep each job to milliseconds.
        schedule = {"num_steps": mostly(st.integers(2, 30), st.one_of(junk, st.integers(-2, 1)))}
        if draw(st.booleans()):
            beta = st.one_of(st.floats(1e-6, 0.5), st.sampled_from([1e-300, 1e-12, 0.5, 0.999999]))
            lo, hi = sorted([draw(beta), draw(beta)])
            schedule["beta_start"], schedule["beta_end"] = mostly(st.just(lo)), mostly(st.just(hi))
        raw = {"mixture": mix, "method": mostly(st.just(method)), "schedule": mostly(st.just(schedule))}

        index = st.integers(0, k - 1)
        bad_indices = st.lists(st.one_of(junk, st.integers(-2, k + 1), st.floats(0.0, k)), max_size=3)
        partitions = []
        for _ in range(mostly(st.just(1), st.integers(0, 3))):
            preset = draw(st.sampled_from([None, "one-vs-one", "one-vs-rest", "group-vs-group"]))
            if preset in (None, "group-vs-group"):
                order = draw(st.permutations(range(k)))
                cut = max(1, k - 1) if k < 3 else draw(st.integers(1, k - 1))
                entry = {"z0": list(order[:cut]), "z1": list(order[cut:])}
                side = draw(st.sampled_from(["z0", "z1"]))
                entry[side] = mostly(st.just(entry[side]), bad_indices)
            elif preset == "one-vs-one":
                entry = {"classes": mostly(st.lists(index, min_size=2, max_size=2), bad_indices)}
            else:
                entry = {"target": mostly(index, bad_indices)}
            if preset is not None:
                entry["preset"] = preset
            if draw(st.booleans()):
                entry["name"] = mostly(st.text("ab-_.", min_size=1, max_size=4), st.text(max_size=4))
            partitions.append(mostly(st.just(entry)))
        raw["partitions"] = partitions

        prior = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-300, 1.0 - 1e-16]))
        # One spelling of the sample counts: both at once, or one per side.
        counts = ("samples",) if draw(st.booleans()) else ("samples_z0", "samples_z1")
        # Integers past int64 that no job can size: its steps or its sample arrays.
        huge = st.sampled_from([2**63, 10**30])
        for key in counts:
            raw[key] = mostly(st.integers(1, 6), st.one_of(junk, st.integers(-3, 0), huge))
        for key, valid, invalid in (("seed", st.integers(0, 2**40), st.integers(-3, 0)),
                                    ("stride", st.integers(1, 40), st.one_of(st.integers(-3, 0), huge)),
                                    ("prior_z0", prior, st.integers(-3, 0))):
            if draw(st.booleans()):
                raw[key] = mostly(valid, st.one_of(junk, invalid))
        if draw(st.booleans()):
            raw["score_model"] = {
                "kind": mostly(st.just("oracle"), st.sampled_from(["replay", "bogus"])),
                "complement": mostly(st.sampled_from(["exact", "null"]))}
        if draw(st.integers(0, 39)) == 17:
            raw[draw(st.sampled_from(["typo", "partition", "grid_points", "drift_coeff",
                                      "samples_z0"]))] = draw(junk)
        command = {"quadrature": "profile", "montecarlo": "estimate",
                   "fixedpoints": "fixed-points"}[method]
        if draw(st.integers(0, 39)) == 17:
            command = draw(st.sampled_from(["profile", "estimate", "fixed-points", "validate-config"]))
        return raw, command

    # Edge configs may overflow on the way to their exit code; the warnings
    # say so on stderr, which is not what this test checks.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(cases())
    # The draws past int64 are rare: each once, on the jobs that crashed on them.
    @example(({"mixture": {"means": [-1.0, 1.0]}, "method": "quadrature", "stride": 2**63,
               "partitions": [{"z0": [0], "z1": [1]}]}, "profile"))
    @example(({"mixture": {"means": [-1.0, 1.0]}, "method": "fixedpoints", "stride": 10**30},
              "fixed-points"))
    @example(({"mixture": {"means": [-1.0, 1.0]}, "method": "montecarlo", "samples": 10**30,
               "partitions": [{"z0": [0], "z1": [1]}]}, "estimate"))
    @example(({"mixture": {"means": [-1.0, 1.0]}, "method": "montecarlo", "samples_z0": 2,
               "samples_z1": 2**63, "partitions": [{"z0": [0], "z1": [1]}]}, "estimate"))
    def test_every_config_ends_in_an_exit_code(self, case):
        raw, command = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                out = [] if command == "validate-config" else ["--out", os.path.join(tmp, "out")]
                code = main([command, "--config", path] + out)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_means_past_float_resolution_are_numerical_failure(self, tmp_path, capsys):
        # Found by the fuzz: mu +- 10 sd rounded to one float, and the cell
        # split divided 0 by 0 into negative cell counts (a ValueError).
        cfg = write_config(tmp_path / "c.json", mixture={"means": [1e150, 1e150, 1e150]},
                           partitions=[{"z0": [0], "z1": [1, 2]}])
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "no finite width" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["\x00", "a/b", "..", "", "x\ny", "c\\d"])
    def test_partition_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        # Found by the fuzz: a NUL byte in a name crashed the profile job's
        # file write; a separator or ".." would write outside --out.
        cfg = write_config(tmp_path / "c.json", partitions=[{"z0": [0], "z1": [1], "name": name}])
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "name must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
