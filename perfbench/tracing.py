"""Span tracing around the calls into each ``diffentropy`` layer.

The program is not edited: the tracer replaces, for the duration of a traced
pass, the names that a calling module looks up at call time (for example
``diffentropy.bifurcation.score``) with wrappers that record a span.  A span
is (name, job id, parent span, start, end, size); spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import diffentropy.bifurcation as bifurcation
import diffentropy.cli as cli
import diffentropy.entropy as entropy
import diffentropy.tracker as tracker

# Span record fields.
NAME, LAYER, JOB, PARENT, START, END, SIZE, EXTRA = range(8)


def _grid_cells(args, kwargs, result):
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    return getattr(grid, "n", 0), 0


def _kernel_points(args, kwargs, result):
    """(points x components in the evaluated subset, batch size) of a kernel call."""
    mixture, x = args[0], args[2]
    label = kwargs.get("label", args[3] if len(args) > 3 else "null")
    partition = kwargs.get("partition", args[4] if len(args) > 4 else None)
    if label == "null":
        components = mixture.num_components
    elif label in ("z0", "z1"):
        components = len(getattr(partition, label))
    else:
        components = 1
    batch = int(np.size(x))
    return batch * components, batch


def _trajectory_steps(args, kwargs, result):
    """(trajectory steps, draws of the larger branch) of one estimate."""
    levels = len(result.steps)
    return (result.n_z0 + result.n_z1) * (levels - 1), max(result.n_z0, result.n_z1) * levels


def _solve_level(args, kwargs, result):
    return len(result), float(kwargs.get("alpha_bar", args[1]))


def _sweep_levels(args, kwargs, result):
    return len(result.steps), 0


def _text_bytes(args, kwargs, result):
    return len(result.encode()), 0


# (owner, attribute, layer, size function).  The owner is the module whose
# global the caller reads, so the wrapper sits on that call edge only.
TARGETS = (
    (cli, "load_config", "cli", None),
    (cli, "entropy_profile", "entropy", None),
    (entropy, "conditional_entropy_at", "entropy", _grid_cells),
    (cli, "estimate_conditional_entropy", "tracker", _trajectory_steps),
    (tracker.GmmScoreModel, "epsilon", "tracker", None),
    (tracker, "score", "mixture", _kernel_points),
    (cli, "trace_bifurcations", "bifurcation", _sweep_levels),
    (bifurcation, "find_fixed_points", "bifurcation", _solve_level),
    (bifurcation, "score", "mixture", _kernel_points),
    (bifurcation, "score_derivative", "mixture", _kernel_points),
    (cli, "line_chart", "svg", _text_bytes),
    (cli, "scatter_chart", "svg", _text_bytes),
)


class Tracer:
    """Records spans while installed; ``with tracer.installed(): ...``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, layer: str, func, size_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, layer, self.job, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size_of is not None:
                span[SIZE], span[EXTRA] = size_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, layer, size_of in TARGETS:
                func = getattr(owner, attr)
                saved.append((owner, attr, func))
                setattr(owner, attr, self._wrap(f"{layer}.{attr}", layer, func, size_of))
            yield self
        finally:
            for owner, attr, func in reversed(saved):
                setattr(owner, attr, func)

    def call_job(self, name: str, func, *args):
        """Run one CLI call under a root span; its spans share a new job id."""
        self.job += 1
        return self._wrap(name, "cli", func, None)(*args)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,job,layer,name,start_ns,end_ns,size\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[JOB]},{s[LAYER]},{s[NAME]},{s[START]},{s[END]},{s[SIZE]}\n")


def _percentile_ms(durations_ns: list[int], q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e6 if durations_ns else 0.0


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-pass layer metrics and per-pass busy seconds of every layer.

    A layer's busy time counts its outermost spans (those not nested in a
    span of the same layer); its self time subtracts every child span.
    """
    dur = [s[END] - s[START] for s in spans]
    child_ns = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += dur[i]
    busy: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        layer = s[LAYER]
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer:
            busy[layer] = busy.get(layer, 0) + dur[i]
        self_ns[layer] = self_ns.get(layer, 0) + dur[i] - child_ns[i]
        by_name.setdefault(s[NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(name, field=None):
        idx = named(name)
        return sum(spans[i][field] for i in idx) if field is not None else sum(dur[i] for i in idx)

    levels = named("entropy.conditional_entropy_at")
    kernel = named("mixture.score") + named("mixture.score_derivative")
    kernel_ns = sum(dur[i] for i in kernel)
    kernel_points = sum(spans[i][SIZE] for i in kernel)
    estimates = named("tracker.estimate_conditional_entropy")
    traj_steps = sum(spans[i][SIZE] for i in estimates)
    draws = max((spans[i][EXTRA] for i in estimates), default=0)
    solves = named("bifurcation.find_fixed_points")
    solve_set = set(solves)
    residual_calls = sum(1 for i in named("mixture.score") if spans[i][PARENT] in solve_set)
    distinct_steps = len({(spans[i][JOB], spans[i][EXTRA]) for i in solves})
    mains = [i for i, s in enumerate(spans) if s[PARENT] < 0]

    per = 1.0 / passes
    metrics = {
        "entropy.levels": len(levels) * per,
        "entropy.cells": total("entropy.conditional_entropy_at", SIZE) * per,
        "entropy.busy_s": busy.get("entropy", 0) / 1e9 * per,
        "entropy.level_ms.p50": _percentile_ms([dur[i] for i in levels], 50),
        "entropy.level_ms.p99": _percentile_ms([dur[i] for i in levels], 99),
        "mixture.calls": len(kernel) * per,
        "mixture.points": kernel_points * per,
        "mixture.busy_s": busy.get("mixture", 0) / 1e9 * per,
        "mixture.ns_per_point": _ratio(kernel_ns, kernel_points),
        "mixture.mean_batch": _ratio(sum(spans[i][EXTRA] for i in kernel), len(kernel)),
        "tracker.traj_steps": traj_steps * per,
        "tracker.epsilon_calls": len(named("tracker.epsilon")) * per,
        "tracker.epsilon_s": total("tracker.epsilon") / 1e9 * per,
        "tracker.self_s": self_ns.get("tracker", 0) / 1e9 * per,
        "tracker.ns_per_traj_step": _ratio(busy.get("tracker", 0), traj_steps),
        "tracker.draws_mb": draws * 8 / 1e6,
        "bifurcation.solves": len(solves) * per,
        "bifurcation.sweep_levels": total("bifurcation.trace_bifurcations", SIZE) * per,
        "bifurcation.useful_solve_ratio": _ratio(distinct_steps, len(solves)),
        "bifurcation.residual_calls_per_solve": _ratio(residual_calls, len(solves)),
        "bifurcation.self_s": self_ns.get("bifurcation", 0) / 1e9 * per,
        "bifurcation.solve_ms.p50": _percentile_ms([dur[i] for i in solves], 50),
        "bifurcation.solve_ms.p99": _percentile_ms([dur[i] for i in solves], 99),
        "cli.config_s": total("cli.load_config") / 1e9 * per,
        "cli.emit_s": sum(dur[i] - child_ns[i] for i in mains) / 1e9 * per,
        "svg.busy_s": busy.get("svg", 0) / 1e9 * per,
        "svg.bytes": (total("svg.line_chart", SIZE) + total("svg.scatter_chart", SIZE)) * per,
    }
    return metrics, {layer: ns / 1e9 * per for layer, ns in sorted(busy.items())}
