"""Fixed points of the reverse drift and their bifurcations across noise.

The drift residual is ``g(x) = c * x - d/dx log p_t(x)`` with ``c =
DRIFT_COEFF = 0.5``, the variance-preserving drift; its roots are the
attractors/repellers organizing the generative dynamics, and the noise levels
where the root count changes are the bifurcations that split one branch of
generation into several.

Roots are located from the sign changes of ``g`` on ``GRID_NODES`` (256)
evenly spaced nodes over a search box that spans the origin and every
diffused mean with a 4-sigma margin.  Each sign-change cell brackets one
root, which a safeguarded Newton-bisection iteration (``rtsafe``, Numerical
Recipes section 9.4) narrows down to float resolution: the Newton step is
taken when it stays inside the bracket and at most halves the step before
last, a bisection otherwise.  Grid nodes where ``g`` is exactly zero are
roots without a bracket.  The sign change is what certifies a root, not the
size of ``|g|``: at low noise repelling roots live in posterior switch layers
of width ``~ var / separation``, where ``g`` jumps by more than float
resolution between adjacent floats, yet the sign change across such a layer
still brackets them.  Outside every diffused mean the score pulls inward, so
``g`` is negative at the box's low end and positive at its high end, and
every level has at least one root.

Each iteration takes ``g`` and its slope ``g'`` from one kernel pass.  A solve
scans its grids one chunk of ``CHUNK_TERMS`` kernel terms (grid nodes x
components) per kernel call, then its brackets share one Newton-bisection per
``CHUNK_TERMS // K`` of them, each at its own level and closed from both sides
(:func:`_bracketed_roots`).  Every root, from eight components on too
(``mixture._component_sum``), is bitwise what :func:`find_fixed_points` gives
for its level alone.  A trace solves its strided steps and the steps inside
every interval whose provisional count changes at once, then bisects over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, _level_namer, _strided_steps
from .mixture import CHUNK_TERMS, _gather, _kernel_tables, _score_and_slope
# Unused here, but perfbench/tracing.py wraps them under these names.
from .mixture import score, score_derivative  # noqa: F401

__all__ = [
    "DRIFT_COEFF",
    "FixedPoint",
    "CountChange",
    "BifurcationDiagram",
    "find_fixed_points",
    "trace_bifurcations",
    "sibling_split_time",
]

DRIFT_COEFF = 0.5  # the variance-preserving drift's coefficient
GRID_NODES = 256  # nodes of each level's sign-change grid
RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FixedPoint:
    """A root of the drift residual at one noise level.

    ``x`` is a grid node where ``g`` is exactly zero, or the end with the
    smaller ``|g|`` of a bracket over which ``g`` changes sign.  A bracket is
    finished in one of three ways, each a certificate: ``g`` is exactly zero
    at an end; ``|g| < RESIDUAL_TOL`` at an end whose Newton step is below
    float resolution at unit scale; or the bracket is narrower than ``eps``
    or down to adjacent floats, so a root lies within ``eps max(1, |x|)`` of
    ``x``.  ``stable`` is the sign of the residual slope: positive slope
    means the descent dynamics ``x' = -g(x)`` contracts onto the root.
    """

    x: float
    alpha_bar: float
    stable: bool


@dataclass(frozen=True)
class CountChange:
    """A bracket of adjacent steps across which the root count changes."""

    t_before: int
    t_after: int
    s: float
    count_before: int
    count_after: int


@dataclass(frozen=True, eq=False)
class BifurcationDiagram:
    """Fixed points per swept noise level plus the detected count changes."""

    steps: np.ndarray
    s: np.ndarray
    alpha_bars: np.ndarray
    points: tuple[tuple[FixedPoint, ...], ...]
    critical: tuple[CountChange, ...]


def _drift_terms(params, levels, x):
    """``(g, g')`` at ``x`` from one kernel pass, each point at its column ``levels`` of
    the sweep's kernel table ``params``."""
    s, ds = _score_and_slope(_gather(params, levels, x), x)
    return DRIFT_COEFF * x - s, DRIFT_COEFF - ds


def _bracketed_roots(params, level, lo, hi, g_lo, g_hi):
    """One root per sign-change bracket ``[lo, hi]``.

    Bracket ``i`` belongs to the level ``level[i]`` of the sweep's kernel
    ``params`` (see :func:`_drift_terms`); each iteration evaluates only the
    open brackets, narrowing the arrays in place.  A Newton target on an end
    ``a``/``b`` or at most ``tol = 2 eps max(1, |a|, |b|)`` past it moves
    ``tol`` inside, so iterates nearing a root from one side close the far
    end too.  The step is taken when it lands strictly inside and is at most
    half the step before last, a bisection otherwise (always for a NaN or
    infinite target).  The first midpoint narrows every bracket before any
    step, so no later bisection lands on it.  A bracket is finished when it
    is narrower than ``eps`` or down to adjacent floats, when ``g`` vanishes
    at the iterate, or when its residual is below ``RESIDUAL_TOL`` and its
    Newton correction below float resolution at unit scale.  Whichever end
    has the smaller ``|g|`` is reported: near razor-thin roots the residual
    is a step function of ``x`` at float resolution, so either end may be
    the better one.
    """
    x = 0.5 * (lo + hi)
    gx, gpx = _drift_terms(params, level, x)
    step = 0.5 * (hi - lo)
    step_before = hi - lo
    active = np.arange(lo.size)
    while True:
        left = np.sign(gx) == np.sign(g_lo[active])
        lo[active] = np.where(left, x, lo[active])
        g_lo[active] = np.where(left, gx, g_lo[active])
        hi[active] = np.where(left, hi[active], x)
        g_hi[active] = np.where(left, g_hi[active], gx)
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - gx / gpx
        converged = ((np.abs(gx) < RESIDUAL_TOL)
                     & (np.abs(newton - x) <= _EPS * np.maximum(1.0, np.abs(x))))
        # The width test ends roots near the origin, where g is rounding noise.
        done = (gx == 0.0) | converged | (b - a < _EPS) | ~((a < mid) & (mid < b))
        if done.all():
            break
        keep = ~done
        tol = 2.0 * _EPS * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        newton = np.where((a - tol <= newton) & (newton <= a), a + tol,
                          np.where((b <= newton) & (newton <= b + tol), b - tol, newton))
        use_newton = (a < newton) & (newton < b) & (np.abs(newton - x) <= 0.5 * step_before)
        active = active[keep]
        x_new = np.where(use_newton, newton, mid)[keep]
        step_before = step[keep]
        step = np.abs(x_new - x[keep])
        x = x_new
        gx, gpx = _drift_terms(params, level[active], x)
    return np.where(np.abs(g_hi) < np.abs(g_lo), hi, lo)


def _level_table(mixture, alpha_bars, steps=None):
    """Per level of ``alpha_bars``, a column: kernel table, search box, ``alpha_bars``, namer."""
    [params] = _kernel_tables(mixture, alpha_bars, range(mixture.num_components))
    mu, sd = params[0], np.sqrt(params[1])
    # Roots live in the convex hull of the origin and the diffused means; a
    # 4-sigma margin keeps the hull comfortably interior.  Every diffused sd
    # is positive, so the box is never empty.
    return (params, np.minimum(0.0, np.min(mu - 4.0 * sd, axis=0)),
            np.maximum(0.0, np.max(mu + 4.0 * sd, axis=0)), alpha_bars, _level_namer(alpha_bars, steps))


def _scan_levels(table, cols):
    """The sign-change brackets ``[level, lo, hi, g_lo, g_hi]`` and zero nodes
    ``[level, x]`` of the grids of the columns ``cols`` of a :func:`_level_table`, one kernel
    call per chunk of ``CHUNK_TERMS`` terms.  A non-finite grid residual raises, naming its level."""
    params, lo_box, hi_box, _, where = table
    per_chunk = max(1, CHUNK_TERMS // (GRID_NODES * len(params[0])))
    brackets, zeros = [], []
    for c0 in range(0, len(cols), per_chunk):
        chunk = cols[c0:c0 + per_chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(lo_box[chunk], hi_box[chunk], GRID_NODES, axis=1)
            g_grid = _drift_terms(params, chunk[:, None], grid)[0]
        if not np.isfinite(g_grid).all():
            l = chunk[int(np.argmin(np.isfinite(g_grid).all(axis=1)))]
            raise FloatingPointError(
                f"{where(l)}: the drift residual is not finite on the search box "
                f"({float(lo_box[l])!r}, {float(hi_box[l])!r})")
        signs = np.sign(g_grid)
        row, cell = np.nonzero(signs[:, 1:] * signs[:, :-1] < 0)
        brackets.append((chunk[row], grid[row, cell], grid[row, cell + 1],
                         g_grid[row, cell], g_grid[row, cell + 1]))
        row, node = np.nonzero(g_grid == 0.0)
        zeros.append((chunk[row], grid[row, node]))
    return [np.concatenate(a) for a in zip(*brackets)], [np.concatenate(a) for a in zip(*zeros)]


def _provisional_counts(scan, size):
    """Each column's brackets plus zero nodes: its root count unless two brackets end on one root."""
    return np.bincount(scan[0][0], minlength=size) + np.bincount(scan[1][0], minlength=size)


def _solve_levels(table, cols, scan):
    """The fixed points at each column ``cols`` of ``table`` from their ``scan``: one
    Newton-bisection and one classifying pass, each in chunks of ``CHUNK_TERMS`` terms."""
    params, per_solve = table[0], max(1, CHUNK_TERMS // len(table[0][0]))
    brackets, (level, x) = scan  # the zero grid nodes, then the bracket roots
    roots = [x] + [_bracketed_roots(params, *(a[b0:b0 + per_solve] for a in brackets))
                   for b0 in range(0, brackets[0].size, per_solve)]
    level, x = np.concatenate([level, brackets[0]]), np.concatenate(roots)

    # Per level, the sorted distinct roots; a root two brackets end on is
    # reported once.
    order = np.lexsort((x, level))
    level, x = level[order], x[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = (level[1:] != level[:-1]) | (x[1:] != x[:-1])
    level, x = level[first], x[first]
    slopes = [s for r in range(0, x.size, per_solve)
              for s in _drift_terms(params, level[r:r + per_solve], x[r:r + per_solve])[1].tolist()]
    x = x.tolist()
    begins, ends = (np.searchsorted(level, cols, side=side).tolist() for side in ("left", "right"))
    return [tuple(FixedPoint(x=r + 0.0, alpha_bar=ab, stable=slope > 0.0)
                  for r, slope in zip(x[begin:end], slopes[begin:end]))
            for ab, begin, end in zip(table[3][cols].tolist(), begins, ends)]


def _solve_columns(table, cols):
    """The fixed points at each column ``cols`` of ``table``: one scan, one solve."""
    return _solve_levels(table, cols, _scan_levels(table, cols))


def find_fixed_points(mixture: MixtureModel, alpha_bar: float) -> tuple[FixedPoint, ...]:
    """Locate every root of the drift residual inside the search box.

    Evaluates the residual on ``GRID_NODES`` evenly spaced nodes, reports nodes
    where it is exactly zero, and runs one safeguarded Newton-bisection per
    sign-change cell, so each bracket yields one root (a root two brackets
    end on is reported once); stability is classified from the residual
    slope.  The result is never empty; a residual that is not finite on the
    grid raises ``FloatingPointError``.  A cell holding an even number of
    roots shows no sign change; the grid must be fine enough that roots are
    at least one cell apart.  The box spans the origin and every diffused
    mean with a 4-sigma margin.
    """
    table = _level_table(mixture, np.array([alpha_bar], dtype=np.float64))
    return _solve_columns(table, np.arange(1))[0]


def _schedule_table(mixture, schedule):
    """The :func:`_level_table` of every step of ``schedule``, step ``t`` in column ``t - 1``."""
    return _level_table(mixture, schedule.alpha_bars, range(1, schedule.num_steps + 1))


def _bisect_changes(table, brackets, count, solved):
    """Narrow each bracket ``(t_lo, c_lo, t_hi, c_hi)`` to adjacent steps.

    ``count(t, points)`` is the quantity whose change a bracket holds, ``c_lo``
    and ``c_hi`` its values at the bracket's ends.  One more batch solves the
    steps inside a bracket that ``solved`` (fixed points by step) lacks, from
    the :func:`_schedule_table` ``table``; the bisection replays over them: a
    midpoint whose count equals ``c_lo`` becomes its bracket's low end, any
    other its high end.
    """
    missing = sorted({t for t_lo, _, t_hi, _ in brackets for t in range(t_lo + 1, t_hi)} - solved.keys())
    if missing:
        solved = {**solved, **dict(zip(missing, _solve_columns(table, np.array(missing) - 1)))}
    narrowed = []
    for t_lo, c_lo, t_hi, c_hi in brackets:
        while t_hi - t_lo > 1:
            t = (t_lo + t_hi) // 2
            c = count(t, solved[t])
            t_lo, c_lo, t_hi, c_hi = (t, c, t_hi, c_hi) if c == c_lo else (t_lo, c_lo, t, c)
        narrowed.append((t_lo, c_lo, t_hi, c_hi))
    return narrowed


def trace_bifurcations(mixture: MixtureModel, schedule: NoiseSchedule,
                       stride: int = 10) -> BifurcationDiagram:
    """Sweep the schedule, collect fixed points per level, locate count changes.

    Count changes between strided levels are refined by bisection on the step
    index down to adjacent steps, i.e. to a normalized-time resolution of
    ``1/T``; the reported critical ``s`` is the bracket midpoint.  One change
    is recorded per strided interval, so shrink the stride to resolve events
    that cluster closer than it.  One solve takes the strided steps and the
    inner steps of every interval whose provisional count (brackets plus zero
    nodes) changes; an interval whose exact count changes while its
    provisional one does not costs one more batch, so no event moves.
    """
    strided = _strided_steps(schedule, stride)
    steps = strided.tolist()
    table = _schedule_table(mixture, schedule)
    cols = strided - 1
    scan = _scan_levels(table, cols)
    counts = _provisional_counts(scan, schedule.num_steps)[cols].tolist()
    inner = np.array([t - 1 for a, b, ca, cb in zip(steps, steps[1:], counts, counts[1:]) if ca != cb
                      for t in range(a + 1, b)], dtype=np.int64)
    if inner.size:
        more = _scan_levels(table, inner)
        scan = [[np.concatenate(pair) for pair in zip(*parts)] for parts in zip(scan, more)]
        cols = np.concatenate([cols, inner])
    solved = dict(zip((cols + 1).tolist(), _solve_levels(table, cols, scan)))
    levels = [solved[t] for t in steps]
    brackets = [(steps[i - 1], len(levels[i - 1]), steps[i], len(levels[i]))
                for i in range(1, len(levels)) if len(levels[i]) != len(levels[i - 1])]
    changes = _bisect_changes(table, brackets, lambda t, points: len(points), solved)
    return BifurcationDiagram(
        steps=strided,
        s=strided / schedule.num_steps,
        alpha_bars=schedule.alpha_bars[strided - 1],
        points=tuple(levels),
        critical=tuple(CountChange(t_before=t_lo, t_after=t_hi,
                                   s=(t_lo + t_hi) / (2.0 * schedule.num_steps),
                                   count_before=c_lo, count_after=c_hi)
                       for t_lo, c_lo, t_hi, c_hi in changes),
    )


def sibling_split_time(mixture: MixtureModel, schedule: NoiseSchedule,
                       i: int, j: int) -> float | None:
    """Normalized time where components ``i`` and ``j`` lose separate branches.

    Counts the stable fixed points inside the pair's bracket, the span of the
    two means widened by 0.3 of their gap on each side and scaled by
    ``sqrt(alpha_bar)``, at every 20th step.  Returns the midpoint of the
    adjacent-step interval over which the count first drops below two in
    forward time, bisected within the first 20-step interval that ends
    below two.  Returns ``None`` if the pair has no two branches at the
    first probe, or keeps them at every probe: the schedule ends before they
    merge.
    """
    if not (0 <= i < mixture.num_components and 0 <= j < mixture.num_components) or i == j:
        raise ParameterError(f"need two distinct component indices, got ({i}, {j})")
    mu_i, mu_j = sorted((mixture.means[i], mixture.means[j]))
    pad = 0.3 * (mu_j - mu_i)

    def separate(t, points):
        root = np.sqrt(schedule.alpha_bar(t))
        lo, hi = root * (mu_i - pad), root * (mu_j + pad)
        return sum(1 for p in points if p.stable and lo <= p.x <= hi) >= 2

    table = _schedule_table(mixture, schedule)
    probes = _strided_steps(schedule, 20)
    flags = [separate(t, points) for t, points in zip(probes.tolist(), _solve_columns(table, probes - 1))]
    if not flags[0] or all(flags):
        return None
    k = flags.index(False)
    [(t_lo, _, t_hi, _)] = _bisect_changes(table, [(int(probes[k - 1]), True, int(probes[k]), False)],
                                           separate, {})
    return (t_lo + t_hi) / (2.0 * schedule.num_steps)
