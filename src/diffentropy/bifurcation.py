"""Fixed points of the reverse drift and their bifurcations across noise.

The drift residual is ``g(x) = c * x - d/dx log p_t(x)`` with ``c =
DRIFT_COEFF = 0.5``, the variance-preserving drift; its roots are the
attractors/repellers organizing the generative dynamics, and the noise levels
where the root count changes are the bifurcations that split one branch of
generation into several.

Roots are located from the sign changes of ``g`` on ``GRID_NODES`` (256) evenly spaced nodes
over a search box that spans the origin and every diffused mean with a 4-sigma margin.  Each
sign-change cell brackets one root, which a safeguarded Newton-bisection (``rtsafe``,
Numerical Recipes section 9.4) narrows down to float resolution; grid nodes where ``g`` is
exactly zero are roots without a bracket.  The sign change certifies a root however steep
``g`` is (low-noise repellers sit in posterior switch layers of width ``~ var / separation``).
Outside every diffused mean the score pulls inward, so ``g`` is negative at the box's low end
and positive at its high end, and every level has at least one root.  A cell holding an even
number of roots shows no sign change, except on a level whose slope bound proves ``g`` rising
(:func:`_proven_monotone`): it has one root, whose cell 32 nodes find.

A trace solves its strided steps and the midpoints its bisection reads in one Newton-bisection
(:func:`_bracketed_roots`), and every root is bitwise its level's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, _level_namer, _single_level, _strided_steps
from .mixture import CHUNK_TERMS, LOG_2PI, _gather, _kernel_tables, _score_and_slope
# Unused here, but perfbench/tracing.py wraps them under these names.
from .mixture import score, score_derivative  # noqa: F401

__all__ = [
    "DRIFT_COEFF",
    "CountChange",
    "BifurcationDiagram",
    "find_fixed_points",
    "trace_bifurcations",
    "sibling_split_time",
]

DRIFT_COEFF = 0.5  # the variance-preserving drift's coefficient
GRID_NODES = 256  # nodes of each level's sign-change grid
_STRIDE = int(GRID_NODES**0.5) + 1  # a proven level's coarse nodes: every 17th, 16 inside each cell
_COARSE = np.arange(0, GRID_NODES, _STRIDE)
RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


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
    """Fixed points per swept noise level plus the detected count changes.

    Level ``i`` of ``steps`` holds ``counts[i]`` roots, in increasing order, next in the flat arrays
    ``x`` and ``stable``: each level's slices are its :func:`find_fixed_points` pair."""

    steps: np.ndarray
    s: np.ndarray
    alpha_bars: np.ndarray
    counts: np.ndarray
    x: np.ndarray
    stable: np.ndarray
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


def _proven_monotone(table, cols):
    """Whether each column's computed ``g`` provably rises, finite, from node to node of its grid.

    ``g' = c + E_w[1/var] - Var_w(pull) >= m = c + min_k 1/var_k - R^2/4`` (Popoviciu); the
    pulls' spread ``R`` is convex, so largest at an end.  A computed ``g`` is within ``delta =
    16 eps (|c| X + (E + K) P)``: twice the rounding of log joints up to ``E`` (convex too) that
    the softmax passes to pulls up to ``P``.  Nodes lie within ``3.5 eps X`` of exact (``X`` the
    larger end), hence ``m (h - 8 eps X) > 2 delta``.  An overflowing spacing ``h`` is never
    proven: its nodes are not finite, and its full scan raises."""
    mu, var, lo, hi = table[0][0][:, cols], table[0][1][:, cols], table[1][cols], table[2][cols]
    with np.errstate(over="ignore", invalid="ignore"):
        pull = (mu - np.stack([lo, hi])[:, None]) / var  # (end, component, level)
        spread = (pull.max(axis=1) - pull.min(axis=1)).max(axis=0)
        slope = DRIFT_COEFF + (1.0 / var).min(axis=0) - 0.25 * spread**2
        joint = (np.abs(np.log(var)) + pull**2 * var).max(axis=(0, 1)) + LOG_2PI + abs(table[0][2]).max()
        big = np.maximum(-lo, hi)
        delta = 16.0 * _EPS * (abs(DRIFT_COEFF) * big + (joint + len(mu)) * np.abs(pull).max(axis=(0, 1)))
        h = (hi - lo) / (GRID_NODES - 1) - 8.0 * _EPS * big
        return np.isfinite(h) & (slope * h > 2.0 * delta)


def _grid_nodes(table, cols, index):
    """Nodes ``index`` of the grids of the columns ``cols``: ``np.linspace``'s, by its arithmetic."""
    lo, hi = table[1][cols, None], table[2][cols, None]
    return np.where(index == GRID_NODES - 1, hi, index * ((hi - lo) / (GRID_NODES - 1)) + lo)


def _sign_changes(levels, grid, g):
    """The sign-change cells ``[level, lo, hi, g_lo, g_hi]`` and zero nodes ``[level, x]`` of rows."""
    signs = np.sign(g)
    row, cell = np.nonzero(signs[:, 1:] * signs[:, :-1] < 0)
    brackets = (levels[row], grid[row, cell], grid[row, cell + 1], g[row, cell], g[row, cell + 1])
    row, node = np.nonzero(g == 0.0)
    return brackets, (levels[row], grid[row, node])


def _scan_levels(table, cols):
    """The sign-change brackets ``[level, lo, hi, g_lo, g_hi]`` and zero nodes ``[level, x]``.

    ``cols`` are columns of a :func:`_level_table`.  A :func:`_proven_monotone` one whose ``g``
    at nodes 0, 17, ..., 255 is finite and rises from negative to positive takes ``g`` at the 16
    nodes of its one sign-change cell: bitwise its full scan's result.  The rest scan their full
    grid; a non-finite ``g`` raises, naming its level.  A kernel call holds <= ``CHUNK_TERMS`` terms."""
    params, lo_box, hi_box, _, where = table
    proven = _proven_monotone(table, cols)
    fast, full, found = cols[proven], [cols[~proven]], []
    per_chunk = max(1, CHUNK_TERMS // (_COARSE.size * len(params[0])))
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, fast.size, per_chunk):
            chunk = fast[c0:c0 + per_chunk]
            coarse = _drift_terms(params, chunk[:, None], _grid_nodes(table, chunk, _COARSE))[0]
            end = np.clip(np.sum(coarse < 0, axis=1), 1, _COARSE.size - 1)  # the cell's end: first g >= 0
            nodes = _grid_nodes(table, chunk, _STRIDE * end[:, None] + np.arange(-_STRIDE, 1))
            ends = np.take_along_axis(coarse, np.stack([end - 1, end], axis=1), axis=1)
            inside = _drift_terms(params, chunk[:, None], nodes[:, 1:-1])[0]
            g = np.column_stack([ends[:, 0], inside, ends[:, 1]])
            ok = np.isfinite(np.hstack([coarse, g])).all(1) & (coarse[:, 0] < 0) & (coarse[:, -1] > 0)
            full.append(chunk[~ok])
            found.append(_sign_changes(chunk[ok], nodes[ok], g[ok]))
        full = np.concatenate(full)
        per_chunk = max(1, CHUNK_TERMS // (GRID_NODES * len(params[0])))
        for c0 in range(0, full.size, per_chunk):
            chunk = full[c0:c0 + per_chunk]
            grid = _grid_nodes(table, chunk, np.arange(GRID_NODES))
            g = _drift_terms(params, chunk[:, None], grid)[0]
            if not np.isfinite(g).all():
                l = chunk[int(np.argmin(np.isfinite(g).all(axis=1)))]
                raise FloatingPointError(
                    f"{where(l)}: the drift residual is not finite on the search box "
                    f"({float(lo_box[l])!r}, {float(hi_box[l])!r})")
            found.append(_sign_changes(chunk, grid, g))
    return [[np.concatenate(a) for a in zip(*part)] for part in zip(*found)]


def _provisional_counts(scan, size):
    """Each column's brackets plus zero nodes: its root count unless two brackets end on one root."""
    return np.bincount(scan[0][0], minlength=size) + np.bincount(scan[1][0], minlength=size)


def _solve_levels(table, cols, scan):
    """The roots ``(x, stable)`` at each column ``cols`` of ``table`` from their ``scan``: one
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
    level, x = level[first], x[first] + 0.0  # -0.0 becomes +0.0
    stable = np.concatenate([_drift_terms(params, level[r:r + per_solve], x[r:r + per_solve])[1] > 0.0
                             for r in range(0, x.size, per_solve)])
    begins, ends = (np.searchsorted(level, cols, side=side).tolist() for side in ("left", "right"))
    return [(x[begin:end], stable[begin:end]) for begin, end in zip(begins, ends)]


def _solve_columns(table, cols):
    """The roots ``(x, stable)`` at each column ``cols`` of ``table``: one scan, one solve."""
    return _solve_levels(table, cols, _scan_levels(table, cols))


def find_fixed_points(mixture: MixtureModel, alpha_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Every root ``x`` of the drift residual inside the search box, in increasing order, and
    its flag ``stable``.

    Evaluates the residual on ``GRID_NODES`` evenly spaced nodes, reports nodes
    where it is exactly zero, and runs one safeguarded Newton-bisection per
    sign-change cell, so each bracket yields one root (a root two brackets
    end on is reported once): the end with the smaller ``|g|``.  A bracket is
    finished in one of three ways, each a certificate: ``g`` is exactly zero
    at an end; ``|g| < RESIDUAL_TOL`` at an end whose Newton step is below
    float resolution at unit scale; or the bracket is narrower than ``eps``
    or down to adjacent floats, so a root lies within ``eps max(1, |x|)`` of
    ``x``.  ``stable`` is the sign of the residual slope: positive slope
    means the descent dynamics ``x' = -g(x)`` contracts onto the root.  The
    result is never empty; a residual that is not finite on the grid raises
    ``FloatingPointError``, and an ``alpha_bar`` that is not one level
    :class:`ParameterError`.  A cell holding an even number of roots shows no
    sign change; the grid must be fine enough that roots are at least one
    cell apart, unless a slope bound proves the level's residual rising.  The
    box spans the origin and every diffused mean with a 4-sigma margin.
    """
    return _solve_columns(_level_table(mixture, _single_level(alpha_bar)), np.arange(1))[0]


def _schedule_table(mixture, schedule):
    """The :func:`_level_table` of every step of ``schedule``, step ``t`` in column ``t - 1``."""
    return _level_table(mixture, schedule.alpha_bars, range(1, schedule.num_steps + 1))


def _bisect_changes(table, brackets, count, solved):
    """Narrow each bracket ``(t_lo, c_lo, t_hi, c_hi)`` to adjacent steps.

    ``count(t, roots)`` is the quantity whose change a bracket holds, ``c_lo`` and ``c_hi`` its
    values at the ends.  A midpoint whose count equals ``c_lo`` becomes the low end, any other
    the high end, while ``solved`` (roots ``(x, stable)`` by step) holds it; one more batch solves the
    steps inside the brackets left wider, from the :func:`_schedule_table` ``table``.
    """
    def narrow(t_lo, c_lo, t_hi, c_hi):
        while t_hi - t_lo > 1 and (t := (t_lo + t_hi) // 2) in solved:
            c = count(t, solved[t])
            t_lo, c_lo, t_hi, c_hi = (t, c, t_hi, c_hi) if c == c_lo else (t_lo, c_lo, t, c)
        return t_lo, c_lo, t_hi, c_hi
    brackets = [narrow(*bracket) for bracket in brackets]
    missing = sorted({t for t_lo, _, t_hi, _ in brackets for t in range(t_lo + 1, t_hi)} - solved.keys())
    if missing:
        solved = {**solved, **dict(zip(missing, _solve_columns(table, np.array(missing) - 1)))}
        brackets = [narrow(*bracket) for bracket in brackets]
    return brackets


def trace_bifurcations(mixture: MixtureModel, schedule: NoiseSchedule,
                       stride: int = 10) -> BifurcationDiagram:
    """Sweep the schedule, collect fixed points per level, locate count changes.

    Count changes between strided levels are refined by bisection on the step
    index down to adjacent steps, i.e. to a normalized-time resolution of
    ``1/T``; the reported critical ``s`` is the bracket midpoint.  One change
    is recorded per strided interval, so shrink the stride to resolve events
    that cluster closer than it.  One solve takes the strided steps and the
    midpoints that bisecting each interval whose provisional count (brackets
    plus zero nodes) changes reads; where an exact count differs from its
    provisional one, one more batch may follow, so no event moves.
    """
    strided = _strided_steps(schedule, stride)
    steps = strided.tolist()
    table = _schedule_table(mixture, schedule)
    cols = strided - 1
    scan = _scan_levels(table, cols)
    counts = _provisional_counts(scan, schedule.num_steps)
    changes = [(a, counts[a - 1], b, counts[b - 1]) for a, b in zip(steps, steps[1:])
               if counts[a - 1] != counts[b - 1]]
    inner = np.array([t - 1 for a, _, b, _ in changes for t in range(a + 1, b)], dtype=np.int64)
    if inner.size:
        more = _scan_levels(table, inner)
        counts = counts + _provisional_counts(more, schedule.num_steps)
        read = []  # the midpoints a bisection over every inner step's provisional count reads
        _bisect_changes(table, changes, lambda t, _: read.append(t - 1) or counts[t - 1],
                        dict.fromkeys((inner + 1).tolist()))
        wanted = np.bincount(read, minlength=schedule.num_steps) > 0
        scan = [[np.concatenate([a, b[wanted[part[0]]]]) for a, b in zip(old, part)]
                for old, part in zip(scan, more)]
        cols = np.concatenate([cols, inner[wanted[inner]]])
    solved = dict(zip((cols + 1).tolist(), _solve_levels(table, cols, scan)))
    x, stable = zip(*(solved[t] for t in steps))
    n = [len(roots) for roots in x]
    brackets = [(steps[i - 1], n[i - 1], steps[i], n[i]) for i in range(1, len(n)) if n[i] != n[i - 1]]
    changes = _bisect_changes(table, brackets, lambda t, roots: len(roots[0]), solved)
    return BifurcationDiagram(
        steps=strided,
        s=strided / schedule.num_steps,
        alpha_bars=schedule.alpha_bars[strided - 1],
        counts=np.array(n),
        x=np.concatenate(x),
        stable=np.concatenate(stable),
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

    def separate(t, roots):
        x, stable = roots
        root = np.sqrt(schedule.alpha_bar(t))
        lo, hi = root * (mu_i - pad), root * (mu_j + pad)
        return np.count_nonzero(stable & (lo <= x) & (x <= hi)) >= 2

    table = _schedule_table(mixture, schedule)
    probes = _strided_steps(schedule, 20)
    flags = [separate(t, roots) for t, roots in zip(probes.tolist(), _solve_columns(table, probes - 1))]
    if not flags[0] or all(flags):
        return None
    k = flags.index(False)
    [(t_lo, _, t_hi, _)] = _bisect_changes(table, [(int(probes[k - 1]), True, int(probes[k]), False)],
                                           separate, {})
    return (t_lo + t_hi) / (2.0 * schedule.num_steps)
