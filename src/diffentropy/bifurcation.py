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

Each iteration takes ``g`` and its slope ``g'`` from one kernel pass.  A sweep
solves its levels as a batch, in chunks of ``CHUNK_TERMS`` kernel terms (grid
nodes x components): one kernel call evaluates the grids of a chunk's levels,
and the brackets of all of them share one Newton-bisection, every bracket at
its own level.  Every root is bitwise the one that solving its level alone
gives; :func:`find_fixed_points` is that one-level case of the same path.
Count changes between swept levels are bisected down to adjacent steps in
lockstep: each round solves the midpoints of all open brackets as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, TimeGrid, _level_namer
from .mixture import CHUNK_TERMS, _log_weights, _score_and_slope, diffused_params
# Unused here, but perfbench/tracing.py wraps them under these names.
from .mixture import score, score_derivative  # noqa: F401

__all__ = [
    "DRIFT_COEFF",
    "RESIDUAL_TOL",
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
    float resolution at unit scale; or the bracket has collapsed to two
    adjacent floats, so a root lies within one ulp of ``x``.  ``stable`` is
    the sign of the residual slope: positive slope means the descent
    dynamics ``x' = -g(x)`` contracts onto the root.
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


@dataclass(frozen=True)
class BifurcationDiagram:
    """Fixed points per swept noise level plus the detected count changes."""

    steps: np.ndarray
    s: np.ndarray
    alpha_bars: np.ndarray
    points: tuple[tuple[FixedPoint, ...], ...]
    critical: tuple[CountChange, ...]


def _drift_terms(params, levels, x):
    """``(g, g')`` at ``x`` from one kernel pass, each point at its column ``levels`` of
    the chunk's ``params``.  ``np.take`` gathers row-major, as one level's own are:
    numpy sums a column-major gather over the components in another order."""
    mu, var, log_w = params
    s, ds = _score_and_slope((np.take(mu, levels, axis=1), np.take(var, levels, axis=1),
                              log_w.reshape((-1,) + (1,) * x.ndim)), x)
    return DRIFT_COEFF * x - s, DRIFT_COEFF - ds


def _bracketed_roots(params, level, lo, hi, g_lo, g_hi):
    """One root per sign-change bracket ``[lo, hi]``.

    Bracket ``i`` belongs to the level ``level[i]`` of the chunk's kernel
    ``params`` (see :func:`_drift_terms`), and each iteration evaluates only
    the open brackets.  The bracket arrays are narrowed in place.  A Newton
    step is taken when it lands strictly inside the bracket and is at most
    half the step before last, a bisection otherwise.  The first midpoint
    narrows every bracket before any step is taken, so a later bisection
    never lands on it again.  A bracket is finished when it
    collapses to adjacent floats, when ``g`` vanishes at the iterate, or when
    the iterate's residual is below ``RESIDUAL_TOL`` and its Newton correction
    below float resolution at unit scale.  The iterate is then one of the
    bracket ends, and whichever end has the smaller ``|g|`` is reported: near
    razor-thin roots the residual is a step function of ``x`` at float
    resolution, so either end may be the better one.
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
        # Close to a root near the origin the computed residual is rounding
        # noise over a span of many floats; the Newton test ends it there.
        converged = ((np.abs(gx) < RESIDUAL_TOL)
                     & (np.abs(newton - x) <= _EPS * np.maximum(1.0, np.abs(x))))
        done = (gx == 0.0) | converged | ~((a < mid) & (mid < b))
        if done.all():
            break
        keep = ~done
        use_newton = (a < newton) & (newton < b) & (np.abs(newton - x) <= 0.5 * step_before)
        active = active[keep]
        x_new = np.where(use_newton, newton, mid)[keep]
        step_before = step[keep]
        step = np.abs(x_new - x[keep])
        x = x_new
        gx, gpx = _drift_terms(params, level[active], x)
    return np.where(np.abs(g_hi) < np.abs(g_lo), hi, lo)


def _fixed_points_at_levels(mixture: MixtureModel, alpha_bars: np.ndarray, steps=None
                            ) -> list[tuple[FixedPoint, ...]]:
    """The fixed points at each level of ``alpha_bars``: the one solver path.

    Levels are solved in chunks of ``CHUNK_TERMS`` kernel terms (grid nodes x
    components).  Per chunk, one kernel call evaluates every level's grid,
    the sign-change brackets of all its levels share one Newton-bisection,
    and one more call classifies the roots.  Each level's nodes, brackets and
    roots are bitwise those of solving it alone.  A level whose grid residual
    is not finite (its search box overflows, say) raises
    ``FloatingPointError`` that names its step if ``steps`` are given.
    """
    where = _level_namer(alpha_bars, steps)
    log_w = _log_weights(mixture, range(mixture.num_components))
    per_chunk = max(1, CHUNK_TERMS // (GRID_NODES * mixture.num_components))
    found = []
    for c0 in range(0, len(alpha_bars), per_chunk):
        ab = alpha_bars[c0:c0 + per_chunk]
        # Roots live in the convex hull of the origin and the diffused
        # means; a 4-sigma margin keeps the hull comfortably interior.
        # Every diffused sd is positive, so the box is never empty.
        mu, var = diffused_params(mixture, ab)
        params = (mu, var, log_w)
        sd = np.sqrt(var)
        lo_box = np.minimum(0.0, np.min(mu - 4.0 * sd, axis=0))
        hi_box = np.maximum(0.0, np.max(mu + 4.0 * sd, axis=0))

        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(lo_box, hi_box, GRID_NODES, axis=1)
            g_grid = _drift_terms(params, np.arange(len(ab))[:, None], grid)[0]
        if not np.isfinite(g_grid).all():
            l = int(np.argmin(np.isfinite(g_grid).all(axis=1)))
            raise FloatingPointError(
                f"{where(c0 + l)}: the drift residual is not finite on the search box "
                f"({float(lo_box[l])!r}, {float(hi_box[l])!r})")
        signs = np.sign(g_grid)
        level, cell = np.nonzero(signs[:, 1:] * signs[:, :-1] < 0)
        x = _bracketed_roots(params, level, grid[level, cell], grid[level, cell + 1],
                             g_grid[level, cell], g_grid[level, cell + 1])
        zeros = np.nonzero(g_grid == 0.0)
        level = np.concatenate([zeros[0], level])
        x = np.concatenate([grid[zeros], x])

        # Per level, the sorted distinct roots; a root two brackets end on is
        # reported once.
        order = np.lexsort((x, level))
        level, x = level[order], x[order]
        first = np.ones(x.size, dtype=bool)
        first[1:] = (level[1:] != level[:-1]) | (x[1:] != x[:-1])
        level, x = level[first], x[first]
        slopes = _drift_terms(params, level, x)[1]

        ends = np.searchsorted(level, np.arange(len(ab)), side="right")
        begin = 0
        for l, end in enumerate(ends):
            found.append(tuple(FixedPoint(x=float(r) + 0.0, alpha_bar=float(ab[l]),
                                          stable=bool(slope > 0.0))
                               for r, slope in zip(x[begin:end], slopes[begin:end])))
            begin = end
    return found


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
    return _fixed_points_at_levels(mixture, np.array([alpha_bar], dtype=np.float64))[0]


def _solve_steps(mixture, schedule, steps):
    """The fixed points at each of ``steps``, solved as one batch.

    A level whose residual is not finite raises an error that names its step.
    """
    return _fixed_points_at_levels(mixture, np.array([schedule.alpha_bar(t) for t in steps]),
                                   steps=steps)


def _bisect_changes(mixture, schedule, brackets, count):
    """Narrow each bracket ``(t_lo, c_lo, t_hi, c_hi)`` to adjacent steps, in lockstep.

    ``count(t, points)`` is the quantity whose change a bracket holds, ``c_lo``
    and ``c_hi`` its values at the bracket's ends.  Each round solves the
    midpoints of all brackets wider than one step as one batch; a midpoint
    whose count equals ``c_lo`` becomes its bracket's low end, any other its
    high end.  Brackets with disjoint interiors never solve a step twice.
    """
    brackets = list(brackets)
    while True:
        open_ = [k for k, (t_lo, _, t_hi, _) in enumerate(brackets) if t_hi - t_lo > 1]
        if not open_:
            return brackets
        mids = [(brackets[k][0] + brackets[k][2]) // 2 for k in open_]
        for k, t, points in zip(open_, mids, _solve_steps(mixture, schedule, mids)):
            t_lo, c_lo, t_hi, c_hi = brackets[k]
            c = count(t, points)
            brackets[k] = (t, c, t_hi, c_hi) if c == c_lo else (t_lo, c_lo, t, c)


def trace_bifurcations(mixture: MixtureModel, schedule: NoiseSchedule,
                       stride: int = 10) -> BifurcationDiagram:
    """Sweep the schedule, collect fixed points per level, locate count changes.

    Count changes between strided levels are refined by bisection on the step
    index down to adjacent steps, i.e. to a normalized-time resolution of
    ``1/T``; the reported critical ``s`` is the bracket midpoint.  One change
    is recorded per strided interval, so shrink the stride to resolve events
    that cluster closer than it.
    """
    times = TimeGrid.strided(schedule, stride)
    steps = [int(t) for t in times.steps]
    levels = _solve_steps(mixture, schedule, steps)
    brackets = [(steps[i - 1], len(levels[i - 1]), steps[i], len(levels[i]))
                for i in range(1, len(levels)) if len(levels[i]) != len(levels[i - 1])]
    changes = _bisect_changes(mixture, schedule, brackets, lambda t, points: len(points))
    return BifurcationDiagram(
        steps=times.steps,
        s=times.s,
        alpha_bars=np.asarray([schedule.alpha_bar(t) for t in steps]),
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
    below two, or ``None`` if the pair never has two branches on this
    schedule.
    """
    if not (0 <= i < mixture.num_components and 0 <= j < mixture.num_components) or i == j:
        raise ParameterError(f"need two distinct component indices, got ({i}, {j})")
    mu_i, mu_j = sorted((mixture.means[i], mixture.means[j]))
    pad = 0.3 * (mu_j - mu_i)

    def separate(t, points):
        root = np.sqrt(schedule.alpha_bar(t))
        lo, hi = root * (mu_i - pad), root * (mu_j + pad)
        return sum(1 for p in points if p.stable and lo <= p.x <= hi) >= 2

    probes = [int(t) for t in TimeGrid.strided(schedule, 20).steps]
    flags = [separate(t, points) for t, points in zip(probes, _solve_steps(mixture, schedule, probes))]
    if not flags[0] or all(flags):
        return None
    k = flags.index(False)
    [(t_lo, _, t_hi, _)] = _bisect_changes(mixture, schedule, [(probes[k - 1], True, probes[k], False)],
                                           separate)
    return (t_lo + t_hi) / (2.0 * schedule.num_steps)
