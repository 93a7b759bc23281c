"""Fixed points of the reverse drift and their bifurcations across noise.

The drift residual is ``g(x) = c * x - d/dx log p_t(x)`` with ``c = 0.5`` by
default; its roots are the attractors/repellers organizing the generative
dynamics, and the noise levels where the root count changes are the
bifurcations that split one branch of generation into several.

Roots are located from the sign changes of ``g`` on a uniform grid over the
search box.  Each sign-change cell brackets one root, which a safeguarded
Newton-bisection iteration (``rtsafe``, Numerical Recipes section 9.4) narrows
down to float resolution: the Newton step is taken when it stays inside the
bracket and at most halves the step before last, a bisection otherwise.  Grid
nodes where ``g`` is exactly zero are roots without a bracket.  At low noise
repelling roots live in posterior switch layers of width ``~ var /
separation`` that no reasonable grid hits, but the sign change across such a
layer still brackets them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import MixtureModel, NoiseSchedule, ParameterError, TimeGrid
from .mixture import diffused_params, score, score_derivative

__all__ = [
    "DEFAULT_DRIFT_COEFF",
    "RESIDUAL_TOL",
    "FixedPoint",
    "CountChange",
    "BifurcationDiagram",
    "drift_residual",
    "drift_residual_derivative",
    "find_fixed_points",
    "trace_bifurcations",
    "sibling_split_time",
]

DEFAULT_DRIFT_COEFF = 0.5
RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


def drift_residual(mixture: MixtureModel, alpha_bar: float, x,
                   drift_coeff: float = DEFAULT_DRIFT_COEFF):
    """``drift_coeff * x - score(x)`` at the given noise level."""
    return drift_coeff * np.asarray(x, dtype=np.float64) - score(mixture, alpha_bar, x)


def drift_residual_derivative(mixture: MixtureModel, alpha_bar: float, x,
                              drift_coeff: float = DEFAULT_DRIFT_COEFF):
    return drift_coeff - score_derivative(mixture, alpha_bar, x)


@dataclass(frozen=True)
class FixedPoint:
    """A converged root of the drift residual at one noise level.

    ``stable`` is the sign of the residual slope: positive slope means the
    descent dynamics ``x' = -g(x)`` contracts onto the root.
    """

    x: float
    alpha_bar: float
    residual: float
    stable: bool

    def __post_init__(self):
        if not abs(self.residual) < RESIDUAL_TOL:
            raise ParameterError(
                f"fixed point at x={self.x!r} has residual {self.residual!r} >= {RESIDUAL_TOL}"
            )


@dataclass(frozen=True)
class CountChange:
    """A bracket of adjacent steps across which the root count changes."""

    t_before: int
    t_after: int
    s: float
    alpha_bar_before: float
    alpha_bar_after: float
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

    @property
    def counts(self) -> np.ndarray:
        return np.asarray([len(p) for p in self.points])


def _default_box(mixture: MixtureModel, alpha_bar: float) -> tuple[float, float]:
    # Roots live in the convex hull of the origin and the diffused means; a
    # 4-sigma margin keeps the hull comfortably interior.
    mu, var = diffused_params(mixture, alpha_bar)
    sd = np.sqrt(var)
    lo = min(0.0, float(np.min(mu - 4.0 * sd)))
    hi = max(0.0, float(np.max(mu + 4.0 * sd)))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def _bracketed_roots(g, gp, lo, hi, g_lo, g_hi, residual_tol):
    """One root per sign-change bracket ``[lo, hi]``, with its residual.

    The bracket arrays are narrowed in place.  A Newton step is taken when it
    lands strictly inside the bracket and is at most half the step before
    last, a bisection otherwise.  The first midpoint narrows every bracket
    before any step is taken, so a later bisection never lands on it again.  A bracket is finished when it
    collapses to adjacent floats, when ``g`` vanishes at the iterate, or when
    the iterate's residual is below ``residual_tol`` and its Newton correction
    below float resolution at unit scale.  The iterate is then one of the
    bracket ends, and whichever end has the smaller ``|g|`` is reported: near
    razor-thin roots the residual is a step function of ``x`` at float
    resolution, so either end may be the better one.
    """
    x = 0.5 * (lo + hi)
    gx = g(x)
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
            newton = x - gx / gp(x)
        # Close to a root near the origin the computed residual is rounding
        # noise over a span of many floats; the Newton test ends it there.
        converged = ((np.abs(gx) < residual_tol)
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
        gx = g(x)
    better_hi = np.abs(g_hi) < np.abs(g_lo)
    return np.where(better_hi, hi, lo), np.where(better_hi, g_hi, g_lo)


def find_fixed_points(mixture: MixtureModel, alpha_bar: float,
                      search_box: tuple[float, float] | None = None,
                      n_starts: int = 256,
                      drift_coeff: float = DEFAULT_DRIFT_COEFF,
                      residual_tol: float = RESIDUAL_TOL) -> tuple[FixedPoint, ...]:
    """Locate every root of the drift residual inside the search box.

    Evaluates the residual on ``n_starts`` evenly spaced nodes, reports nodes
    where it is exactly zero, and runs one safeguarded Newton-bisection per
    sign-change cell, so each bracket yields one root.  Roots whose residual
    is below ``residual_tol`` are kept (a root two brackets end on is
    reported once), and stability is classified from the residual slope.  An
    empty result triggers a warning, not an error.  A cell holding an even
    number of roots shows no sign change; the grid must be fine enough that
    roots are at least one cell apart.

    Very close to the clean end (variance below ~1e-3 for unit-scale
    mixtures), repelling roots that do not fall on an exactly representable
    point live on residual steps larger than ``residual_tol`` in float64 and
    are dropped; attracting roots are unaffected.
    """
    if search_box is None:
        search_box = _default_box(mixture, alpha_bar)
    lo_box, hi_box = float(search_box[0]), float(search_box[1])
    if not lo_box < hi_box:
        raise ParameterError(f"search box must satisfy lo < hi, got {search_box!r}")
    if n_starts < 2:
        raise ParameterError(f"n_starts must be >= 2, got {n_starts}")

    def g(x):
        return drift_residual(mixture, alpha_bar, x, drift_coeff)

    def gp(x):
        return drift_residual_derivative(mixture, alpha_bar, x, drift_coeff)

    # The FixedPoint contract caps the acceptance threshold.
    residual_tol = min(residual_tol, RESIDUAL_TOL)

    grid = np.linspace(lo_box, hi_box, n_starts)
    g_grid = np.asarray(g(grid))
    signs = np.sign(g_grid)
    cells = np.flatnonzero(signs[1:] * signs[:-1] < 0)
    x, residuals = _bracketed_roots(g, gp, grid[cells], grid[cells + 1],
                                    g_grid[cells], g_grid[cells + 1], residual_tol)
    zeros = g_grid == 0.0
    x = np.concatenate([grid[zeros], x])
    residuals = np.concatenate([g_grid[zeros], residuals])

    keep = np.abs(residuals) < residual_tol
    roots, first = np.unique(x[keep], return_index=True)
    residuals = residuals[keep][first]
    if roots.size == 0:
        warnings.warn(
            f"no drift fixed points converged at alpha_bar={alpha_bar!r} in {search_box!r}",
            RuntimeWarning,
        )
        return ()

    slopes = gp(roots)
    return tuple(FixedPoint(x=float(r) + 0.0, alpha_bar=float(alpha_bar),
                            residual=float(res), stable=bool(slope > 0.0))
                 for r, res, slope in zip(roots, residuals, slopes))


def _step_solver(mixture, schedule, drift_coeff, n_starts):
    """``solve(t)``: the fixed points at step ``t``, each step solved once."""
    cache: dict[int, tuple[FixedPoint, ...]] = {}

    def solve(t: int) -> tuple[FixedPoint, ...]:
        if t not in cache:
            try:
                cache[t] = find_fixed_points(mixture, schedule.alpha_bar(t),
                                             drift_coeff=drift_coeff, n_starts=n_starts)
            except Exception as err:
                raise type(err)(f"level t={t}: {err}") from err
        return cache[t]

    return solve


def _refine_change(t_lo, t_hi, count_fn) -> tuple[int, int]:
    """Shrink a count-change bracket to adjacent integer steps."""
    c_lo = count_fn(t_lo)
    while t_hi - t_lo > 1:
        mid = (t_lo + t_hi) // 2
        if count_fn(mid) == c_lo:
            t_lo = mid
        else:
            t_hi = mid
    return t_lo, t_hi


def trace_bifurcations(mixture: MixtureModel, schedule: NoiseSchedule, stride: int = 10,
                       drift_coeff: float = DEFAULT_DRIFT_COEFF,
                       n_starts: int = 256) -> BifurcationDiagram:
    """Sweep the schedule, collect fixed points per level, locate count changes.

    Count changes between strided levels are refined by bisection on the step
    index down to adjacent steps, i.e. to a normalized-time resolution of
    ``1/T``; the reported critical ``s`` is the bracket midpoint.  One change
    is recorded per strided interval, so shrink the stride to resolve events
    that cluster closer than it.
    """
    times = TimeGrid.strided(schedule, stride)
    solve = _step_solver(mixture, schedule, drift_coeff, n_starts)
    levels = [solve(int(t)) for t in times.steps]

    def count_fn(t):
        return len(solve(t))

    critical = []
    for i in range(1, len(levels)):
        if len(levels[i]) != len(levels[i - 1]):
            t_lo, t_hi = _refine_change(int(times.steps[i - 1]), int(times.steps[i]), count_fn)
            critical.append(CountChange(
                t_before=t_lo,
                t_after=t_hi,
                s=(t_lo + t_hi) / (2.0 * schedule.num_steps),
                alpha_bar_before=schedule.alpha_bar(t_lo),
                alpha_bar_after=schedule.alpha_bar(t_hi),
                count_before=count_fn(t_lo),
                count_after=count_fn(t_hi),
            ))

    alpha_bars = np.asarray([schedule.alpha_bar(int(t)) for t in times.steps])
    return BifurcationDiagram(
        steps=times.steps,
        s=times.s,
        alpha_bars=alpha_bars,
        points=tuple(levels),
        critical=tuple(critical),
    )


def sibling_split_time(mixture: MixtureModel, schedule: NoiseSchedule, i: int, j: int,
                       margin: float = 0.3, coarse_stride: int = 20,
                       drift_coeff: float = DEFAULT_DRIFT_COEFF,
                       n_starts: int = 256) -> float | None:
    """Normalized time where components ``i`` and ``j`` lose separate branches.

    Counts stable fixed points inside the pair's (noise-scaled) bracket and
    returns the midpoint of the adjacent-step interval over which the count
    first drops below two in forward time, or ``None`` if the pair never has
    two branches on this schedule.
    """
    if not (0 <= i < mixture.num_components and 0 <= j < mixture.num_components) or i == j:
        raise ParameterError(f"need two distinct component indices, got ({i}, {j})")
    mu_i, mu_j = sorted((mixture.means[i], mixture.means[j]))
    pad = margin * (mu_j - mu_i)

    solve = _step_solver(mixture, schedule, drift_coeff, n_starts)

    def count_fn(t):
        root = np.sqrt(schedule.alpha_bar(t))
        lo, hi = root * (mu_i - pad), root * (mu_j + pad)
        return sum(1 for p in solve(t) if p.stable and lo <= p.x <= hi)

    probes = list(range(1, schedule.num_steps + 1, coarse_stride))
    if probes[-1] != schedule.num_steps:
        probes.append(schedule.num_steps)
    prev_t = probes[0]
    prev_count = count_fn(prev_t)
    if prev_count < 2:
        return None
    for t in probes[1:]:
        count = count_fn(t)
        if count < 2:
            t_lo, t_hi = _refine_change(prev_t, t, count_fn)
            return (t_lo + t_hi) / (2.0 * schedule.num_steps)
        prev_t, prev_count = t, count
    return None
