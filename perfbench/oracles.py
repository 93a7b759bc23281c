"""Independent correctness oracles for the three CLI jobs.

Nothing here imports ``diffentropy``: each oracle re-derives the expected
numbers from the JSON config with its own numpy code and checks the CSV text
the CLI wrote.  Every check returns a list of problems (empty when the output
is right) plus the accuracy figure the benchmark reports.

- Profile: the conditional entropy at every level from a dense midpoint grid
  local to the decision's union components (12 sd windows, cell width 1/32 of
  the narrowest sd in each window).  Far finer than the library's one global
  grid, so it exposes a grid that misses the components.
- Estimate: the Monte-Carlo series against the same reference entropy.
- Fixed points: the residual at each reported root (or, where the drift is
  too steep for float64 to resolve that residual, the Newton step to the
  exact root), the stability from an independent analytic slope, and a
  200 001-point sign scan whose -→+ crossings must match the stable-root
  count at every level.
"""

from __future__ import annotations

import math
import re

import numpy as np

LN2 = math.log(2.0)

H_TOL = 1e-9             # profile: max |H - reference| in bits
TRANSFER_TOL = 1e-12     # transfer_bits must equal prior - H_bits
ROOT_RESIDUAL_TOL = 1e-9  # |g(x*)| at a reported root ...
ROOT_STEP_TOL = 1e-14     # ... or |g / g'| over max(1, max |mu|), where g is steep
S_TOL = 1e-15            # normalized time s = t / T
AB_RTOL = 1e-12          # alpha_bar column against the oracle's schedule
SCAN_POINTS = 200_001    # odd, so a symmetric box has x = 0 on the grid
WINDOW_SD = 12.0         # reference window half-width in diffused sd
CELLS_PER_SD = 32


# -- config and CSV parsing -------------------------------------------------


def _mixture(config: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mix = config["mixture"]
    means = np.asarray(mix["means"], dtype=np.float64)
    k = means.size
    weights = np.asarray(mix.get("weights", [1.0 / k] * k), dtype=np.float64)
    variances = np.asarray(mix.get("variances", [0.0] * k), dtype=np.float64)
    return means, weights, variances


def alpha_bars(config: dict) -> np.ndarray:
    """``alpha_bar`` for steps 0..T (step 0 is the clean data, 1.0)."""
    sched = config["schedule"]
    betas = np.linspace(sched["beta_start"], sched["beta_end"], sched["num_steps"])
    return np.concatenate(([1.0], np.cumprod(1.0 - betas)))


def decisions(config: dict) -> list[tuple[str, list[int], list[int]]]:
    """(name, z0, z1) for each configured partition preset."""
    out = []
    for entry in config["partitions"]:
        if entry.get("preset") == "one-vs-one":
            z0, z1 = [entry["classes"][0]], [entry["classes"][1]]
        else:
            z0, z1 = list(entry["z0"]), list(entry["z1"])
        out.append((entry["name"], z0, z1))
    return out


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Comment lines (without ``# ``), header and data rows."""
    comments, rows, header = [], [], None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header or [], rows


def _columns(rows: list[list[str]], header: list[str], names: tuple[str, ...]) -> dict:
    idx = {name: header.index(name) for name in names}
    return {name: np.asarray([float(r[i]) for r in rows]) for name, i in idx.items()}


def _expected_steps(num_steps: int, stride: int) -> np.ndarray:
    steps = list(range(1, num_steps + 1, stride))
    if steps[-1] != num_steps:
        steps.append(num_steps)
    return np.asarray(steps)


# -- reference conditional entropy -------------------------------------------


def reference_entropy_bits(means, weights, variances, z0, z1, alpha_bar: float) -> float:
    """H(z | x_t) in bits by a midpoint grid over the union components only."""
    idx = np.asarray(list(z0) + list(z1))
    side0 = np.arange(idx.size) < len(z0)
    w = weights[idx]
    keep = w > 0.0
    idx, side0, w = idx[keep], side0[keep], w[keep]
    mu = math.sqrt(alpha_bar) * means[idx]
    var = alpha_bar * variances[idx] + (1.0 - alpha_bar)
    sd = np.sqrt(var)

    # Merge the per-component windows; each merged window gets its own cell width.
    order = np.argsort(mu - WINDOW_SD * sd)
    windows: list[list[float]] = []
    for k in order:
        lo, hi, width = mu[k] - WINDOW_SD * sd[k], mu[k] + WINDOW_SD * sd[k], sd[k] / CELLS_PER_SD
        if windows and lo <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], hi)
            windows[-1][2] = min(windows[-1][2], width)
        else:
            windows.append([lo, hi, width])

    # Log joint of (side, x): prior-weighted sub-mixture densities, i.e. the
    # component weights renormalized over the union.
    log_w = np.log(w / w.sum())
    total = 0.0
    for lo, hi, width in windows:
        n = int(math.ceil((hi - lo) / width))
        dx = (hi - lo) / n
        x = lo + (np.arange(n) + 0.5) * dx
        log_joint = log_w - 0.5 * (np.log(2.0 * np.pi * var) + (x[:, None] - mu) ** 2 / var)
        a = np.logaddexp.reduce(np.where(side0, log_joint, -np.inf), axis=1)
        b = np.logaddexp.reduce(np.where(side0, -np.inf, log_joint), axis=1)
        m = np.logaddexp(a, b)
        # p(x) * h2(P(z0|x)) = -(p0 log q0 + p1 log q1), all in log space.
        integrand = -(np.exp(a) * (a - m) + np.exp(b) * (b - m)) / LN2
        total += float(np.sum(integrand)) * dx
    return total


def reference_series(config: dict, z0, z1, steps) -> np.ndarray:
    means, weights, variances = _mixture(config)
    ab = alpha_bars(config)
    return np.asarray([reference_entropy_bits(means, weights, variances, z0, z1, ab[t])
                       for t in steps])


def _prior_entropy_bits(config: dict, z0, z1) -> float:
    _, weights, _ = _mixture(config)
    w0, w1 = weights[list(z0)].sum(), weights[list(z1)].sum()
    p = w0 / (w0 + w1)
    return float(-(p * math.log2(p) + (1 - p) * math.log2(1 - p))) if 0 < p < 1 else 0.0


def _gradient(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Second-order central differences inside, one-sided at the ends."""
    out = np.empty_like(f)
    if f.size < 2:
        out[:] = 0.0
        return out
    hl, hr = s[1:-1] - s[:-2], s[2:] - s[1:-1]
    out[1:-1] = (hl**2 * f[2:] - hr**2 * f[:-2] + (hr**2 - hl**2) * f[1:-1]) / (hl * hr * (hl + hr))
    out[0] = (f[1] - f[0]) / (s[1] - s[0])
    out[-1] = (f[-1] - f[-2]) / (s[-1] - s[-2])
    return out


# -- profile ----------------------------------------------------------------


def check_entropy_levels(h: np.ndarray, reference: np.ndarray, tol: float = H_TOL
                         ) -> tuple[list[str], float]:
    """Compare entropies level by level; the error is max |H - reference|."""
    if not np.all(np.isfinite(h)):
        return ["non-finite H"], math.inf
    err = np.abs(np.asarray(h) - reference)
    worst = float(np.max(err)) if err.size else 0.0
    if worst > tol:
        i = int(np.argmax(err))
        return [f"level {i}: H={h[i]!r} vs reference {reference[i]!r} (|err| {worst:.3g} > {tol})"], worst
    return [], worst


def check_profile(config: dict, stride: int, decision: tuple, text: str) -> tuple[list[str], float]:
    """Check one ``profile_<name>.csv``; returns (problems, max |H - reference|)."""
    name, z0, z1 = decision
    num_steps = config["schedule"]["num_steps"]
    _, header, rows = parse_csv(text)
    if header != ["t", "s", "H_bits", "dH_ds", "transfer_bits"]:
        return [f"{name}: unexpected header {header}"], math.inf
    steps = _expected_steps(num_steps, stride)
    cols = _columns(rows, header, tuple(header))
    if cols["t"].shape != steps.shape or np.any(cols["t"] != steps):
        return [f"{name}: steps differ from the stride-{stride} grid"], math.inf
    s = steps / float(num_steps)
    if np.max(np.abs(cols["s"] - s)) > S_TOL:
        return [f"{name}: s column is not t / T"], math.inf
    reference = reference_series(config, z0, z1, steps)
    problems, err = check_entropy_levels(cols["H_bits"], reference)
    problems = [f"{name}: {p}" for p in problems]
    prior = _prior_entropy_bits(config, z0, z1)
    if np.max(np.abs(cols["transfer_bits"] - (prior - cols["H_bits"]))) > TRANSFER_TOL:
        problems.append(f"{name}: transfer_bits != prior - H_bits")
    rate_tol = 4.0 * H_TOL / float(np.min(np.diff(s))) if s.size > 1 else H_TOL
    rate_err = np.max(np.abs(cols["dH_ds"] - _gradient(reference, s)))
    if rate_err > rate_tol:
        problems.append(f"{name}: dH_ds off the reference by {rate_err:.3g} > {rate_tol:.3g}")
    return problems, err


# -- estimate ---------------------------------------------------------------


def estimate_tolerance(n: int) -> float:
    """Max |H_mc - H| allowed over all steps for n trajectories per side.

    The entropy summand lies in [0, 1], so each branch mean has a standard
    error of at most 0.5 / sqrt(n); four of them bound the worst of the
    strongly correlated per-step errors.
    """
    return 4.0 * 0.5 / math.sqrt(n)


def check_estimate(config: dict, samples: int, seed: int, text: str) -> tuple[list[str], float]:
    """Check ``estimate.csv``; returns (problems, max |H_mc - reference| over t >= 1)."""
    (name, z0, z1), = decisions(config)
    num_steps = config["schedule"]["num_steps"]
    _, header, rows = parse_csv(text)
    expected = ["t", "s", "H_bits", "H_z0_mean", "H_z1_mean", "N_z0", "N_z1", "seed"]
    if header != expected:
        return [f"unexpected header {header}"], math.inf
    cols = _columns(rows, header, tuple(header))
    steps = np.arange(num_steps + 1)
    if cols["t"].shape != steps.shape or np.any(cols["t"] != steps):
        return ["steps are not 0..T"], math.inf
    problems = []
    if np.max(np.abs(cols["s"] - steps / float(num_steps))) > S_TOL:
        problems.append("s column is not t / T")
    if np.any(cols["N_z0"] != samples) or np.any(cols["N_z1"] != samples):
        problems.append(f"sample counts differ from {samples}")
    if np.any(cols["seed"] != seed):
        problems.append(f"seed column differs from {seed}")
    _, weights, _ = _mixture(config)
    prior = weights[z0].sum() / (weights[z0].sum() + weights[z1].sum())
    combined = -(prior * cols["H_z0_mean"] + (1.0 - prior) * cols["H_z1_mean"])
    if np.max(np.abs(combined - cols["H_bits"])) > 1e-12:
        problems.append("H_bits != -(prior h_z0 + (1 - prior) h_z1)")
    level_problems, err = check_entropy_levels(cols["H_bits"][1:],
                                               reference_series(config, z0, z1, steps[1:]),
                                               tol=estimate_tolerance(samples))
    problems += level_problems
    return problems, err


# -- fixed points -----------------------------------------------------------


def drift_and_slope(x, config: dict, alpha_bar: float, drift_coeff: float = 0.5,
                    slope: bool = True):
    """``g(x) = c x - d/dx log p_t(x)`` and (optionally) its slope.

    The score is the posterior-weighted mean of the per-component pulls
    ``(mu_k - x) / var_k``; its derivative is the weighted mean of
    ``pull^2 - 1/var_k`` minus the squared mean pull.  One component at a
    time keeps the 200k-point scan to a few array passes.
    """
    means, weights, variances = _mixture(config)
    keep = weights > 0.0
    mu = math.sqrt(alpha_bar) * means[keep]
    var = alpha_bar * variances[keep] + (1.0 - alpha_bar)
    log_c = np.log(weights[keep]) - 0.5 * np.log(var)
    x = np.asarray(x, dtype=np.float64)
    log_r = [log_c[k] - (0.5 / var[k]) * (mu[k] - x) ** 2 for k in range(mu.size)]
    peak = np.maximum.reduce(log_r)
    total, mean_pull, mean_sq = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k, r in enumerate(log_r):
        r = np.exp(r - peak)
        pull = (mu[k] - x) / var[k]
        total += r
        mean_pull += r * pull
        if slope:
            mean_sq += r * (pull * pull - 1.0 / var[k])
    mean_pull /= total
    g = drift_coeff * x - mean_pull
    if not slope:
        return g
    return g, drift_coeff - (mean_sq / total - mean_pull**2)


def scan_roots(config: dict, alpha_bar: float, drift_coeff: float = 0.5) -> tuple[int, int]:
    """(roots, stable roots) of g from its signs on a dense uniform grid.

    Every root of g is a weighted average of 0 and the diffused means, so the
    box spans their hull with a 1% margin.  Exact zeros of g are roots: a run
    of zeros between opposite signs is one crossing, between equal signs a
    touching root.  A stable root is a crossing from - to +.
    """
    means, _, _ = _mixture(config)
    mu = math.sqrt(alpha_bar) * means
    lo, hi = min(0.0, float(mu.min())), max(0.0, float(mu.max()))
    pad = 0.01 * (hi - lo) + 1e-6
    lo, hi = lo - pad, hi + pad
    x = lo + (hi - lo) * (np.arange(SCAN_POINTS) / (SCAN_POINTS - 1))
    g = drift_and_slope(x, config, alpha_bar, drift_coeff, slope=False)
    sign = np.sign(g)
    nonzero = np.flatnonzero(sign)
    sn = sign[nonzero]
    crossing = sn[1:] != sn[:-1]
    stable = int(np.sum(crossing & (sn[1:] > 0)))
    # Zeros between two nonzero samples of equal sign touch without crossing.
    touching = int(np.sum((np.diff(nonzero) > 1) & ~crossing))
    return int(np.sum(crossing)) + touching, stable


def root_accurate(g: float, slope: float, scale: float) -> bool:
    """Whether a reported root with residual ``g`` and slope ``slope`` is right.

    ``|g| < 1e-9`` is the test wherever float64 can resolve it.  Near the
    clean end a repelling root between far-apart components has slopes of
    ~1e8, so 1e-9 asks for a root within a few ulps, below the rounding of g
    itself (~1e-8 there: pulls of ~1e4 times log weights of ~5e3 times eps).
    There the root passes if the Newton step to the exact root,
    ``|g / g'|``, is below ``1e-14 * scale`` (scale = max(1, max |mu|)).
    """
    if abs(g) < ROOT_RESIDUAL_TOL:
        return True
    return slope != 0.0 and abs(g / slope) < ROOT_STEP_TOL * scale


_CRITICAL = re.compile(r"critical s=\S+ steps (\d+)->(\d+) ")


def check_fixed_points(config: dict, text: str) -> tuple[list[str], int]:
    """Check ``fixed_points.csv``; returns (problems, scan roots - reported roots)."""
    num_steps = config["schedule"]["num_steps"]
    drift_coeff = float(config.get("drift_coeff", 0.5))
    steps = _expected_steps(num_steps, int(config.get("stride", 1)))
    ab = alpha_bars(config)
    step_scale = max(1.0, float(np.max(np.abs(_mixture(config)[0]))))
    comments, header, rows = parse_csv(text)
    if header != ["s", "alpha_bar", "x_star", "stability"]:
        return [f"unexpected header {header}"], 0
    by_t: dict[int, list[tuple[float, float, str]]] = {}
    problems = []
    for row in rows:
        s = float(row[0])
        t = int(round(s * num_steps))
        if abs(s - t / num_steps) > S_TOL:
            problems.append(f"s={s!r} is not t / T")
        by_t.setdefault(t, []).append((float(row[1]), float(row[2]), row[3]))
    problems += [f"rows at t={t}, which is not a swept level" for t in sorted(set(by_t) - set(steps))]
    missed = 0
    counts = []
    for t in steps:
        level = by_t.get(int(t), [])
        counts.append(len(level))
        roots = np.asarray([x for _, x, _ in level])
        if any(abs(a - ab[t]) > AB_RTOL * ab[t] for a, _, _ in level):
            problems.append(f"t={t}: alpha_bar column differs from the schedule")
        if roots.size:
            g, slope = drift_and_slope(roots, config, ab[t], drift_coeff)
            for x, gx, d, (_, _, label) in zip(roots, g, slope, level):
                if not root_accurate(gx, d, step_scale):
                    problems.append(f"t={t}: |g({x!r})| = {abs(gx):.3g} >= {ROOT_RESIDUAL_TOL}"
                                    f" and |g/g'| = {abs(gx / d):.3g} >= {ROOT_STEP_TOL * step_scale:.3g}")
                if label != ("stable" if d > 0 else "unstable"):
                    problems.append(f"t={t}: root {x!r} labelled {label} but slope is {d:.3g}")
        n_scan, n_stable = scan_roots(config, ab[t], drift_coeff)
        reported_stable = sum(label == "stable" for _, _, label in level)
        if reported_stable != n_stable:
            problems.append(f"t={t}: {reported_stable} stable roots reported, scan finds {n_stable}")
        missed += n_scan - len(level)

    # One critical line per adjacent pair of levels whose root count changes,
    # refined to adjacent steps inside that pair.
    events = [tuple(int(v) for v in m.groups()) for m in map(_CRITICAL.search, comments) if m]
    changes = [(int(steps[i - 1]), int(steps[i])) for i in range(1, len(steps))
               if counts[i] != counts[i - 1]]
    if len(events) != len(changes):
        problems.append(f"{len(events)} critical lines for {len(changes)} count changes")
    else:
        for (t0, t1), (lo, hi) in zip(events, changes):
            if not (t1 == t0 + 1 and lo <= t0 and t1 <= hi):
                problems.append(f"critical steps {t0}->{t1} are not adjacent inside [{lo}, {hi}]")
    return problems, missed
