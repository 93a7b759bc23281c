"""Independent numerical oracles shared by the test modules."""

import numpy as np


def sign_change_count(mixture, alpha_bar, lo, hi, n=100_000):
    """Number of sign changes of the drift residual on a dense uniform grid."""
    s = np.sign(drift_residual_reference(mixture, alpha_bar, np.linspace(lo, hi, n)))
    return int(np.sum(s[1:] * s[:-1] < 0))


def scan_box(mixture, alpha_bar, pad=4.0):
    """Search interval covering the origin and all diffused means."""
    mu = np.sqrt(alpha_bar) * mixture.means
    sd = np.sqrt(alpha_bar * mixture.variances + (1.0 - alpha_bar))
    lo = min(0.0, float(np.min(mu - pad * sd)))
    hi = max(0.0, float(np.max(mu + pad * sd)))
    return lo, hi


def component_log_joints(means, weights, variances, alpha_bar, x):
    """``log(w_k N(x; mu_kt, var_kt))`` of each diffused component, by plain numpy.

    Components lie on the last axis, shape ``np.shape(x) + (K,)``.  Shares no
    code with ``diffentropy``.
    """
    means, weights, variances = (np.asarray(v, dtype=np.float64) for v in (means, weights, variances))
    mu = np.sqrt(alpha_bar) * means
    var = alpha_bar * variances + (1.0 - alpha_bar)
    x = np.asarray(x, dtype=np.float64)[..., None]
    return np.log(weights) - 0.5 * np.log(2.0 * np.pi * var) - (x - mu) ** 2 / (2.0 * var)


def component_posteriors(mixture, alpha_bar, x):
    """Each component's posterior given ``x``, from :func:`component_log_joints`.

    Components lie on the last axis.  Shares no code with ``diffentropy``.
    """
    log_joints = component_log_joints(mixture.means, mixture.weights, mixture.variances, alpha_bar, x)
    return np.exp(log_joints - np.logaddexp.reduce(log_joints, axis=-1, keepdims=True))


def drift_residual_reference(mixture, alpha_bar, x):
    """``0.5 * x - d/dx log p_t(x)`` of a ``MixtureModel``, by plain numpy.

    The score is the posterior-weighted pull ``(mu_kt - x) / var_kt`` of the
    components, with posteriors from :func:`component_posteriors`.  Shares no
    code with ``diffentropy``.
    """
    posteriors = component_posteriors(mixture, alpha_bar, x)
    mu = np.sqrt(alpha_bar) * np.asarray(mixture.means, dtype=np.float64)
    var = alpha_bar * np.asarray(mixture.variances, dtype=np.float64) + (1.0 - alpha_bar)
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x - np.sum(posteriors * (mu - x[..., None]) / var, axis=-1)


def root_certified(mixture, alpha_bar, x, tol=1e-10):
    """Whether ``x`` is a root of :func:`drift_residual_reference` to float resolution.

    Either the residual at ``x`` is below ``tol``, or it changes sign across
    ``x +- eps * max(1, |x|)``, the resolution of a Newton step at unit scale
    (one or two ulps of ``x`` once ``|x| >= 0.5``).  By the intermediate value
    theorem a root then lies within that span, however steep the residual.  A
    span of one ulp would demand more than float64 gives: near the clean end
    this residual and the library's differ by rounding of ~5e-11, so their
    sign changes can sit an ulp apart.  Shares no code with ``diffentropy``.
    """
    step = np.finfo(np.float64).eps * max(1.0, abs(float(x)))
    below, at, above = drift_residual_reference(mixture, alpha_bar, [x - step, x, x + step])
    return bool(abs(at) < tol or np.sign(below) * np.sign(above) < 0)


def drift_residual_derivative_reference(mixture, alpha_bar, x):
    """``d/dx`` of :func:`drift_residual_reference`, by plain numpy.

    The score's slope is the posterior mean of ``pull^2 - 1 / var_kt`` less
    the squared posterior mean of the pull ``(mu_kt - x) / var_kt``.  Shares no
    code with ``diffentropy``.
    """
    posteriors = component_posteriors(mixture, alpha_bar, x)
    mu = np.sqrt(alpha_bar) * np.asarray(mixture.means, dtype=np.float64)
    var = alpha_bar * np.asarray(mixture.variances, dtype=np.float64) + (1.0 - alpha_bar)
    pull = (mu - np.asarray(x, dtype=np.float64)[..., None]) / var
    mean = np.sum(posteriors * pull, axis=-1)
    return 0.5 - (np.sum(posteriors * (pull**2 - 1.0 / var), axis=-1) - mean**2)


def mixture_log_density(means, weights, variances, alpha_bar, x):
    """Log density of the diffused mixture at ``x``, by plain numpy."""
    return np.logaddexp.reduce(component_log_joints(means, weights, variances, alpha_bar, x), axis=-1)


def binary_entropy_reference(p):
    """Entropy in bits of a (p, 1-p) coin, 0 < p < 1, by plain numpy."""
    p = np.asarray(p, dtype=np.float64)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def side_posterior(posteriors, z0, z1):
    """P(z0 | x) of a two-side decision from per-component posteriors.

    The sides' masses are renormalized over their union.  Shares no code with
    ``diffentropy``.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    p0 = posteriors[..., list(z0)].sum(axis=-1)
    return p0 / (p0 + posteriors[..., list(z1)].sum(axis=-1))


def windowed_entropy_bits(means, weights, variances, z0, z1, alpha_bar, span=12.0, per_sd=32):
    """H(z | x_t) in bits by plain numpy, on a grid local to the decision.

    Each union component of positive weight gets the window mu +- ``span`` sd
    of its diffused Gaussian; windows that touch are merged and each is cut
    into cells of at most 1 / ``per_sd`` of its narrowest sd.  Shares no code
    with ``diffentropy``.
    """
    means, weights, variances = (np.asarray(v, dtype=np.float64) for v in (means, weights, variances))
    comps = [k for k in list(z0) + list(z1) if weights[k] > 0.0]
    mu = np.sqrt(alpha_bar) * means[comps]
    var = alpha_bar * variances[comps] + (1.0 - alpha_bar)
    sd = np.sqrt(var)
    log_prior = np.log(weights[comps] / weights[comps].sum())
    in_z0 = np.isin(comps, list(z0))

    spans = sorted(zip(mu - span * sd, mu + span * sd, sd))
    merged = [list(spans[0])]
    for lo, hi, s in spans[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1], merged[-1][2] = max(merged[-1][1], hi), min(merged[-1][2], s)
        else:
            merged.append([lo, hi, s])

    total = 0.0
    for lo, hi, s in merged:
        n = int(np.ceil((hi - lo) * per_sd / s))
        dx = (hi - lo) / n
        x = np.linspace(lo + 0.5 * dx, hi - 0.5 * dx, n)[:, None]
        log_joint = log_prior - 0.5 * np.log(2.0 * np.pi * var) - (x - mu) ** 2 / (2.0 * var)
        side = [np.logaddexp.reduce(np.where(mask, log_joint, -np.inf), axis=1)
                for mask in (in_z0, ~in_z0)]
        log_p = np.logaddexp(*side)
        # p(x) h(z | x) = -sum_z p(z, x) log2 p(z | x), every term in log space.
        total -= sum(np.sum(np.exp(s_) * (s_ - log_p)) for s_ in side) * dx / np.log(2.0)
    return float(total)


def jsd_bits_reference(mixture, z0, z1, alpha_bar, per_sd=32):
    """Jensen-Shannon divergence in bits between the two diffused side densities, by plain numpy.

    Each side's density is its components renormalized within the side (a
    side of zero total weight weighs its components equally).  The JSD is one
    bit less the H(z | x_t) of the two sides mixed with equal priors, which
    :func:`windowed_entropy_bits` integrates.  Shares no code with
    ``diffentropy``.
    """
    w = np.asarray(mixture.weights, dtype=np.float64).copy()
    for side in (list(z0), list(z1)):
        total = w[side].sum()
        w[side] = 0.5 * (w[side] / total if total > 0.0 else 1.0 / len(side))
    return 1.0 - windowed_entropy_bits(mixture.means, w, mixture.variances, z0, z1, alpha_bar,
                                       per_sd=per_sd)


def mc_entropy_reference(epsilon, betas, alpha_bars, prior_z0, n_z0, n_z1, seed):
    """The Monte-Carlo estimator's branch series ``(h_z0, h_z1)`` by plain numpy.

    The estimator's loop written out with a fresh array for every result:
    branch ``i`` draws x_T and then one noise vector per step t > 1 from
    ``Generator(SFC64(SeedSequence(seed).spawn(2)[i]))``, moves to its own
    denoising mean ``(x - c eps_own) / r`` plus the scaled noise ``s``, moves
    the clipped log-odds of z0 by ``(2 / beta_t) h (s +- h)`` (+ for z0) with
    the half-gap ``h = c (eps_z1 - eps_z0) / (2 r)`` and records minus the
    population mean of the binary entropy, summed in nats, in bits.
    ``epsilon(x, t, label)`` is the score model.  Shares no code with
    ``diffentropy``.
    """
    logit_max = np.log((1.0 - 1e-12) / 1e-12)
    num_steps = len(betas)
    p, q = np.float64(prior_z0), 1.0 - np.float64(prior_z0)
    prior_summand = p * np.log2(p) + q * np.log2(q)
    prior_logit = np.log(prior_z0) - np.log1p(-prior_z0)
    series = []
    for i, n in enumerate((n_z0, n_z1)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(2)[i]))
        x = rng.standard_normal(n)
        logit = np.full(n, prior_logit)
        summand = np.empty(num_steps + 1)
        summand[num_steps] = prior_summand
        for t in range(num_steps, 0, -1):
            beta, ab = float(betas[t - 1]), float(alpha_bars[t - 1])
            c, r = beta / np.sqrt(1.0 - ab), np.sqrt(1.0 - beta)
            eps0 = np.asarray(epsilon(x, t, "z0"), dtype=np.float64)
            eps1 = np.asarray(epsilon(x, t, "z1"), dtype=np.float64)
            h = (eps1 - eps0) * (c / (2.0 * r))
            s = np.sqrt(beta) * rng.standard_normal(n) if t > 1 else np.zeros(n)
            x = (x - (eps0 if i == 0 else eps1) * c) / r + s
            logit = np.clip(logit + h * (s + h if i == 0 else s - h) * (2.0 / beta),
                            -logit_max, logit_max)
            mag = np.abs(logit)
            u = np.exp(-mag)
            summand[t - 1] = -float(np.sum(np.log1p(u) + mag * u / (1.0 + u))) / n / np.log(2.0)
        series.append(summand)
    return series[0], series[1]


def mc_entropy_two_means_reference(epsilon, betas, alpha_bars, prior_z0, n_z0, n_z1, seed):
    """The Monte-Carlo estimator's branch series ``(h_z0, h_z1)`` from both full means.

    As :func:`mc_entropy_reference`, but each step forms both denoising means
    and moves the log-odds by ``-(|x' - mu_z0|^2 - |x' - mu_z1|^2) / (2
    beta_t)`` as written: equal to the half-gap form in exact arithmetic,
    not bitwise.  Shares no code with ``diffentropy``.
    """
    logit_max = np.log((1.0 - 1e-12) / 1e-12)
    num_steps = len(betas)
    p, q = np.float64(prior_z0), 1.0 - np.float64(prior_z0)
    prior_summand = p * np.log2(p) + q * np.log2(q)
    prior_logit = np.log(prior_z0) - np.log1p(-prior_z0)
    series = []
    for i, n in enumerate((n_z0, n_z1)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(2)[i]))
        x = rng.standard_normal(n)
        logit = np.full(n, prior_logit)
        summand = np.empty(num_steps + 1)
        summand[num_steps] = prior_summand
        for t in range(num_steps, 0, -1):
            beta, ab = float(betas[t - 1]), float(alpha_bars[t - 1])
            eps0 = np.asarray(epsilon(x, t, "z0"), dtype=np.float64)
            eps1 = np.asarray(epsilon(x, t, "z1"), dtype=np.float64)
            mu0 = (x - beta / np.sqrt(1.0 - ab) * eps0) / np.sqrt(1.0 - beta)
            mu1 = (x - beta / np.sqrt(1.0 - ab) * eps1) / np.sqrt(1.0 - beta)
            x = mu0 if i == 0 else mu1
            if t > 1:
                x = x + np.sqrt(beta) * rng.standard_normal(n)
            scale = 1.0 / (2.0 * beta)
            delta = (x - mu0) ** 2 - (x - mu1) ** 2
            logit = np.clip(logit - scale * delta, -logit_max, logit_max)
            mag = np.abs(logit)
            u = np.exp(-mag)
            summand[t - 1] = -float(np.mean((np.log1p(u) + mag * u / (1.0 + u)) / np.log(2.0)))
        series.append(summand)
    return series[0], series[1]
