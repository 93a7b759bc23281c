"""Independent numerical oracles shared by the test modules."""

import numpy as np


def sign_change_count(mixture, alpha_bar, lo, hi, n=100_000, drift_coeff=0.5):
    """Number of sign changes of the drift residual on a dense uniform grid."""
    s = np.sign(drift_residual_reference(mixture, alpha_bar, np.linspace(lo, hi, n), drift_coeff))
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


def drift_residual_reference(mixture, alpha_bar, x, drift_coeff=0.5):
    """``drift_coeff * x - d/dx log p_t(x)`` of a ``MixtureModel``, by plain numpy.

    The score is the posterior-weighted pull ``(mu_kt - x) / var_kt`` of the
    components, with posteriors from :func:`component_log_joints`.  Shares no
    code with ``diffentropy``.
    """
    log_joints = component_log_joints(mixture.means, mixture.weights, mixture.variances, alpha_bar, x)
    posteriors = np.exp(log_joints - np.logaddexp.reduce(log_joints, axis=-1, keepdims=True))
    mu = np.sqrt(alpha_bar) * np.asarray(mixture.means, dtype=np.float64)
    var = alpha_bar * np.asarray(mixture.variances, dtype=np.float64) + (1.0 - alpha_bar)
    x = np.asarray(x, dtype=np.float64)
    return drift_coeff * x - np.sum(posteriors * (mu - x[..., None]) / var, axis=-1)


def drift_residual_derivative_reference(mixture, alpha_bar, x, drift_coeff=0.5):
    """``d/dx`` of :func:`drift_residual_reference`, by plain numpy.

    The score's slope is the posterior mean of ``pull^2 - 1 / var_kt`` less
    the squared posterior mean of the pull ``(mu_kt - x) / var_kt``.  Shares no
    code with ``diffentropy``.
    """
    log_joints = component_log_joints(mixture.means, mixture.weights, mixture.variances, alpha_bar, x)
    posteriors = np.exp(log_joints - np.logaddexp.reduce(log_joints, axis=-1, keepdims=True))
    mu = np.sqrt(alpha_bar) * np.asarray(mixture.means, dtype=np.float64)
    var = alpha_bar * np.asarray(mixture.variances, dtype=np.float64) + (1.0 - alpha_bar)
    pull = (mu - np.asarray(x, dtype=np.float64)[..., None]) / var
    mean = np.sum(posteriors * pull, axis=-1)
    return drift_coeff - (np.sum(posteriors * (pull**2 - 1.0 / var), axis=-1) - mean**2)


def mixture_log_density(means, weights, variances, alpha_bar, x):
    """Log density of the diffused mixture at ``x``, by plain numpy."""
    return np.logaddexp.reduce(component_log_joints(means, weights, variances, alpha_bar, x), axis=-1)


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


def mc_entropy_reference(epsilon, betas, alpha_bars, prior_z0, n_z0, n_z1, seed,
                         update_scale="bayes"):
    """The Monte-Carlo estimator's branch series ``(h_z0, h_z1)`` by plain numpy.

    The estimator's loop written out with a fresh array for every result:
    branch ``i`` draws x_T and then one noise vector per step t > 1 from
    ``Generator(PCG64(SeedSequence(seed).spawn(2)[i]))``, moves under its own
    denoising mean, updates the clipped log-odds of z0 from both means and
    records minus the population mean of the binary entropy, in bits.
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
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[i]))
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
            if update_scale == "bayes":
                scale = 1.0 / (2.0 * beta)
            elif update_scale == "one-minus-beta":
                scale = 1.0 / (1.0 - beta)
            else:
                scale = float(update_scale)
            delta = (x - mu0) ** 2 - (x - mu1) ** 2
            logit = np.clip(logit - scale * delta, -logit_max, logit_max)
            mag = np.abs(logit)
            u = np.exp(-mag)
            summand[t - 1] = -float(np.mean((np.log1p(u) + mag * u / (1.0 + u)) / np.log(2.0)))
        series.append(summand)
    return series[0], series[1]
