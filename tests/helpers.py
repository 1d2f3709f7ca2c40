"""Shared test helpers."""

from collections import Counter

import numpy as np

from vineshap import (BurrMarginal, DVineModel, EmpiricalMarginal, GaussianEstimator,
                      GridCopula, PairCopula, burr_conditional_params, shapley_from_values)
from vineshap.bicop import EPS, _clayton_log_c, _gaussian_log_c, special

STEP_SLOTS = ("second", "first", "log_density")


def constant_vine(data, order, copula):
    """D-vine with `copula` on every pair and empirical marginals of `data`."""
    m = data.shape[1]
    pairs = [[copula] * (m - 1 - i) for i in range(m - 1)]
    marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    return DVineModel(order, pairs, marginals)


def seeded_grid(seed):
    """An 8 x 8 grid copula of uniform random density values."""
    return GridCopula(np.random.default_rng(seed).uniform(0.2, 3.0, size=(8, 8)))


def straddled_overlaps(plan):
    """Per (order, i, j) of a ratio plan whose span some complement block
    straddles: the distinct sets of span positions inside such a block."""
    overlaps = {}
    for index, first, last in plan.assignment.values():
        order = plan.orders[index]
        block = set(range(first, last + 1))
        m = len(order)
        for i in range(m - 1):
            for j in range(m - 1 - i):
                span = set(range(j, j + i + 2))
                if block & span and not span <= block:
                    overlaps.setdefault((order, i, j), set()).add(frozenset(block & span))
    return overlaps


def patch_own(monkeypatch, name, wrap):
    """Replace method `name` by wrap(method) on every package pair-copula
    class that defines its own."""
    classes = [PairCopula]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if name in vars(cls) and cls.__module__ == PairCopula.__module__:
            monkeypatch.setattr(cls, name, wrap(vars(cls)[name]))


def count_steps(monkeypatch, record):
    """Patch `step` so that each call first runs record(copula, x, y, slots),
    slots being the names of the slots it asks for (see STEP_SLOTS)."""
    def wrap(step):
        def counted(self, x, y, second=False, first=False, log_density=False):
            asked = (second, first, log_density)
            record(self, x, y, [slot for slot, on in zip(STEP_SLOTS, asked) if on])
            return step(self, x, y, second, first, log_density)
        return counted

    patch_own(monkeypatch, "step", wrap)


def counted_inverse_points(monkeypatch):
    """A Counter of `inverse` points: one "hinv" per broadcast (w, x) point,
    and one "carried" more where the call asks for the carry."""
    points = Counter()

    def wrap(inverse):
        def counted(self, w, x, carry=False):
            n = np.broadcast(w, x).size
            points.update(hinv=n, carried=n if carry else 0)
            return inverse(self, w, x, carry)
        return counted

    patch_own(monkeypatch, "inverse", wrap)
    return points


def counted_step_points(monkeypatch):
    """A Counter of `step` points by slot: one per broadcast (x, y) point and
    slot asked for."""
    points = Counter()

    def record(copula, x, y, slots):
        for slot in slots:
            points[slot] += np.broadcast(x, y).size

    count_steps(monkeypatch, record)
    return points


# ----------------------------------------------------------------------
# the Burr oracle's reference layout: a new table per coalition, the
# sampler's out-of-place form and the (n, 10) zero-padded response

def reference_burr_sample(params, n, rng):
    g = rng.gamma(params.p, 1.0, size=(n, 1))
    e = rng.exponential(1.0, size=(n, params.M))
    b = np.asarray(params.b)
    r = np.asarray(params.r)
    return (e / (g * r)) ** (1.0 / b)


def reference_burr_cdf(marginal, x):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    u = -np.expm1(-marginal.p * np.log1p(marginal.r * x ** marginal.b))
    return np.asarray(np.clip(u, 1e-12, 1 - 1e-12))


def reference_response_mean(U):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    u = np.zeros((U.shape[0], 10))
    u[:, :U.shape[1]] = U[:, :10]
    return (u[:, 0] * u[:, 1] * np.exp(1.8 * u[:, 2] * u[:, 3])
            + u[:, 4] * u[:, 5] * np.exp(1.8 * u[:, 6] * u[:, 7])
            + u[:, 8] * np.exp(1.8 * u[:, 9]))


def reference_analytic_mean_predictor(params):
    marginals = [BurrMarginal(params.p, b, r) for b, r in zip(params.b, params.r)]

    def g(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return reference_response_mean(np.column_stack(
            [reference_burr_cdf(marginals[j], x[:, j]) for j in range(x.shape[1])]))
    return g


def reference_true_shapley(params, predictor, x_star, K_oracle, rng):
    """(v table, phi) of the oracle with one new (K_oracle, M) table per
    coalition, v(empty set) from `reference_burr_sample` of the joint."""
    x_star = np.asarray(x_star, dtype=float)
    m = params.M
    full = (1 << m) - 1
    values = {0: float(np.mean(predictor(reference_burr_sample(params, K_oracle, rng)))),
              full: float(np.asarray(predictor(x_star[None, :])).ravel()[0])}
    for mask in range(1, full):
        features = [j for j in range(m) if mask & (1 << j)]
        draws, sbar = burr_conditional_params(params, features, x_star)
        x = np.empty((K_oracle, m))
        x[:, features] = x_star[features]
        x[:, sbar] = reference_burr_sample(draws, K_oracle, rng)
        values[mask] = float(np.mean(predictor(x)))
    return values, shapley_from_values(m, values)[1]


# ----------------------------------------------------------------------
# the Gaussian baselines' reference: one coalition at a time, its
# conditional normal from `np.ix_` blocks, one `multivariate_normal` call

def reference_conditional_normal(mu, sigma, s_cols, sbar_cols, x_s):
    """Mean and covariance of the x_sbar | x_s = x_s block of N(mu, sigma),
    and whether sigma_SS took a ridge or the covariance was lifted."""
    s_ss = sigma[np.ix_(s_cols, s_cols)]
    s_bs = sigma[np.ix_(sbar_cols, s_cols)]
    s_bb = sigma[np.ix_(sbar_cols, sbar_cols)]
    ridge_flag = False
    try:
        sol = np.linalg.solve(s_ss, (x_s - mu[s_cols]))
        gain = np.linalg.solve(s_ss, s_bs.T).T
    except np.linalg.LinAlgError:
        ridge_flag = True
        s_ss = s_ss + (1e-8 * np.trace(s_ss) or 1e-8) * np.eye(len(s_cols))
        sol = np.linalg.solve(s_ss, (x_s - mu[s_cols]))
        gain = np.linalg.solve(s_ss, s_bs.T).T
    cond_mu = mu[sbar_cols] + s_bs @ sol
    cond_cov = s_bb - gain @ s_bs.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    eigmin = np.min(np.linalg.eigvalsh(cond_cov)) if cond_cov.size else 0.0
    if cond_cov.size and eigmin < 1e-12:
        cond_cov = cond_cov + (1e-12 - min(eigmin, 0.0)) * np.eye(cond_cov.shape[0])
        ridge_flag = ridge_flag or eigmin < -1e-8
    return cond_mu, cond_cov, ridge_flag


def reference_gaussian_sample(est, mask, x_star):
    """One coalition's draw of a Gaussian baseline as a coalition of its own:
    x*_S's normal scores, the conditional moments, one `multivariate_normal`
    call, then one data-scale map per free column.  Returns (x, ridge flag)."""
    copula = not isinstance(est, GaussianEstimator)
    s_cols = [j for j in range(est.M) if mask >> j & 1]
    sbar_cols = [j for j in range(est.M) if not mask >> j & 1]
    x_s = x_star[s_cols]
    if copula:
        x_s = special().ndtri([est.marginals[j].cdf(x_star[j]) for j in s_cols])
    mu_c, cov_c, flagged = reference_conditional_normal(est.mu, est.sigma, s_cols,
                                                        sbar_cols, x_s)
    z = est.rng.multivariate_normal(mu_c, cov_c, size=est.K, method="cholesky")
    if copula:
        z = np.column_stack([
            est.marginals[j].quantile(np.clip(special().ndtr(z[:, i]), EPS, 1 - EPS))
            for i, j in enumerate(sbar_cols)])
    x = np.empty((est.K, est.M))
    x[:, s_cols] = x_star[s_cols]
    x[:, sbar_cols] = z
    return x, flagged


def reference_least_aic(uv, rho, theta, positive):
    """`bicop._least_aic` with every candidate scored exactly, its Gaussian
    through `special().ndtri` on every row: the choice the screen must keep."""
    (u, v), theta, positive = uv, theta[:, None], positive[:, None]
    logl = [np.zeros(len(u)), _gaussian_log_c(rho[:, None], special().ndtri(u),
                                              special().ndtri(v)).sum(axis=1)]
    for a, b in ((np.where(positive, u, 1.0 - u), v), (np.where(positive, 1.0 - u, u), 1.0 - v)):
        log_a, log_b = np.log(a), np.log(b)
        logl.append(_clayton_log_c(theta, log_a, log_b, theta * log_a, theta * log_b).sum(axis=1))
    aic = -2.0 * np.array(logl) + np.array([[0.0], [2.0], [2.0], [2.0]])  # 2 per parameter
    return np.argmin(np.where(np.isnan(aic), np.inf, aic), axis=0)
