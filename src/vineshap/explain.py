"""Shapley-value computation over pluggable contribution estimators.

The Shapley combination itself is exact: all 2^M coalitions are
enumerated and each v(S) is obtained once.  Estimators differ only in
how they approximate the conditional expectation v(S) = E[g(x) | x_S].
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .dvine import Block, pseudo_observations
from .errors import CoverageError, InvalidInputError, NumericError
from .marginals import EmpiricalMarginal

MAX_FEATURES = 20


@dataclass
class Explanation:
    phi0: float
    phi: np.ndarray
    values: dict            # coalition mask -> v(S)
    method: str = ""
    K: int = 0
    diagnostics: dict = field(default_factory=dict)


def shapley_weights(M):
    """weight(|S|) = |S|! (M - |S| - 1)! / M! for S not containing j."""
    fact = [math.factorial(i) for i in range(M + 1)]
    return [fact[s] * fact[M - s - 1] / fact[M] for s in range(M)]


def shapley_from_values(M, values):
    """Exact Shapley combination of a complete v table (mask -> value).

    Returns (phi0, phi) with phi0 = v(empty set).
    """
    w = shapley_weights(M)
    phi = np.zeros(M)
    for mask, v_s in values.items():
        size = bin(mask).count("1")
        for j in range(M):
            bit = 1 << j
            if mask & bit:
                continue
            v_sj = values[mask | bit]
            phi[j] += w[size] * (v_sj - v_s)
    return float(values[0]), phi


class ContributionEstimator:
    """Base: holds the predictor, training data and Monte Carlo settings.
    Estimators only implement `sample`; predicting and averaging live here."""

    method = "base"

    def __init__(self, train_x, predictor, K=1000, rng=None):
        self.train_x = np.asarray(train_x, dtype=float)
        self.predictor = predictor
        self.K = int(K)
        if self.K < 1:
            raise InvalidInputError(f"K must be >= 1, got {K}")
        self.rng = rng if rng is not None else np.random.default_rng()
        if self.train_x.size == 0:
            raise InvalidInputError("empty training set")
        self._v_empty = None

    @property
    def M(self):
        return self.train_x.shape[1]

    def predict(self, x):
        """The one call into the user's model: one finite value per row of x."""
        g = np.asarray(self.predictor(x), dtype=float)
        if g.shape not in ((len(x),), (len(x), 1)):
            raise NumericError(f"predictor returned shape {g.shape} for {len(x)} rows")
        if not np.all(np.isfinite(g)):
            raise NumericError("predictor returned a non-finite value")
        return g.ravel()

    def v_empty(self):
        if self._v_empty is None:
            self._v_empty = float(np.mean(self.predict(self.train_x)))
        return self._v_empty

    def begin_explanation(self, x_star):
        """Hook called once per query point (e.g. to fix a shared subsample)."""

    def sample(self, features, x_star):
        """(x, pi): rows at which to evaluate g, normalised weights or None."""
        raise NotImplementedError

    def contribution(self, features, x_star):
        return self.contribution_with_se(features, x_star)[0]

    def contribution_with_se(self, features, x_star):
        """v(S) and its Monte Carlo standard error (inf from a single row)."""
        x, pi = self.sample(features, x_star)
        g = self.predict(x)
        if pi is not None:
            v = float(np.sum(pi * g))
            return v, float(np.sqrt(np.sum(pi ** 2 * (g - v) ** 2)))
        v = float(np.mean(g))
        if len(g) == 1:
            return v, np.inf
        return v, float(np.std(g, ddof=1) / np.sqrt(len(g)))

    def _pinned(self, idx, features, x_star):
        """Training rows `idx` with the coalition's columns set to x_star."""
        x = self.train_x[idx]
        cols = sorted(features)
        x[:, cols] = x_star[cols]
        return x


def _assignment(plan, features):
    """How the plan serves a feature set; CoverageError if it does not."""
    a = plan.assignment.get(frozenset(features))
    if a is None:
        raise CoverageError(f"features {sorted(features)} are not covered by the plan")
    return a


def shapley(estimator, x_star):
    """Exact Shapley values of the estimator's contribution game at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    if not np.all(np.isfinite(x_star)):
        raise InvalidInputError("query point must be finite")
    M = estimator.M
    if M > MAX_FEATURES:
        raise InvalidInputError(
            f"exact enumeration over 2^{M} coalitions refused; reduce to "
            f"<= {MAX_FEATURES} features")
    estimator.begin_explanation(x_star)
    full = (1 << M) - 1
    values = {0: estimator.v_empty(),
              full: float(estimator.predict(x_star[None, :])[0])}
    for mask in range(1, full):
        features = frozenset(j for j in range(M) if mask & (1 << j))
        values[mask] = float(estimator.contribution(features, x_star))
    phi0, phi = shapley_from_values(M, values)
    return Explanation(phi0=phi0, phi=phi, values=values,
                       method=estimator.method, K=estimator.K)


# ----------------------------------------------------------------------
# baselines

class IndependenceEstimator(ContributionEstimator):
    """v(S) by averaging g over training rows with the S columns pinned."""

    method = "independence"

    def sample(self, features, x_star):
        idx = self.rng.integers(0, self.train_x.shape[0], size=self.K)
        return self._pinned(idx, features, x_star), None


def _conditional_normal(mu, sigma, s_cols, sbar_cols, x_s):
    """Mean and covariance of the x_sbar | x_s = x_s block of N(mu, sigma)."""
    s_ss = sigma[np.ix_(s_cols, s_cols)]
    s_bs = sigma[np.ix_(sbar_cols, s_cols)]
    s_bb = sigma[np.ix_(sbar_cols, sbar_cols)]
    ridge_flag = False
    try:
        sol = np.linalg.solve(s_ss, (x_s - mu[s_cols]))
        gain = np.linalg.solve(s_ss, s_bs.T).T
    except np.linalg.LinAlgError:
        ridge_flag = True
        s_ss = s_ss + 1e-8 * np.trace(s_ss) * np.eye(len(s_cols))
        sol = np.linalg.solve(s_ss, (x_s - mu[s_cols]))
        gain = np.linalg.solve(s_ss, s_bs.T).T
    cond_mu = mu[sbar_cols] + s_bs @ sol
    cond_cov = s_bb - gain @ s_bs.T
    # symmetrize and guard small negative eigenvalues from cancellation
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    eigmin = np.min(np.linalg.eigvalsh(cond_cov)) if cond_cov.size else 0.0
    if cond_cov.size and eigmin < 1e-12:
        cond_cov = cond_cov + (1e-12 - min(eigmin, 0.0)) * np.eye(cond_cov.shape[0])
        ridge_flag = ridge_flag or eigmin < -1e-8
    return cond_mu, cond_cov, ridge_flag


class GaussianCopulaEstimator(ContributionEstimator):
    """Empirical marginals + Gaussian copula: the complement is drawn from
    the conditional N(mu, sigma) on the normal scale and mapped back."""

    method = "gaussian-copula"

    def __init__(self, train_x, predictor, K=1000, rng=None, correlation=None):
        super().__init__(train_x, predictor, K, rng)
        self.ridge_flagged = set()
        self.mu, self.sigma = self.fit_normal(correlation)

    def fit_normal(self, correlation):
        """(mu, sigma) of the normal-scale model; fits the marginals."""
        self.marginals = [EmpiricalMarginal(self.train_x[:, j]) for j in range(self.M)]
        if correlation is None:
            scores = stats.norm.ppf(pseudo_observations(self.train_x, self.marginals))
            correlation = np.corrcoef(scores, rowvar=False)
        return np.zeros(self.M), np.asarray(correlation, dtype=float)

    def to_normal(self, cols, x):
        return stats.norm.ppf([self.marginals[j].cdf(x[i]) for i, j in enumerate(cols)])

    def from_normal(self, cols, z):
        return np.column_stack([
            self.marginals[j].quantile(np.clip(stats.norm.cdf(z[:, i]), 1e-12, 1 - 1e-12))
            for i, j in enumerate(cols)])

    def sample(self, features, x_star):
        s_cols = sorted(features)
        sbar_cols = sorted(set(range(self.M)) - set(features))
        mu_c, cov_c, flagged = _conditional_normal(
            self.mu, self.sigma, s_cols, sbar_cols, self.to_normal(s_cols, x_star[s_cols]))
        if flagged:
            self.ridge_flagged.add(frozenset(features))
        z = self.rng.multivariate_normal(mu_c, cov_c, size=self.K,
                                         method="cholesky")
        x = np.empty((self.K, self.M))
        x[:, s_cols] = x_star[s_cols]
        x[:, sbar_cols] = self.from_normal(sbar_cols, z)
        return x, None


class GaussianEstimator(GaussianCopulaEstimator):
    """Joint-Gaussian model: the copula baseline on the data scale itself."""

    method = "gaussian"

    def __init__(self, train_x, predictor, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)  # no `correlation`: sigma is cov

    def fit_normal(self, correlation):
        return np.mean(self.train_x, axis=0), np.cov(self.train_x, rowvar=False)

    def to_normal(self, cols, x):
        return x

    def from_normal(self, cols, z):
        return z


# ----------------------------------------------------------------------
# vine estimators

class VineCondSimEstimator(ContributionEstimator):
    """Conditional simulation through the cover plan's D-vine models."""

    method = "vine-condsim"

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)
        self.models = list(models)
        self.plan = plan

    def sample(self, features, x_star):
        model = self.models[_assignment(self.plan, features).order_index]
        return model.conditional_sample(features, x_star, self.K, self.rng), None


class VineRatioEstimator(ContributionEstimator):
    """Copula-density-ratio weighting of a shared training subsample.

    Weights w_k = c(u_sbar^k, u_S*) / c(u_sbar^k) are computed in the log
    domain with max subtraction; an all-underflow coalition falls back to
    the unweighted average and is flagged in `fallback_flagged`.
    """

    method = "vine-ratio"

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None,
                 marginals=None):
        super().__init__(train_x, predictor, K, rng)
        self.models = list(models)
        self.plan = plan
        if marginals is None:
            marginals = [EmpiricalMarginal(self.train_x[:, j]) for j in range(self.M)]
        self.marginals = marginals
        self.train_u = pseudo_observations(self.train_x, self.marginals)
        self.fallback_flagged = set()
        self._sub_idx = None

    def begin_explanation(self, x_star):
        n = self.train_x.shape[0]
        # one subsample shared by every coalition of this explanation
        if self.K <= n:
            self._sub_idx = self.rng.choice(n, size=self.K, replace=False)
        else:
            self._sub_idx = self.rng.integers(0, n, size=self.K)

    def log_weights(self, features, x_star):
        """Unnormalized log weights for the current shared subsample."""
        if self._sub_idx is None:
            self.begin_explanation(x_star)
        s_cols = sorted(features)
        sbar = sorted(set(range(self.M)) - set(features))
        u_sub = self.train_u[self._sub_idx].copy()
        for j in s_cols:
            u_sub[:, j] = self.marginals[j].cdf(x_star[j])
        if len(sbar) < 2:  # a 1-dim copula marginal is uniform
            return self.models[0].copula_log_density(u_sub)
        a = _assignment(self.plan, sbar)
        model = self.models[a.order_index]
        block_cols = [model.order[p] for p in range(a.start, a.end + 1)]
        log_den = model.marginal_copula_log_density(
            Block(a.start, a.end), u_sub[:, block_cols])
        return model.copula_log_density(u_sub) - log_den

    def implicit_weights(self, features, x_star):
        """Normalized sampling probabilities pi of the implicit model."""
        logw = self.log_weights(features, x_star)
        logw = np.where(np.isfinite(logw), logw, -np.inf)
        if np.all(~np.isfinite(logw)):
            self.fallback_flagged.add(frozenset(features))
            return np.full(len(logw), 1.0 / len(logw))
        w = np.exp(logw - np.max(logw))  # the largest is 1, so the sum is in [1, K]
        return w / w.sum()

    def sample(self, features, x_star):
        pi = self.implicit_weights(features, x_star)  # fixes the subsample if unset
        return self._pinned(self._sub_idx, features, x_star), pi

    def effective_sample_size(self, features, x_star):
        pi = self.implicit_weights(features, x_star)
        return float(1.0 / np.sum(pi ** 2))


def mahalanobis_diagnostic(samples, train, sbar_cols, neighbors=10):
    """Mean Mahalanobis distance of each sample to its nearest training rows.

    The metric is the training covariance of the complement columns
    (ridge-regularized if singular)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    train = np.asarray(train, dtype=float)
    sbar_cols = sorted(sbar_cols)
    if len(sbar_cols) == 0:
        raise InvalidInputError("complement must be non-empty")
    t = train[:, sbar_cols]
    s = samples if samples.shape[1] == len(sbar_cols) else samples[:, sbar_cols]
    cov = np.atleast_2d(np.cov(t, rowvar=False))
    try:
        prec = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        prec = np.linalg.inv(cov + 1e-8 * np.trace(cov) * np.eye(cov.shape[0]))
    diff = s[:, None, :] - t[None, :, :]
    d2 = np.einsum("kni,ij,knj->kn", diff, prec, diff)
    d = np.sqrt(np.maximum(d2, 0.0))
    k = min(int(neighbors), t.shape[0])
    nearest = np.sort(d, axis=1)[:, :k]
    return nearest.mean(axis=1)
