"""Shapley-value computation over pluggable contribution estimators.

The Shapley combination itself is exact: all 2^M coalitions are
enumerated and each v(S) is obtained once.  Estimators differ only in
how they approximate the conditional expectation v(S) = E[g(x) | x_S]:
each draws the rows at which to evaluate g (and their weights).
`shapley` stacks the draws `sample_all` yields and calls the predictor
once per `PREDICT_CELLS` matrix cells, so g must be row-wise: each
output may depend only on its own row.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .bicop import EPS
from .dvine import pseudo_observations
from .errors import CoverageError, InvalidInputError, NumericError
from .marginals import EmpiricalMarginal
from .structure import MAX_FEATURES, set_of

PREDICT_CELLS = 1 << 16     # matrix cells per predictor call in `shapley`


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
        self.predictor_calls = 0
        self.predictor_rows = 0

    @property
    def M(self):
        return self.train_x.shape[1]

    def predict(self, x):
        """The one call into the user's model: one finite value per row of x."""
        self.predictor_calls += 1
        self.predictor_rows += len(x)
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

    def sample_all(self, x_star):
        """(mask, x, pi) for every coalition but the empty and the full one,
        in any order; here `sample` in mask order."""
        for mask in range(1, (1 << self.M) - 1):
            yield (mask, *self.sample(set_of(mask), x_star))

    def contribution(self, features, x_star):
        return self.contribution_with_se(features, x_star)[0]

    def contribution_with_se(self, features, x_star):
        """v(S) and its Monte Carlo standard error, from one predictor call;
        the error is inf from a single unweighted row."""
        x, pi = self.sample(features, x_star)
        g = self.predict(x)
        v = _mean(g, pi)
        if pi is not None:
            return v, float(np.sqrt(np.sum(pi ** 2 * (g - v) ** 2)))
        if len(g) == 1:
            return v, np.inf
        return v, float(np.std(g, ddof=1) / np.sqrt(len(g)))

    def _pinned(self, idx, features, x_star):
        """Training rows `idx` with the coalition's columns set to x_star."""
        x = self.train_x[idx]
        cols = sorted(features)
        x[:, cols] = x_star[cols]
        return x


def _mean(g, pi):
    """The Monte Carlo estimate of v(S) from g at the sampled rows, weighted
    by pi (None for equal weights)."""
    return float(np.mean(g)) if pi is None else float(np.sum(pi * g))


def _batches(draws, max_rows):
    """Group consecutive (mask, x, pi) draws into lists of at most max_rows
    rows; a draw larger than max_rows goes alone."""
    batch, rows = [], 0
    for draw in draws:
        n = len(draw[1])
        if batch and rows + n > max_rows:
            yield batch
            batch, rows = [], 0
        batch.append(draw)
        rows += n
    if batch:
        yield batch


def _assignment(plan, features):
    """Index of the plan order that serves a feature set; CoverageError if none."""
    index = plan.assignment.get(frozenset(features))
    if index is None:
        raise CoverageError(f"features {sorted(features)} are not covered by the plan")
    return index


def shapley(estimator, x_star):
    """Exact Shapley values of the estimator's contribution game at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    M = estimator.M
    if x_star.shape != (M,):
        raise InvalidInputError(f"query point must have shape ({M},), got {x_star.shape}")
    if not np.all(np.isfinite(x_star)):
        raise InvalidInputError("query point must be finite")
    if M > MAX_FEATURES:
        raise InvalidInputError(
            f"exact enumeration over 2^{M} coalitions refused; reduce to "
            f"<= {MAX_FEATURES} features")
    estimator.begin_explanation(x_star)
    calls, rows = estimator.predictor_calls, estimator.predictor_rows
    full = (1 << M) - 1
    values = dict.fromkeys([0, full, *range(1, full)])  # fixes the table's order
    values[0] = estimator.v_empty()
    # x* gives v(full); every other coalition's draws follow
    draws = itertools.chain([(full, x_star[None, :], None)], estimator.sample_all(x_star))
    for batch in _batches(draws, max(1, PREDICT_CELLS // M)):
        g = estimator.predict(np.concatenate([x for _, x, _ in batch]))
        ends = np.cumsum([len(x) for _, x, _ in batch])
        for (mask, _, pi), g_s in zip(batch, np.split(g, ends[:-1])):
            values[mask] = _mean(g_s, pi)
    phi0, phi = shapley_from_values(M, values)
    return Explanation(phi0=phi0, phi=phi, values=values,
                       method=estimator.method, K=estimator.K,
                       diagnostics={"predictor_calls": estimator.predictor_calls - calls,
                                    "predictor_rows": estimator.predictor_rows - rows})


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
        # trace 0: every S column is constant, so s_bs = 0 and any ridge will do
        s_ss = s_ss + (1e-8 * np.trace(s_ss) or 1e-8) * np.eye(len(s_cols))
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

    def __init__(self, train_x, predictor, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)
        self.ridge_flagged = set()
        self.mu, self.sigma = self.fit_normal()

    def fit_normal(self):
        """(mu, sigma) of the normal-scale model; fits the marginals."""
        self.marginals = [EmpiricalMarginal(self.train_x[:, j]) for j in range(self.M)]
        scores = ndtri(pseudo_observations(self.train_x, self.marginals))
        return np.zeros(self.M), np.corrcoef(scores, rowvar=False)

    def to_normal(self, cols, x):
        return ndtri([self.marginals[j].cdf(x[i]) for i, j in enumerate(cols)])

    def from_normal(self, cols, z):
        return np.column_stack([
            self.marginals[j].quantile(np.clip(ndtr(z[:, i]), EPS, 1 - EPS))
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

    def fit_normal(self):
        return np.mean(self.train_x, axis=0), np.cov(self.train_x, rowvar=False)

    def to_normal(self, cols, x):
        return x

    def from_normal(self, cols, z):
        return z


# ----------------------------------------------------------------------
# vine estimators

class _VineEstimator(ContributionEstimator):
    """Base of the vine estimators: checks their cover plan once, when built.
    A subclass sets `plan_method`, the `CoverPlan.method` it serves."""

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)
        self.models = list(models)
        self.plan = plan
        if (plan.M, plan.method, plan.orders) != (
                self.M, self.plan_method, [m.order for m in self.models]):
            raise InvalidInputError(f"plan must be the {self.plan_method} cover plan "
                                    "of the models' orders")
        if len(plan.assignment) != (1 << self.M) - 2:  # it holds only required sets
            raise CoverageError("the plan leaves a coalition unserved")


class VineCondSimEstimator(_VineEstimator):
    """Conditional simulation through the cover plan's D-vine models."""

    method = "vine-condsim"
    plan_method = "condsim"

    def sample(self, features, x_star):
        model = self.models[_assignment(self.plan, features)]
        return model.conditional_sample(features, x_star, self.K, self.rng), None


class VineRatioEstimator(_VineEstimator):
    """Copula-density-ratio weighting of a shared training subsample.

    Weights w_k = c(u_sbar^k, u_S*) / c(u_sbar^k) are computed in the log
    domain with max subtraction.  Every pair log density is finite on the
    clipped unit square, so a non-finite log weight is an overflow and
    raises NumericError.
    """

    method = "vine-ratio"
    plan_method = "ratio"

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None):
        super().__init__(train_x, predictor, models, plan, K, rng)
        self.marginals = self.models[0].marginals  # the vines' copula scale
        self.train_u = pseudo_observations(self.train_x, self.marginals)
        self._sub_idx = None

    def begin_explanation(self, x_star):
        n = self.train_x.shape[0]
        # one subsample shared by every coalition of this explanation
        if self.K <= n:
            self._sub_idx = self.rng.choice(n, size=self.K, replace=False)
        else:
            self._sub_idx = self.rng.integers(0, n, size=self.K)

    def _draws(self, masks, x_star):
        """(mask, x, pi) per coalition, on the shared subsample.  Coalitions
        are grouped by the order that serves their complement; one vine pass
        weights as many as a predictor batch holds."""
        if self._sub_idx is None:
            self.begin_explanation(x_star)
        groups = {}
        for mask in masks:
            sbar = [j for j in range(self.M) if not mask >> j & 1]
            index = _assignment(self.plan, sbar)
            positions = [self.models[index].order.index(j) for j in sbar]
            groups.setdefault(index, []).append((mask, (min(positions), max(positions))))
        u_star = [f.cdf(x) for f, x in zip(self.marginals, x_star)]
        step = max(1, PREDICT_CELLS // self.M // self.K)
        for order_index, group in groups.items():
            for start in range(0, len(group), step):
                chunk_masks, blocks = zip(*group[start:start + step])
                log_ratios = self.models[order_index].log_density_ratios(
                    self.train_u[self._sub_idx], u_star, blocks)
                if not np.all(np.isfinite(log_ratios)):
                    raise NumericError("a density-ratio log weight is not finite "
                                       "(a pair copula density overflowed)")
                for mask, logw in zip(chunk_masks, log_ratios):
                    w = np.exp(logw - np.max(logw))  # the largest is 1: sum in [1, K]
                    yield mask, self._pinned(self._sub_idx, set_of(mask), x_star), w / w.sum()

    def sample(self, features, x_star):
        return next(self._draws([sum(1 << j for j in features)], x_star))[1:]

    def sample_all(self, x_star):
        return self._draws(range(1, (1 << self.M) - 1), x_star)

    def effective_sample_size(self, features, x_star):
        pi = self.sample(features, x_star)[1]
        return float(1.0 / np.sum(pi ** 2))
