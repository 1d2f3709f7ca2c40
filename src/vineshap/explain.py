"""Shapley-value computation over pluggable contribution estimators.

The Shapley combination itself is exact: all 2^M coalitions are
enumerated and each v(S) is obtained once.  Estimators differ only in
how they approximate the conditional expectation v(S) = E[g(x) | x_S]:
each draws the rows at which to evaluate g (and their weights) through
one `_draws(masks, x_star)`; `sample` and `sample_all` are its one- and
all-coalition cases.  The Gaussian baselines build a call's conditional
normals in chunks of at most `PREDICT_CELLS` // M² coalitions, stacked by
|S|, then draw each coalition in mask order, bit for bit as one
`multivariate_normal` call each, into waves of at most `PREDICT_CELLS` // M
rows, with one data-scale map per feature per wave.
`shapley_rows` explains many query rows through one predictor stream:
it stacks v(empty)'s training rows (until cached), then each row's x*
and the draws its `sample_all` yields, and calls the predictor once per
`PREDICT_CELLS` matrix cells (or a caller's budget), so one call may
serve several rows and g must be row-wise: each output may depend only on its own row.  `shapley`
is its one-row case.  The Gaussian pieces load `scipy.special` on first
use (`bicop.special`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bicop import EPS, special
from .dvine import pseudo_observations
from .errors import CoverageError, InvalidInputError, NumericError
from .marginals import EmpiricalMarginal
from .structure import MAX_FEATURES, set_of

PREDICT_CELLS = 1 << 16     # default matrix cells per predictor call in `shapley_rows`


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
    Estimators only implement `_draws`; predicting and averaging live here."""

    method = "base"

    def __init__(self, train_x, predictor, K=1000, rng=None):
        self.train_x = np.asarray(train_x, dtype=float)
        self.predictor = predictor
        if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
            raise InvalidInputError(f"K must be an integer >= 1, got {K!r}")
        self.K = int(K)
        self.rng = rng if rng is not None else np.random.default_rng()
        if self.train_x.ndim != 2 or not self.train_x.size or not np.isfinite(self.train_x).all():
            raise InvalidInputError("training set must be a nonempty, finite N x M table")
        self._v_empty = None  # v(empty), cached by the first `shapley_rows` call
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

    def begin_explanation(self, x_star):
        """Hook called once per query point (e.g. to fix a shared subsample)."""

    def _draws(self, masks, x_star):
        """(mask, x, pi) per coalition mask, in any order: the rows at which
        to evaluate g and their normalised weights, or None."""
        raise NotImplementedError

    def sample(self, features, x_star):
        """(x, pi) of one coalition: the one-coalition case of `_draws`.
        Every feature must be an integer in 0..M - 1.  The full coalition
        has nothing to draw: K copies of x*, equally weighted."""
        features = set(features)
        if not all(isinstance(j, (int, np.integer)) and 0 <= j < self.M for j in features):
            raise InvalidInputError(
                f"features must be integers in 0..{self.M - 1}, got {features}")
        if len(features) == self.M:
            return np.tile(np.asarray(x_star, dtype=float), (self.K, 1)), None
        return next(self._draws([sum(1 << int(j) for j in features)], x_star))[1:]

    def sample_all(self, x_star):
        """`_draws` of every coalition but the empty and the full one."""
        return self._draws(range(1, (1 << self.M) - 1), x_star)

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

    def _pinned(self, idx, mask, x_star):
        """Training rows `idx` with the coalition's columns set to x_star."""
        x = self.train_x[idx]
        cols = [j for j in range(self.M) if mask >> j & 1]
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


def shapley(estimator, x_star):
    """Exact Shapley values of the estimator's contribution game at x_star;
    the one-row case of `shapley_rows`."""
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (estimator.M,):
        raise InvalidInputError(
            f"query point must have shape ({estimator.M},), got {x_star.shape}")
    return shapley_rows(estimator, x_star[None, :])[0]


def shapley_rows(estimator, X_star, cells=None):
    """One Explanation per row of the (R, M) array X_star, from one stream
    of predictor calls of up to `cells` matrix cells (default
    `PREDICT_CELLS`): a call may hold the draws of several rows, and
    v(empty)'s training rows join the first call until v(empty) is cached.
    Each row calls `begin_explanation`, in row order, before its first
    draw, so its draws are those of `shapley` on that row alone.  A row's
    diagnostics count the calls that carried any of its rows, and the rows
    it sent (v(empty)'s with the first row's); a Gaussian baseline's also
    list, in mask order, the coalitions in its `ridge_flagged`."""
    X_star = np.asarray(X_star, dtype=float)
    M = estimator.M
    if X_star.ndim != 2 or X_star.shape[1] != M:
        raise InvalidInputError(f"query points must have shape (R, {M}), got {X_star.shape}")
    if not np.all(np.isfinite(X_star)):
        raise InvalidInputError("query point must be finite")
    if M > MAX_FEATURES:
        raise InvalidInputError(
            f"exact enumeration over 2^{M} coalitions refused; reduce to "
            f"<= {MAX_FEATURES} features")
    full = (1 << M) - 1
    # one v table per row, in the order v(empty), v(full), then mask order
    tables = [dict.fromkeys([0, full, *range(1, full)]) for _ in X_star]
    ess = [{} for _ in X_star]      # mask -> 1/sum(pi^2), for weighted draws
    counts = [[0, 0] for _ in X_star]  # predictor calls and rows per row

    def draws():  # ((row, mask), x, pi); uncached v(empty) is row 0's mask 0
        if estimator._v_empty is None and len(X_star):
            yield (0, 0), estimator.train_x, None
        for i, x_star in enumerate(X_star):
            estimator.begin_explanation(x_star)
            yield (i, full), x_star[None, :], None
            for mask, x, pi in estimator.sample_all(x_star):
                yield (i, mask), x, pi

    for batch in _batches(draws(), max(1, (cells or PREDICT_CELLS) // M)):
        g = estimator.predict(np.concatenate([x for _, x, _ in batch]))
        ends = np.cumsum([len(x) for _, x, _ in batch])
        for i in {i for (i, _), _, _ in batch}:
            counts[i][0] += 1
        for ((i, mask), x, pi), g_s in zip(batch, np.split(g, ends[:-1])):
            counts[i][1] += len(x)
            tables[i][mask] = _mean(g_s, pi)
            if pi is not None:
                ess[i][mask] = float(1.0 / np.sum(pi ** 2))
    if tables and estimator._v_empty is None:
        estimator._v_empty = tables[0][0]
    # a Gaussian baseline's ridge flag depends on the mask alone: every row lists the same
    flagged = getattr(estimator, "ridge_flagged", None)
    out = []
    for values, row_ess, (calls, rows) in zip(tables, ess, counts):
        values[0] = estimator._v_empty
        phi0, phi = shapley_from_values(M, values)
        diagnostics = {"predictor_calls": calls, "predictor_rows": rows}
        if row_ess:
            diagnostics.update(ess=dict(sorted(row_ess.items())), ess_min=min(row_ess.values()))
        if flagged is not None:
            diagnostics["ridge_flagged"] = sorted(flagged)
        out.append(Explanation(phi0=phi0, phi=phi, values=values, method=estimator.method,
                               K=estimator.K, diagnostics=diagnostics))
    return out


# ----------------------------------------------------------------------
# baselines

class IndependenceEstimator(ContributionEstimator):
    """v(S) by averaging g over training rows with the S columns pinned."""

    method = "independence"

    def _draws(self, masks, x_star):
        for mask in masks:
            idx = self.rng.integers(0, self.train_x.shape[0], size=self.K)
            yield mask, self._pinned(idx, mask, x_star), None


def _conditional_normals(mu, sigma, scores, inside, ridge=False):
    """Means, Cholesky factors and ridge flags of the x_sbar | x_S = scores_S
    blocks of N(mu, sigma) for a stack of coalitions of one size, each a row
    of the (n, M) boolean `inside`.  Each coalition gets the numbers it would
    get alone, bit for bit: if any sigma_SS of the stack is singular, each
    coalition is solved alone, and only a singular one takes a ridge."""
    n = len(inside)
    s_cols = np.nonzero(inside)[1].reshape(n, -1)
    sbar_cols = np.nonzero(~inside)[1].reshape(n, -1)
    s_ss = sigma[s_cols[:, :, None], s_cols[:, None, :]]
    s_bs = sigma[sbar_cols[:, :, None], s_cols[:, None, :]]
    s_bb = sigma[sbar_cols[:, :, None], sbar_cols[:, None, :]]
    if ridge:  # trace 0: every S column is constant, so s_bs = 0 and any ridge will do
        s_ss = s_ss + (1e-8 * np.trace(s_ss[0]) or 1e-8) * np.eye(s_cols.shape[1])
    try:
        sol = np.linalg.solve(s_ss, (scores[s_cols] - mu[s_cols])[..., None])
        gain = np.linalg.solve(s_ss, s_bs.swapaxes(1, 2)).swapaxes(1, 2)
    except np.linalg.LinAlgError:
        if ridge:
            raise
        parts = [_conditional_normals(mu, sigma, scores, inside[i:i + 1], n == 1)
                 for i in range(n)]
        return tuple(map(np.concatenate, zip(*parts)))
    mean = mu[sbar_cols] + (s_bs @ sol)[..., 0]
    cov = s_bb - gain @ s_bs.swapaxes(1, 2)
    # symmetrize and guard small negative eigenvalues from cancellation
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    eigmin = np.linalg.eigvalsh(cov).min(axis=1)
    low = eigmin < 1e-12
    cov[low] += (1e-12 - np.minimum(eigmin[low], 0.0))[:, None, None] * np.eye(cov.shape[1])
    flagged = ridge | (eigmin < -1e-8)
    try:
        return mean, np.linalg.cholesky(cov), flagged
    except np.linalg.LinAlgError:  # a data-scale block rounds far above 1e-12
        for i, block in enumerate(cov):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:  # lift it relative to its scale
                block += 1e-12 * max(1.0, np.trace(block) / len(block)) * np.eye(len(block))
                flagged[i] = True
        return mean, np.linalg.cholesky(cov), flagged


class GaussianCopulaEstimator(ContributionEstimator):
    """Empirical marginals + Gaussian copula: the complement is drawn from
    the conditional N(mu, sigma) on the normal scale and mapped back.
    `_draws` scores x* once and takes the masks in chunks of at most
    PREDICT_CELLS // M**2.  Per chunk, one `_conditional_normals` per size
    |S| gives every coalition's mean and Cholesky factor; none is kept past
    the call.  Each coalition then draws in mask order, as
    `multivariate_normal(..., method="cholesky")` would bit for bit, into
    waves of at most PREDICT_CELLS // M rows (a larger coalition is a wave
    of its own); each wave is mapped in place and its tables yielded."""

    method = "gaussian-copula"

    def __init__(self, train_x, predictor, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)
        self.ridge_flagged = set()  # masks
        self.mu, self.sigma = self.fit_normal()

    def fit_normal(self):
        """(mu, sigma) of the normal-scale model; fits the marginals."""
        self.marginals = [EmpiricalMarginal(self.train_x[:, j]) for j in range(self.M)]
        scores = special().ndtri(pseudo_observations(self.train_x, self.marginals))
        return np.zeros(self.M), np.atleast_2d(np.corrcoef(scores, rowvar=False))

    def to_normal(self, x):
        """Normal scores of a data-scale row."""
        return special().ndtri([f.cdf(v) for f, v in zip(self.marginals, x)])

    def from_normal(self, x, masks):
        """Map each feature's free columns of a (coalitions, K, M) wave x
        from normal scores to the data scale, in place."""
        for j, f in enumerate(self.marginals):
            free = [i for i, mask in enumerate(masks) if not mask >> j & 1]
            if free:
                x[free, :, j] = f.quantile(np.clip(special().ndtr(x[free, :, j]), EPS, 1 - EPS))

    def _draws(self, masks, x_star):
        scores = self.to_normal(x_star)
        masks = list(masks)
        per_chunk = max(1, PREDICT_CELLS // self.M ** 2)
        per_wave = max(1, PREDICT_CELLS // self.M // self.K)
        for start in range(0, len(masks), per_chunk):
            chunk, by_size, models = masks[start:start + per_chunk], {}, {}
            for mask in chunk:
                by_size.setdefault(bin(mask).count("1"), []).append(mask)
            for group in by_size.values():
                inside = (np.array(group)[:, None] >> np.arange(self.M) & 1).astype(bool)
                stacks = _conditional_normals(self.mu, self.sigma, scores, inside)
                for mask, s, mean, factor, flagged in zip(group, inside, *stacks):
                    models[mask] = s, mean, factor
                    if flagged:
                        self.ridge_flagged.add(mask)
            for w in range(0, len(chunk), per_wave):
                wave = chunk[w:w + per_wave]
                x = np.empty((len(wave), self.K, self.M))
                for mask, table in zip(wave, x):
                    inside, mean, factor = models[mask]
                    table[:, inside] = x_star[inside]
                    # multivariate_normal(mean, factor @ factor.T, method="cholesky")
                    table[:, ~inside] = (self.rng.standard_normal((self.K, len(mean)))
                                         @ factor.T + mean)
                self.from_normal(x, wave)
                yield from ((mask, table, None) for mask, table in zip(wave, x))


class GaussianEstimator(GaussianCopulaEstimator):
    """Joint-Gaussian model: the copula baseline on the data scale itself."""

    method = "gaussian"

    def fit_normal(self):
        return np.mean(self.train_x, axis=0), np.atleast_2d(np.cov(self.train_x, rowvar=False))

    def to_normal(self, x):
        return x

    def from_normal(self, x, masks):
        pass


# ----------------------------------------------------------------------
# vine estimators

class _VineEstimator(ContributionEstimator):
    """Base of the vine estimators: checks their cover plan once, when built.
    A subclass sets `plan_method`, the `CoverPlan.method` it serves, and
    yields (mask, x, pi) per coalition from `_draws(masks, x_star)`, one
    vine call per group of coalitions; the plan's `assignment` places each."""

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None):
        super().__init__(train_x, predictor, K, rng)
        self.models = list(models)
        self.plan = plan
        if (plan.M, plan.method, plan.orders) != (
                self.M, self.plan_method, [m.order for m in self.models]):
            raise InvalidInputError(f"plan must be the {self.plan_method} cover plan "
                                    "of the models' orders")
        if len(plan.assignment) != (1 << self.M) - 2:  # it holds only required masks
            raise CoverageError("the plan leaves a coalition unserved")

    def _served(self, mask, key):
        """The plan's (order index, first, last) at `key`, the mask (its own or
        its complement's) that places coalition `mask`; else CoverageError."""
        try:
            return self.plan.assignment[key]
        except KeyError:
            hint = ": `shapley` takes v(empty) as the mean of g over the training rows"
            raise CoverageError(f"coalition {[j for j in range(self.M) if mask >> j & 1]} "
                                f"is not served by the plan{'' if mask else hint}") from None


class VineCondSimEstimator(_VineEstimator):
    """Conditional simulation through the cover plan's D-vine models.

    Each coalition draws its uniforms from its own stream, keyed by the
    explanation's key and its mask, so the draws do not depend on which
    coalitions share an inverse pass.
    """

    method = "vine-condsim"
    plan_method = "condsim"
    _key = None

    def begin_explanation(self, x_star):
        self._key = int(self.rng.integers(1 << 63))

    def _draws(self, masks, x_star):
        """(mask, x, None) per coalition.  Coalitions are grouped by their
        serving order and whether they are its prefix or suffix; one inverse
        pass samples each group."""
        if self._key is None:
            self.begin_explanation(x_star)
        groups = {}
        for mask in masks:
            index, first, _ = self._served(mask, mask)
            groups.setdefault((index, first == 0), []).append(mask)
        for (index, _), group in groups.items():
            draws = [np.random.default_rng([self._key, mask]).uniform(
                size=(self.K, self.M - mask.bit_count())) for mask in group]
            coalitions = [set_of(mask) for mask in group]
            tables = self.models[index].conditional_sample(coalitions, x_star, draws)
            yield from ((mask, x, None) for mask, x in zip(group, tables))


class VineRatioEstimator(_VineEstimator):
    """Copula-density-ratio weighting of a shared training subsample.

    Weights w_k = c(u_sbar^k, u_S*) / c(u_sbar^k) are computed in the log
    domain with max subtraction.  Every pair log density is finite on the
    clipped unit square, so a non-finite log weight is an overflow and
    raises NumericError.
    """

    method = "vine-ratio"
    plan_method = "ratio"
    _sub_idx = None

    def __init__(self, train_x, predictor, models, plan, K=1000, rng=None):
        super().__init__(train_x, predictor, models, plan, K, rng)
        self.marginals = self.models[0].marginals  # the vines' copula scale
        self.train_u = pseudo_observations(self.train_x, self.marginals)

    def begin_explanation(self, x_star):
        n = self.train_x.shape[0]
        # one subsample shared by every coalition of this explanation
        if self.K <= n:
            self._sub_idx = self.rng.choice(n, size=self.K, replace=False)
        else:
            self._sub_idx = self.rng.integers(0, n, size=self.K)

    def _draws(self, masks, x_star):
        """(mask, x, pi) per coalition, on the shared subsample.  Coalitions
        are grouped by the order that serves their complement; one call per
        order weights them all."""
        if self._sub_idx is None:
            self.begin_explanation(x_star)
        groups, full = {}, (1 << self.M) - 1
        for mask in masks:
            index, *block = self._served(mask, full ^ mask)
            groups.setdefault(index, []).append((mask, tuple(block)))
        u_sub = self.train_u[self._sub_idx]
        u_star = [f.cdf(x) for f, x in zip(self.marginals, x_star)]
        for order_index, group in groups.items():
            group_masks, blocks = zip(*group)
            log_ratios = self.models[order_index].log_density_ratios(u_sub, u_star, blocks)
            if not np.all(np.isfinite(log_ratios)):
                raise NumericError("a density-ratio log weight is not finite "
                                   "(a pair copula density overflowed)")
            for mask, logw in zip(group_masks, log_ratios):
                w = np.exp(logw - np.max(logw))  # the largest is 1: sum in [1, K]
                yield mask, self._pinned(self._sub_idx, mask, x_star), w / w.sum()

    def effective_sample_size(self, features, x_star):
        x, pi = self.sample(features, x_star)
        return float(len(x)) if pi is None else float(1.0 / np.sum(pi ** 2))
