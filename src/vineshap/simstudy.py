"""Ground-truth machinery and benchmark harness.

The multivariate Burr distribution has closed-form conditionals (again
Burr) and its copula is a survival Clayton, so a D-vine with survival
Clayton pairs represents it exactly.  That makes it the reference
distribution for scoring Shapley estimators against a Monte Carlo
oracle.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

from .bicop import ClaytonCopula
from .dvine import (DVineModel, NonparametricMode, ParametricMode, fit_dvine,
                    pseudo_observations)
from .errors import InvalidInputError
from .explain import (Explanation, GaussianCopulaEstimator, GaussianEstimator,
                      IndependenceEstimator, VineCondSimEstimator,
                      VineRatioEstimator, shapley, shapley_from_values)
from .marginals import EmpiricalMarginal
from .structure import greedy_cover

#: feature parameters of the full-scale study, truncated to M when M < 10
STUDY_B = (2.0, 4.0, 6.0, 2.0, 4.0, 6.0, 2.0, 4.0, 6.0, 6.0)
STUDY_R = (1.0, 3.0, 5.0, 1.0, 3.0, 5.0, 1.0, 3.0, 5.0, 5.0)

METHOD_TAGS = ("independence", "gaussian", "gaussian-copula",
               "vine-condsim-par", "vine-condsim-np",
               "vine-ratio-par", "vine-ratio-np")


@dataclass(frozen=True)
class BurrParams:
    p: float
    b: tuple
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in np.atleast_1d(self.b)))
        object.__setattr__(self, "r", tuple(float(x) for x in np.atleast_1d(self.r)))
        if not 0 < self.p < np.inf:
            raise InvalidInputError(f"Burr parameter p must be positive and finite, got {self.p}")
        if not all(0 < x < np.inf for x in self.b + self.r):
            raise InvalidInputError("Burr parameters b and r must all be positive and finite")
        if len(self.b) != len(self.r) or len(self.b) < 1:
            raise InvalidInputError("b and r must have equal positive length")

    @property
    def M(self):
        return len(self.b)


def study_params(p, M=10):
    if not 1 <= M <= 10:
        raise InvalidInputError(f"study parameters are defined for M in 1..10, got M={M}")
    return BurrParams(p=p, b=STUDY_B[:M], r=STUDY_R[:M])


class BurrMarginal:
    """Analytic univariate Burr marginal: F(x) = 1 - (1 + r x^b)^(-p)."""

    def __init__(self, p, b, r):
        self.p, self.b, self.r = float(p), float(b), float(r)

    def cdf(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        u = -np.expm1(-self.p * np.log1p(self.r * x ** self.b))
        return np.asarray(np.clip(u, 1e-12, 1 - 1e-12))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0) or np.any(u >= 1):
            raise InvalidInputError("quantile input must lie in (0, 1)")
        return np.asarray((np.expm1(-np.log1p(-u) / self.p) / self.r) ** (1.0 / self.b))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(
            x > 0,
            self.p * self.b * self.r * x ** (self.b - 1.0)
            * (1.0 + self.r * x ** self.b) ** (-self.p - 1.0),
            0.0)


def marginal(params, m):
    return BurrMarginal(params.p, params.b[m], params.r[m])


def burr_log_density(params, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.M:
        raise InvalidInputError(f"expected {params.M} columns, got {x.shape[1]}")
    b = np.asarray(params.b)
    r = np.asarray(params.r)
    p, m = params.p, params.M
    from scipy.special import gammaln
    out = np.full(x.shape[0], -np.inf)
    ok = np.all(x > 0, axis=1)
    if np.any(ok):
        xo = x[ok]
        s = 1.0 + np.sum(r * xo ** b, axis=1)
        out[ok] = (gammaln(p + m) - gammaln(p)
                   + np.sum(np.log(b * r))
                   + np.sum((b - 1.0) * np.log(xo), axis=1)
                   - (p + m) * np.log(s))
    return out


def burr_sample(params, n, rng):
    """Gamma-mixture sampler: X_m = (E_m / (G r_m))^(1/b_m), G ~ Gamma(p)."""
    if n < 0:
        raise InvalidInputError("sample size must be >= 0")
    g = rng.gamma(params.p, 1.0, size=(n, 1))
    e = rng.exponential(1.0, size=(n, params.M))
    b = np.asarray(params.b)
    r = np.asarray(params.r)
    return (e / (g * r)) ** (1.0 / b)


def burr_conditional_params(params, features, x_star):
    """Parameters of x_sbar | x_S = x_S*: p + |S| shift and rescaled rates.

    Returns (conditional BurrParams over the complement, complement
    column indices in ascending order)."""
    s_cols = sorted(set(features))
    if not 0 < len(s_cols) < params.M:
        raise InvalidInputError("conditioning set must be a proper nonempty subset")
    x_star = np.asarray(x_star, dtype=float)
    sbar = [j for j in range(params.M) if j not in set(s_cols)]
    b = np.asarray(params.b)
    r = np.asarray(params.r)
    denom = 1.0 + np.sum(r[s_cols] * x_star[s_cols] ** b[s_cols])
    cond = BurrParams(p=params.p + len(s_cols),
                      b=tuple(b[sbar]), r=tuple(r[sbar] / denom))
    return cond, sbar


def burr_conditional_sample(params, features, x_star, K, rng):
    """K x |Sbar| table of conditional Burr draws (columns in sbar order)."""
    cond, _sbar = burr_conditional_params(params, features, x_star)
    return burr_sample(cond, K, rng)


# ----------------------------------------------------------------------
# response model

def response_mean_from_u(U):
    """Noise-free part of the response surface, on uniform scale.

    Defined for 10 features; for fewer, the absent u's are treated as 0,
    which reduces the formula term by term (e.g. M=4 keeps
    u1 u2 exp(1.8 u3 u4) and the 0.5 u1 noise multiplier).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    u = np.zeros((U.shape[0], 10))
    u[:, :U.shape[1]] = U[:, :10]
    return (u[:, 0] * u[:, 1] * np.exp(1.8 * u[:, 2] * u[:, 3])
            + u[:, 4] * u[:, 5] * np.exp(1.8 * u[:, 6] * u[:, 7])
            + u[:, 8] * np.exp(1.8 * u[:, 9]))


def generate_response(x, params, noise_scale=0.5, rng=None):
    """y = response mean + noise_scale (u1 + u5 + u9) eps, eps ~ N(0, 1)."""
    if noise_scale < 0:
        raise InvalidInputError("noise_scale must be >= 0")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise InvalidInputError("x must lie in the Burr support (positive)")
    U = pseudo_observations(x, [marginal(params, m) for m in range(params.M)])
    y = response_mean_from_u(U)
    if noise_scale > 0:
        if rng is None:
            raise InvalidInputError("noise_scale > 0 requires an rng")
        u_pad = np.zeros((U.shape[0], 10))
        u_pad[:, :U.shape[1]] = U
        het = u_pad[:, 0] + u_pad[:, 4] + u_pad[:, 8]
        y = y + noise_scale * het * rng.standard_normal(U.shape[0])
    return y


def analytic_mean_predictor(params):
    """Noise-free conditional mean of the response, as a predictor g(x)."""
    marginals = [marginal(params, m) for m in range(params.M)]

    def g(x):
        return response_mean_from_u(pseudo_observations(np.atleast_2d(x), marginals))
    return g


def knn_predictor(train_x, train_y, k=10):
    """k-nearest-neighbor regressor with inverse-distance weights."""
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=float)
    tree = cKDTree(train_x)

    def g(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d, idx = tree.query(x, k=min(k, len(train_y)))
        d = np.asarray(d).reshape(x.shape[0], -1)
        idx = np.asarray(idx).reshape(x.shape[0], -1)
        w = 1.0 / np.maximum(d, 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        return np.sum(w * train_y[idx], axis=1)

    return g


# ----------------------------------------------------------------------
# truth-model vine

def truth_vine(params):
    """Exact D-vine of the Burr distribution: survival Clayton pairs.

    Tree i carries theta_i = theta / (1 + (i - 1) theta) with
    theta = 1/p (the Clayton family is closed under conditioning), and
    the marginals are the analytic Burr cdfs, so the vine IS the Burr
    distribution.
    """
    theta = 1.0 / params.p
    m = params.M
    pairs = []
    for i in range(m - 1):
        th_i = theta / (1.0 + i * theta)
        pairs.append([ClaytonCopula(th_i, rotation=180) for _ in range(m - 1 - i)])
    marginals = [marginal(params, j) for j in range(m)]
    return DVineModel(tuple(range(m)), pairs, marginals)


# ----------------------------------------------------------------------
# oracle and scoring

def true_shapley(params, predictor, x_star, K_oracle=10000, rng=None):
    """Ground-truth Shapley values via analytic conditional Burr sampling."""
    if K_oracle < 1000:
        raise InvalidInputError("oracle needs K_oracle >= 1000")
    if rng is None:
        rng = np.random.default_rng()
    x_star = np.asarray(x_star, dtype=float)
    m = params.M
    full = (1 << m) - 1
    values = {}
    base = burr_sample(params, K_oracle, rng)
    values[0] = float(np.mean(predictor(base)))
    values[full] = float(np.asarray(predictor(x_star[None, :])).ravel()[0])
    for mask in range(1, full):
        features = [j for j in range(m) if mask & (1 << j)]
        draws, sbar = burr_conditional_params(params, features, x_star)
        samp = burr_sample(draws, K_oracle, rng)
        x = np.empty((K_oracle, m))
        x[:, features] = x_star[features]
        x[:, sbar] = samp
        values[mask] = float(np.mean(predictor(x)))
    phi0, phi = shapley_from_values(m, values)
    return Explanation(phi0=phi0, phi=phi, values=values,
                       method="true", K=K_oracle)


def mae(estimates, truths):
    """Mean absolute Shapley error across test points and features."""
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape:
        raise InvalidInputError(
            f"shape mismatch: {estimates.shape} vs {truths.shape}")
    return float(np.mean(np.abs(estimates - truths)))


# ----------------------------------------------------------------------
# experiment harness

@dataclass
class ExperimentConfig:
    burr: BurrParams
    n_train: int = 1000
    n_test: int = 20
    repetitions: int = 5
    K: int = 1000
    K_oracle: int = 10000
    methods: tuple = ("independence", "gaussian-copula", "vine-ratio-par")
    predictor: str = "analytic-mean"   # or "knn"
    noise_scale: float = 0.5
    seed: int = 0

    def validate(self):
        if self.n_train < 50:
            raise InvalidInputError("n_train must be >= 50")
        if self.n_test < 1 or self.repetitions < 1 or self.K < 1:
            raise InvalidInputError("n_test, repetitions and K must be >= 1")
        for tag in self.methods:
            if tag not in METHOD_TAGS:
                raise InvalidInputError(
                    f"unknown method {tag!r}; choose from {METHOD_TAGS}")
        if self.predictor not in ("analytic-mean", "knn"):
            raise InvalidInputError("predictor must be 'analytic-mean' or 'knn'")


@dataclass
class ExperimentReport:
    rows: list            # (method, repetition, mae_value)
    timings: list         # (method, repetition, seconds)
    summary: list         # (method, mean_mae, stderr)

    @staticmethod
    def summarize(rows):
        methods = []
        for method, _rep, _v in rows:
            if method not in methods:
                methods.append(method)
        summary = []
        for method in methods:
            vals = np.array([v for m0, _r, v in rows if m0 == method])
            se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            summary.append((method, float(np.mean(vals)), se))
        return summary


def _build_estimator(tag, train_x, g, K, rng):
    if tag == "independence":
        return IndependenceEstimator(train_x, g, K=K, rng=rng)
    if tag == "gaussian":
        return GaussianEstimator(train_x, g, K=K, rng=rng)
    if tag == "gaussian-copula":
        return GaussianCopulaEstimator(train_x, g, K=K, rng=rng)

    m = train_x.shape[1]
    shap_method = "condsim" if "condsim" in tag else "ratio"
    mode = ParametricMode() if tag.endswith("-par") else NonparametricMode()
    plan = greedy_cover(m, shap_method, rng=rng)
    marginals = [EmpiricalMarginal(train_x[:, j]) for j in range(m)]
    models = [fit_dvine(train_x, order, mode, marginals=marginals)
              for order in plan.orders]
    if shap_method == "condsim":
        return VineCondSimEstimator(train_x, g, models, plan, K=K, rng=rng)
    return VineRatioEstimator(train_x, g, models, plan, K=K, rng=rng)


def run_repetition(config, rep):
    """One repetition of the protocol; deterministic in (seed, rep)."""
    config.validate()
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    rng_data, rng_fit, rng_explain, rng_oracle = [
        np.random.default_rng(s) for s in ss.spawn(4)]

    params = config.burr
    train_x = burr_sample(params, config.n_train, rng_data)
    train_y = generate_response(train_x, params, config.noise_scale, rng_data)
    if config.predictor == "analytic-mean":
        g = analytic_mean_predictor(params)
    else:
        g = knn_predictor(train_x, train_y)
    test_x = burr_sample(params, config.n_test, rng_data)

    truths = np.array([
        true_shapley(params, g, x, config.K_oracle, rng_oracle).phi
        for x in test_x])

    rows, timings = [], []
    for tag in config.methods:
        t0 = time.perf_counter()
        est = _build_estimator(tag, train_x, g, config.K, rng_fit)
        est.rng = rng_explain
        phis = np.array([shapley(est, x).phi for x in test_x])
        seconds = time.perf_counter() - t0
        rows.append((tag, rep, mae(phis, truths)))
        timings.append((tag, rep, seconds))
    return rows, timings


def run_experiment(config, workers=1):
    """Full protocol: repeat, score MAE per method, aggregate."""
    config.validate()
    reps = range(config.repetitions)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rep_worker, [(config, r) for r in reps]))
    else:
        results = [run_repetition(config, r) for r in reps]
    rows = [row for rep_rows, _t in results for row in rep_rows]
    timings = [t for _r, rep_t in results for t in rep_t]
    return ExperimentReport(rows=rows, timings=timings,
                            summary=ExperimentReport.summarize(rows))


def _rep_worker(args):
    config, rep = args
    return run_repetition(config, rep)
