import numpy as np
import pytest
from scipy import stats

from helpers import constant_vine
from vineshap import (ClaytonCopula, CoverageError, CoverPlan, GaussianCopula,
                      GaussianCopulaEstimator, GaussianEstimator,
                      IndependenceCopula, IndependenceEstimator,
                      InvalidInputError, NumericError, PairCopula,
                      VineCondSimEstimator,
                      VineRatioEstimator, analytic_mean_predictor, burr_sample,
                      explain, fit_dvine, greedy_cover, shapley,
                      shapley_from_values, shapley_weights, study_params)


def random_v_table(M, rng):
    return {mask: float(rng.normal()) for mask in range(1 << M)}


def build_vine_models(train, method, copula, seed=0):
    rng = np.random.default_rng(seed)
    m = train.shape[1]
    plan = greedy_cover(m, method, rng=rng)
    models = [constant_vine(train, order, copula) for order in plan.orders]
    return plan, models


# ----------------------------------------------------------------------
# Shapley algebra

def test_weights_sum_to_one():
    for m in range(1, 8):
        w = shapley_weights(m)
        from math import comb
        total = sum(w[s] * comb(m - 1, s) for s in range(m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_m3_weight_values():
    w = shapley_weights(3)
    assert w[0] == pytest.approx(1 / 3)
    assert w[1] == pytest.approx(1 / 6)
    assert w[2] == pytest.approx(1 / 3)


def test_single_player_game():
    values = {0: 2.0, 1: 5.0}
    phi0, phi = shapley_from_values(1, values)
    assert phi0 == 2.0
    assert phi[0] == pytest.approx(3.0)


def test_efficiency_random_tables():
    rng = np.random.default_rng(0)
    for m in range(1, 7):
        values = random_v_table(m, rng)
        phi0, phi = shapley_from_values(m, values)
        assert abs(phi0 + phi.sum() - values[(1 << m) - 1]) < 1e-10


def test_additive_game_exact():
    rng = np.random.default_rng(1)
    for m in (2, 5, 10):
        a = rng.normal(size=m)
        values = {mask: float(sum(a[j] for j in range(m) if mask & (1 << j)))
                  for mask in range(1 << m)}
        _, phi = shapley_from_values(m, values)
        assert np.max(np.abs(phi - a)) < 1e-10


def test_null_player():
    rng = np.random.default_rng(2)
    m = 4
    # feature 3 contributes nothing: v depends only on the other bits
    base = {mask: float(rng.normal()) for mask in range(1 << (m - 1))}
    values = {mask: base[mask & 0b111] for mask in range(1 << m)}
    _, phi = shapley_from_values(m, values)
    assert abs(phi[3]) < 1e-10


def test_symmetry():
    rng = np.random.default_rng(3)
    m = 4

    def canon(mask):
        # swap bits 0 and 1
        b0, b1 = mask & 1, (mask >> 1) & 1
        return (mask & ~0b11) | (b0 << 1) | b1

    base = {}
    values = {}
    for mask in range(1 << m):
        key = min(mask, canon(mask))
        if key not in base:
            base[key] = float(rng.normal())
        values[mask] = base[key]
    _, phi = shapley_from_values(m, values)
    assert abs(phi[0] - phi[1]) < 1e-10


def test_refuses_large_m():
    train = np.random.default_rng(4).normal(size=(50, 21))
    est = IndependenceEstimator(train, lambda x: np.atleast_2d(x)[:, 0], K=10)
    with pytest.raises(InvalidInputError):
        shapley(est, np.zeros(21))


# ----------------------------------------------------------------------
# independence estimator

def test_independence_constant_predictor():
    train = np.random.default_rng(5).normal(size=(100, 3))
    est = IndependenceEstimator(train, lambda x: np.full(np.atleast_2d(x).shape[0], 7.0))
    expl = shapley(est, np.zeros(3))
    assert expl.phi0 == pytest.approx(7.0)
    assert np.allclose(expl.phi, 0.0, atol=1e-10)


def test_independence_pinned_feature():
    train = np.random.default_rng(6).normal(size=(200, 2))
    est = IndependenceEstimator(train, lambda x: np.atleast_2d(x)[:, 0], K=500)
    x_star = np.array([3.5, 0.0])
    assert est.contribution({0}, x_star) == pytest.approx(3.5)


def test_independence_average_of_free_feature():
    train = np.column_stack([np.zeros(3), np.array([1.0, 2.0, 3.0])])
    est = IndependenceEstimator(train, lambda x: np.atleast_2d(x)[:, 1],
                                K=20000, rng=np.random.default_rng(7))
    v = est.contribution({0}, np.array([0.0, 0.0]))
    assert v == pytest.approx(2.0, abs=0.05)


# ----------------------------------------------------------------------
# Gaussian estimators

def test_gaussian_conditional_mean_oracle():
    rho, s1, s2 = 0.8, 1.0, 2.0
    cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
    rng = np.random.default_rng(8)
    train = rng.multivariate_normal([1.0, -1.0], cov, size=2000)
    est = GaussianEstimator(train, lambda x: np.atleast_2d(x)[:, 1],
                            K=20000, rng=np.random.default_rng(9))
    x_star = np.array([2.0, 0.0])
    v = est.contribution({0}, x_star)
    mu, sig = est.mu, est.sigma
    want = mu[1] + sig[0, 1] / sig[0, 0] * (x_star[0] - mu[0])
    se = np.sqrt((sig[1, 1] - sig[0, 1] ** 2 / sig[0, 0]) / 20000)
    assert abs(v - want) < 3 * se + 1e-6


def test_gaussian_ridge_path_flags():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(200, 1))
    train = np.column_stack([z, z, rng.normal(size=(200, 1))])  # singular block
    est = GaussianEstimator(train, lambda x: np.atleast_2d(x)[:, 2],
                            K=100, rng=np.random.default_rng(11))
    est.contribution({0, 1}, np.array([0.5, 0.5, 0.0]))
    assert est.ridge_flagged  # singular sigma_SS handled, not raised


def test_gaussian_constant_coalition_takes_an_absolute_ridge():
    # sigma_SS of S = {1} is exactly 0, so a ridge relative to its trace is 0 too
    rng = np.random.default_rng(14)
    train = np.column_stack([rng.normal(size=200), np.full(200, 5.0), rng.normal(size=200)])
    g = lambda x: np.atleast_2d(x) @ [1.0, 2.0, 3.0] + np.atleast_2d(x)[:, 0] ** 2
    est = GaussianEstimator(train, g, K=100, rng=np.random.default_rng(15))
    x_star = np.array([0.5, 5.0, -1.0])
    expl = shapley(est, x_star)
    assert np.all(np.isfinite(expl.phi))
    assert abs(expl.phi0 + expl.phi.sum() - g(x_star)[0]) < 1e-8
    assert frozenset({1}) in est.ridge_flagged


def test_gaussian_copula_identity_reduces_to_marginal_sampling():
    rng = np.random.default_rng(12)
    train = rng.normal(size=(500, 2))
    est = GaussianCopulaEstimator(train, lambda x: np.atleast_2d(x)[:, 1],
                                  K=20000, rng=np.random.default_rng(13))
    est.sigma = np.eye(2)
    v = est.contribution({0}, np.array([5.0, 0.0]))
    assert abs(v - np.mean(train[:, 1])) < 3 * np.std(train[:, 1]) / np.sqrt(20000) + 1e-3


def test_gaussian_copula_agrees_with_gaussian_on_gaussian_data():
    rho = 0.6
    rng = np.random.default_rng(14)
    train = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=3000)
    g = lambda x: np.atleast_2d(x)[:, 1]
    a = GaussianEstimator(train, g, K=10000, rng=np.random.default_rng(15))
    b = GaussianCopulaEstimator(train, g, K=10000, rng=np.random.default_rng(16))
    x_star = np.array([1.0, 0.0])
    va = a.contribution({0}, x_star)
    vb = b.contribution({0}, x_star)
    se = np.sqrt(2 * (1 - rho * rho) / 10000)
    assert abs(va - vb) < 3 * se + 0.02


# ----------------------------------------------------------------------
# vine estimators

def test_condsim_constant_predictor_exact():
    rng = np.random.default_rng(17)
    train = rng.normal(size=(200, 3))
    plan, models = build_vine_models(train, "condsim", GaussianCopula(0.5))
    est = VineCondSimEstimator(
        train, lambda x: np.full(np.atleast_2d(x).shape[0], 3.25),
        models, plan, K=50, rng=np.random.default_rng(18))
    assert est.contribution({0, 1}, np.zeros(3)) == pytest.approx(3.25)


def test_condsim_independence_matches_independence_estimator():
    rng = np.random.default_rng(19)
    train = rng.normal(size=(500, 3))
    g = lambda x: np.sum(np.atleast_2d(x), axis=1)
    plan, models = build_vine_models(train, "condsim", IndependenceCopula())
    a = VineCondSimEstimator(train, g, models, plan, K=10000,
                             rng=np.random.default_rng(20))
    b = IndependenceEstimator(train, g, K=10000, rng=np.random.default_rng(21))
    x_star = train[0]
    va = a.contribution({0}, x_star)
    vb = b.contribution({0}, x_star)
    se = np.std(g(train)) / np.sqrt(10000)
    assert abs(va - vb) < 6 * se + 0.02


def test_ratio_independence_reduces_to_subsample_average():
    rng = np.random.default_rng(22)
    train = rng.normal(size=(300, 3))
    g = lambda x: np.sum(np.atleast_2d(x), axis=1)
    plan, models = build_vine_models(train, "ratio", IndependenceCopula())
    est = VineRatioEstimator(train, g, models, plan, K=100,
                             rng=np.random.default_rng(23))
    x_star = train[5]
    est.begin_explanation(x_star)
    pi = est.sample({0}, x_star)[1]
    assert np.allclose(pi, 1.0 / 100, atol=1e-14)
    # exact equality with the unweighted average on the shared subsample
    x = train[est._sub_idx].copy()
    x[:, 0] = x_star[0]
    assert est.contribution({0}, x_star) == pytest.approx(float(np.mean(g(x))))


def test_ratio_constant_predictor_exact():
    rng = np.random.default_rng(24)
    train = rng.normal(size=(300, 3))
    plan, models = build_vine_models(train, "ratio", GaussianCopula(0.6))
    est = VineRatioEstimator(
        train, lambda x: np.full(np.atleast_2d(x).shape[0], -1.5),
        models, plan, K=100, rng=np.random.default_rng(25))
    assert est.contribution({1, 2}, train[0]) == pytest.approx(-1.5)


def test_ratio_weights_normalized_and_ess():
    rng = np.random.default_rng(26)
    z = rng.multivariate_normal(np.zeros(3),
                                [[1, .8, .6], [.8, 1, .8], [.6, .8, 1]], 500)
    train = z
    plan, models = build_vine_models(train, "ratio", ClaytonCopula(2.0))
    g = lambda x: np.atleast_2d(x)[:, 0]
    est = VineRatioEstimator(train, g, models, plan, K=200,
                             rng=np.random.default_rng(27))
    x_star = np.quantile(train, 0.99, axis=0)   # tail point
    est.begin_explanation(x_star)
    pi = est.sample({0}, x_star)[1]
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    ess = est.effective_sample_size({0}, x_star)
    assert 1.0 <= ess < 200


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_ratio_non_finite_log_weight_raises_numeric_error():
    # Clayton at the fit cap theta = 50 overflows at the training minimum;
    # the rows whose log weight is not finite must not silently get weight 0
    train = np.random.default_rng(49).normal(size=(100, 3))
    plan, models = build_vine_models(train, "ratio", ClaytonCopula(50.0))
    est = VineRatioEstimator(train, lambda x: x[:, 0], models, plan, K=50,
                             rng=np.random.default_rng(50))
    with pytest.raises(NumericError, match="not finite"):
        shapley(est, train.min(axis=0))


def test_shared_subsample_across_coalitions():
    rng = np.random.default_rng(28)
    train = rng.normal(size=(300, 3))
    plan, models = build_vine_models(train, "ratio", GaussianCopula(0.5))
    est = VineRatioEstimator(train, lambda x: np.atleast_2d(x)[:, 0],
                             models, plan, K=50, rng=np.random.default_rng(29))
    est.begin_explanation(train[0])
    idx1 = est._sub_idx.copy()
    est.contribution({0}, train[0])
    est.contribution({1, 2}, train[0])
    assert np.array_equal(est._sub_idx, idx1)


def test_shapley_explanation_record_fields():
    rng = np.random.default_rng(30)
    train = rng.normal(size=(100, 2))
    est = IndependenceEstimator(train, lambda x: np.atleast_2d(x)[:, 0],
                                K=100, rng=np.random.default_rng(31))
    expl = shapley(est, np.array([1.0, 2.0]))
    assert expl.method == "independence"
    assert expl.K == 100
    assert set(expl.values) == set(range(4))
    assert abs(expl.phi0 + expl.phi.sum() - expl.values[3]) < 1e-10


# ----------------------------------------------------------------------
# K = 1: one sample per coalition is a valid, if noisy, explanation

@pytest.mark.parametrize("method,cls", [("condsim", VineCondSimEstimator),
                                        ("ratio", VineRatioEstimator)])
def test_single_sample_explanation_is_finite_and_efficient(method, cls):
    rng = np.random.default_rng(35)
    train = rng.normal(size=(100, 3))
    g = lambda x: np.sum(np.atleast_2d(x) * [1.0, 2.0, 3.0], axis=1)
    plan, models = build_vine_models(train, method, ClaytonCopula(1.5, rotation=180))
    est = cls(train, g, models, plan, K=1, rng=np.random.default_rng(36))
    x_star = train[3]
    expl = shapley(est, x_star)
    assert np.all(np.isfinite(expl.phi))
    assert abs(expl.phi0 + expl.phi.sum() - g(x_star)[0]) < 1e-8


def test_condsim_standard_error_at_single_sample_is_inf():
    import warnings
    rng = np.random.default_rng(37)
    train = rng.normal(size=(100, 3))
    plan, models = build_vine_models(train, "condsim", GaussianCopula(0.5))
    est = VineCondSimEstimator(train, lambda x: np.atleast_2d(x)[:, 0],
                               models, plan, K=1, rng=np.random.default_rng(38))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, se = est.contribution_with_se({0}, train[0])
    assert np.isfinite(v) and se == np.inf


# ----------------------------------------------------------------------
# one prediction path: every estimator checks and averages g the same way

METHODS = ["independence", "gaussian", "gaussian-copula", "condsim", "ratio"]


def make_estimator(method, train, g, seed, K=50):
    rng = np.random.default_rng(seed)
    if method in ("condsim", "ratio"):
        plan, models = build_vine_models(train, method, ClaytonCopula(1.5, rotation=180))
        cls = VineCondSimEstimator if method == "condsim" else VineRatioEstimator
        return cls(train, g, models, plan, K=K, rng=rng)
    cls = {"independence": IndependenceEstimator, "gaussian": GaussianEstimator,
           "gaussian-copula": GaussianCopulaEstimator}[method]
    return cls(train, g, K=K, rng=rng)


@pytest.mark.parametrize("method", METHODS)
def test_prediction_contract_is_shared(method):
    train = np.random.default_rng(39).normal(size=(100, 3))
    g = lambda x: np.sum(np.atleast_2d(x) * [1.0, -2.0, 3.0], axis=1) ** 2
    x_star = train[5]
    with pytest.raises(NumericError):
        shapley(make_estimator(method, train, lambda x: np.full(len(x), np.nan), 40), x_star)
    flat = shapley(make_estimator(method, train, g, 40), x_star)
    column = shapley(make_estimator(method, train, lambda x: g(x)[:, None], 40), x_star)
    assert np.array_equal(flat.phi, column.phi) and flat.phi0 == column.phi0
    v, se = make_estimator(method, train, g, 41).contribution_with_se({0}, x_star)
    assert np.isfinite(v) and np.isfinite(se) and se > 0


@pytest.mark.parametrize("method", METHODS)
def test_shapley_computes_no_standard_error(method):
    # at x*_0 = 1e200 the squared deviations of a linear predictor overflow,
    # which the suite turns into an error; v(S) itself stays finite
    train = np.random.default_rng(51).normal(size=(100, 3))
    est = make_estimator(method, train, lambda x: x @ [1.0, 2.0, 3.0], 52)
    expl = shapley(est, np.array([1e200, 0.5, -0.5]))
    assert np.all(np.isfinite(expl.phi))


# ----------------------------------------------------------------------
# shapley stacks the coalitions' draws into few predictor calls

def row_wise(x):
    """Each output depends only on its own row, bit for bit at any batch size."""
    return np.tanh(x[:, 0]) * x[:, -1] + x[:, 1] ** 2


class CountingPredictor:
    def __init__(self, g):
        self.g = g
        self.batches = []

    def __call__(self, x):
        self.batches.append(np.array(x))
        return self.g(x)


def per_coalition_values(est, x_star):
    """The v table of one predictor call per coalition, in mask order."""
    est.begin_explanation(x_star)
    full = (1 << est.M) - 1
    values = {0: est.v_empty(), full: float(est.predict(x_star[None, :])[0])}
    for mask in range(1, full):
        features = frozenset(j for j in range(est.M) if mask >> j & 1)
        values[mask] = est.contribution(features, x_star)
    return values


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("M", [3, 5])
@pytest.mark.parametrize("K", [1, 50])
def test_batched_shapley_equals_per_coalition_reference(method, M, K):
    train = np.random.default_rng(40).normal(size=(100, M))
    batched = make_estimator(method, train, row_wise, 42, K)
    reference = make_estimator(method, train, row_wise, 42, K)
    for x_star in train[:2]:
        expl = shapley(batched, x_star)
        values = per_coalition_values(reference, x_star)
        assert list(expl.values.items()) == list(values.items())
        phi0, phi = shapley_from_values(M, values)
        assert expl.phi0 == phi0 and np.array_equal(expl.phi, phi)


class UnevenEstimator(IndependenceEstimator):
    """Independence draws; coalition {1} draws four times as many rows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drawn = []

    def sample(self, features, x_star):
        n = 4 * self.K if features == {1} else self.K
        x = self._pinned(self.rng.integers(0, len(self.train_x), size=n), features, x_star)
        self.drawn.append(x)
        return x, None


def test_batches_flush_at_the_cell_budget(monkeypatch):
    train = np.random.default_rng(43).normal(size=(60, 3))
    x_star = train[0]
    default = UnevenEstimator(train, row_wise, K=10, rng=np.random.default_rng(44))
    expected = shapley(default, x_star)
    assert len(default.drawn) == 6
    # 25 rows per call: x* and {0} go together, {1} (40 rows) alone, then pairs
    monkeypatch.setattr(explain, "PREDICT_CELLS", 3 * 25)
    pred = CountingPredictor(row_wise)
    est = UnevenEstimator(train, pred, K=10, rng=np.random.default_rng(44))
    expl = shapley(est, x_star)
    assert expl.phi0 == expected.phi0 and np.array_equal(expl.phi, expected.phi)
    assert [len(b) for b in pred.batches] == [60, 11, 40, 20, 20]
    assert np.array_equal(pred.batches[0], train)  # v(empty)
    assert np.array_equal(np.concatenate(pred.batches[1:]),
                          np.concatenate([x_star[None, :]] + est.drawn))
    assert expl.diagnostics == {"predictor_calls": 5, "predictor_rows": 151}


@pytest.mark.parametrize("method", METHODS)
def test_one_predictor_call_per_query_row(method):
    train = np.random.default_rng(45).normal(size=(200, 4))
    pred = CountingPredictor(row_wise)
    est = make_estimator(method, train, pred, 46, K=1000)
    first = shapley(est, train[0])  # also averages g over train for v(empty)
    assert [len(b) for b in pred.batches] == [200, 14 * 1000 + 1]
    assert first.diagnostics == {"predictor_calls": 2, "predictor_rows": 14201}
    second = shapley(est, train[1])
    assert [len(b) for b in pred.batches[2:]] == [14 * 1000 + 1]
    assert second.diagnostics == {"predictor_calls": 1, "predictor_rows": 14001}
    assert (est.predictor_calls, est.predictor_rows) == (3, 28202)


@pytest.mark.parametrize("method", METHODS)
def test_bad_prediction_inside_a_batch_raises(method):
    train = np.random.default_rng(47).normal(size=(100, 3))
    x_star = train[2]

    def nan_in_middle(x):
        g = row_wise(x)
        g[len(g) // 2] = np.nan
        return g

    for bad in (nan_in_middle, lambda x: row_wise(x)[:-1]):
        est = make_estimator(method, train, row_wise, 48)
        est.v_empty()  # cached from the good predictor; the batch alone is bad
        est.predictor = bad
        with pytest.raises(NumericError):
            shapley(est, x_star)


# ----------------------------------------------------------------------
# vine-ratio: one stacked straddling-pair pass per serving order

def test_ratio_pass_stacks_coalitions_within_the_row_budget(monkeypatch):
    M, K = 4, 20
    train = np.random.default_rng(49).normal(size=(100, M))
    x_star = train[7]
    expected = shapley(make_estimator("ratio", train, row_wise, 50, K), x_star)
    rows = []
    for name in ("log_density", "hfunc"):
        kernel = getattr(PairCopula, name)

        def counted(self, u, v, *args, kernel=kernel):
            out = kernel(self, u, v, *args)
            rows.append(out.size)
            return out

        monkeypatch.setattr(PairCopula, name, counted)
    monkeypatch.setattr(explain, "PREDICT_CELLS", M * 50)  # 50 rows: two coalitions
    expl = shapley(make_estimator("ratio", train, row_wise, 50, K), x_star)
    assert max(rows) == 2 * K <= max(K, explain.PREDICT_CELLS // M)
    assert expl.phi0 == expected.phi0 and np.array_equal(expl.phi, expected.phi)
    assert list(expl.values) == [0, (1 << M) - 1, *range(1, (1 << M) - 1)]


def test_ratio_uncovered_complement_raises_coverage_error():
    train = np.random.default_rng(51).normal(size=(100, 3))
    est = make_estimator("ratio", train, row_wise, 52)
    del est.plan.assignment[frozenset({1, 2})]
    with pytest.raises(CoverageError):
        shapley(est, train[0])
    with pytest.raises(CoverageError):
        est.sample(frozenset({0}), train[0])


# ----------------------------------------------------------------------
# vine estimators check their plan once, when built

VINE_ESTIMATORS = [("condsim", VineCondSimEstimator), ("ratio", VineRatioEstimator)]


@pytest.mark.parametrize("method,cls", VINE_ESTIMATORS)
def test_vine_estimator_rejects_a_plan_of_other_vines(method, cls):
    # a plan drawn with another seed serves coalitions from the wrong vines:
    # unchecked, it moved this ratio explanation's phi_5 from 0.27 to 0.008
    params = study_params(0.5, M=5)
    train = burr_sample(params, 300, np.random.default_rng(0))
    g = analytic_mean_predictor(params)
    plan = greedy_cover(5, method, rng=np.random.default_rng(1))
    models = [fit_dvine(train, order) for order in plan.orders]
    other = greedy_cover(5, method, rng=np.random.default_rng(2))
    assert other.orders != plan.orders
    for bad in (other, CoverPlan(5, method, plan.orders[::-1])):
        with pytest.raises(InvalidInputError, match="plan"):
            cls(train, g, models, bad, K=10)
    with pytest.raises(InvalidInputError, match="plan"):
        cls(train[:, :4], g, models, plan, K=10)
    assert cls(train, g, models, plan, K=10).plan is plan


@pytest.mark.parametrize("method,cls", VINE_ESTIMATORS)
def test_vine_estimator_rejects_a_plan_that_leaves_a_coalition_unserved(method, cls):
    train = np.random.default_rng(53).normal(size=(100, 3))
    plan, models = build_vine_models(train, method, ClaytonCopula(1.5, rotation=180))
    assert len(plan.orders) == 2    # no single order serves every coalition at M = 3
    with pytest.raises(CoverageError, match="unserved"):
        cls(train, row_wise, models[:1], CoverPlan(3, method, plan.orders[:1]))
    with pytest.raises(CoverageError, match="unserved"):
        cls(train, row_wise, [], CoverPlan(3, method, []))


@pytest.mark.parametrize("method,cls", VINE_ESTIMATORS)
def test_vine_estimator_rejects_a_plan_of_the_other_method(method, cls):
    # a condsim estimator on ratio vines failed mid-row with CoverageError;
    # a ratio estimator on condsim vines computed
    train = np.random.default_rng(54).normal(size=(100, 4))
    other = "ratio" if method == "condsim" else "condsim"
    plan, models = build_vine_models(train, other, ClaytonCopula(1.5, rotation=180))
    with pytest.raises(InvalidInputError, match=f"{method} cover plan"):
        cls(train, row_wise, models, plan)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", [(4,), (2,), (1, 3)])
def test_shapley_rejects_a_query_point_that_is_not_an_m_vector(method, shape):
    train = np.random.default_rng(55).normal(size=(100, 3))
    est = make_estimator(method, train, row_wise, 56)
    with pytest.raises(InvalidInputError, match="query point"):
        shapley(est, np.zeros(shape))
    assert est.predictor_calls == 0
