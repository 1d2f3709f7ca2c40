import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import vineshap.dvine as dvine
from helpers import (constant_vine, count_steps, reference_gaussian_sample,
                     straddled_overlaps)
from vineshap import (ClaytonCopula, CoverageError, CoverPlan, GaussianCopula,
                      GaussianCopulaEstimator, GaussianEstimator,
                      IndependenceCopula, IndependenceEstimator,
                      InvalidInputError, NumericError,
                      VineCondSimEstimator,
                      VineRatioEstimator, analytic_mean_predictor, burr_sample,
                      explain, fit_dvine, greedy_cover, shapley,
                      shapley_from_values, shapley_rows, shapley_weights,
                      study_params)
from vineshap.structure import MAX_FEATURES, set_of


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
    assert 0b010 in est.ridge_flagged


@pytest.mark.parametrize("seed", [5, 16, 17])
def test_gaussian_data_scale_singular_block_takes_a_relative_lift(seed):
    # Burr columns with variances near 3e9: a rank-deficient complement block
    # rounds far above the absolute lift of 1e-12, and its Cholesky factor
    # ended in a bare LinAlgError
    x = burr_sample(study_params(0.5, 5), 300, np.random.default_rng(seed))
    x[:, 1] = x[:, 0]
    g = lambda x: np.atleast_2d(x) @ np.arange(1.0, 6.0)
    expl = shapley(GaussianEstimator(x, g, K=100, rng=np.random.default_rng(1)), x[3])
    assert np.all(np.isfinite(expl.phi))
    assert expl.phi0 + expl.phi.sum() == pytest.approx(g(x[3])[0], rel=1e-12)


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


def test_gaussian_ridge_flags_are_reported_in_every_rows_diagnostics():
    # the singular block of test_gaussian_ridge_path_flags: sigma_SS of S = {0, 1}
    rng = np.random.default_rng(10)
    z = rng.normal(size=(200, 1))
    train = np.column_stack([z, z, rng.normal(size=(200, 1))])
    for cls in (GaussianEstimator, GaussianCopulaEstimator):
        est = cls(train, lambda x: x[:, 2], K=100, rng=np.random.default_rng(11))
        rows = shapley_rows(est, train[:3])
        assert est.ridge_flagged == {0b011}
        assert [e.diagnostics["ridge_flagged"] for e in rows] == [[0b011]] * 3


def assert_gaussian_equals_reference(cls, M, K, seed, singular, rows):
    """phi, every v(S) and the ridge flags of `rows` query rows explained by
    one `shapley_rows` call are those of coalitions drawn one at a time, in
    mask order, by `reference_gaussian_sample`, bit for bit."""
    rng = np.random.default_rng(seed)
    train = rng.gamma(2.0, size=(200, M))
    if singular:
        train[:, 1] = train[:, 0]
    X_star = rng.gamma(2.0, size=(rows, M))
    waves = cls(train, row_wise, K=K, rng=np.random.default_rng(seed))
    reference = cls(train, row_wise, K=K, rng=np.random.default_rng(seed))
    full = (1 << M) - 1
    v_empty = float(np.mean(reference.predict(train)))
    for expl, x_star in zip(shapley_rows(waves, X_star), X_star):
        values, flagged = {0: v_empty, full: float(reference.predict(x_star[None, :])[0])}, []
        for mask in range(1, full):
            x, flag = reference_gaussian_sample(reference, mask, x_star)
            values[mask] = float(np.mean(reference.predict(x)))
            if flag:
                flagged.append(mask)
        assert all(np.array_equal(expl.values[mask], v) for mask, v in values.items())
        phi0, phi = shapley_from_values(M, values)
        assert expl.phi0 == phi0 and np.array_equal(expl.phi, phi)
        assert expl.diagnostics["ridge_flagged"] == flagged
    assert waves.ridge_flagged == set(flagged)


@pytest.mark.parametrize("cls", [GaussianEstimator, GaussianCopulaEstimator])
@settings(max_examples=10, deadline=None)
@given(M=st.sampled_from([2, 3, 5, 8]), K=st.sampled_from([1, 7, 100, 1000, 40000]),
       seed=st.integers(0, 2 ** 32 - 1), singular=st.booleans(), rows=st.integers(1, 3))
# K = 1; a K that leaves part of a wave (PREDICT_CELLS // M rows) unused, so the
# coalitions span several waves; K larger than one wave: one coalition per wave
@example(M=2, K=1, seed=0, singular=True, rows=2)
@example(M=3, K=1, seed=1, singular=False, rows=2)
@example(M=5, K=1, seed=2, singular=True, rows=2)
@example(M=8, K=1, seed=3, singular=False, rows=2)
@example(M=5, K=1000, seed=4, singular=True, rows=2)
@example(M=8, K=100, seed=5, singular=True, rows=2)
@example(M=3, K=40000, seed=6, singular=True, rows=2)
# the singular sigma_SS of S = {0, 1} shares the |S| = 2 stack with nine
# regular ones, so that stack is solved one coalition at a time
@example(M=5, K=7, seed=7, singular=True, rows=1)
# three query rows through one shapley_rows call
@example(M=5, K=100, seed=8, singular=False, rows=3)
def test_gaussian_waves_equal_one_draw_per_coalition(cls, M, K, seed, singular, rows):
    if K * (1 << M) > 400_000:     # keep an example under about a second
        K = 100
    assert_gaussian_equals_reference(cls, M, K, seed, singular, rows)


@pytest.mark.parametrize("cls", [GaussianEstimator, GaussianCopulaEstimator])
@pytest.mark.parametrize("singular", [False, True])
def test_gaussian_chunks_equal_one_draw_per_coalition(monkeypatch, cls, singular):
    # PREDICT_CELLS // M**2 = 3 coalitions per chunk and PREDICT_CELLS // M // K = 2
    # per wave at M = 5, K = 7: the boundaries of both fall inside each other
    monkeypatch.setattr(explain, "PREDICT_CELLS", 3 * 25 + 2)
    assert_gaussian_equals_reference(cls, 5, 7, 9, singular, 2)


@pytest.mark.parametrize("cls", [GaussianEstimator, GaussianCopulaEstimator])
def test_gaussian_sample_at_max_features(cls):
    # and at M = 1, whose 1 x 1 sigma np.cov and np.corrcoef return as a
    # 0-d value: the empty coalition ended in a bare IndexError
    rng = np.random.default_rng(12)
    for M, features in ((MAX_FEATURES, {0, 7, 19}), (1, set())):
        train = rng.gamma(2.0, size=(100, M))
        est = cls(train, row_wise, K=50, rng=np.random.default_rng(13))
        x, pi = est.sample(features, rng.gamma(2.0, size=M))
        assert x.shape == (50, M) and pi is None and np.all(np.isfinite(x))


@pytest.mark.parametrize("cls", [GaussianEstimator, GaussianCopulaEstimator])
def test_gaussian_sample_builds_only_the_coalitions_it_draws(cls):
    # S = {0, 1} is singular, but a call that does not draw it does not flag it
    rng = np.random.default_rng(14)
    train = rng.gamma(2.0, size=(200, 3))
    train[:, 1] = train[:, 0]
    est = cls(train, row_wise, K=20, rng=np.random.default_rng(15))
    est.sample({0, 2}, rng.gamma(2.0, size=3))
    assert est.ridge_flagged == set()
    est.sample({0, 1}, rng.gamma(2.0, size=3))
    assert est.ridge_flagged == {0b011}


@pytest.mark.parametrize("cls", [GaussianEstimator, GaussianCopulaEstimator])
@pytest.mark.parametrize("M", [1, 3])
def test_gaussian_sample_of_the_full_coalition_is_x_star(cls, M):
    # it ended in a bare ValueError; at M = 1 every coalition is the full one
    rng = np.random.default_rng(18)
    x_star = rng.gamma(2.0, size=M)
    est = cls(rng.gamma(2.0, size=(100, M)), lambda x: x.sum(axis=1), K=20,
              rng=np.random.default_rng(19))
    x, pi = est.sample(range(M), x_star)
    assert pi is None and np.array_equal(x, np.tile(x_star, (20, 1)))
    assert est.contribution(set(range(M)), x_star) == pytest.approx(x_star.sum(), rel=1e-15)


def test_gaussian_chunks_bound_the_model_stacks():
    """A full sample_all at M = 12 builds its models in chunks of
    PREDICT_CELLS // 144 = 455 coalitions.  Its traced peak is about 0.8 MB
    on NumPy 2.4; one stack per size over all 4,094 coalitions peaks at
    about 4.2 MB."""
    rng = np.random.default_rng(16)
    est = GaussianCopulaEstimator(rng.gamma(2.0, size=(100, 12)), row_wise, K=1,
                                  rng=np.random.default_rng(17))
    x_star = rng.gamma(2.0, size=12)
    tracemalloc.start()
    try:
        for _ in est.sample_all(x_star):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
    x = train[est._explanation].copy()
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


class TailOverflowClayton(ClaytonCopula):
    """A Clayton pair whose log density overflows to -inf in its lower tail."""

    def step(self, x, y, second=False, first=False, log_density=False):
        *hs, log_c = super().step(x, y, second, first, log_density)
        if log_density:
            log_c = np.where(np.minimum(x, y) < 0.05, -np.inf, log_c)
        return *hs, log_c


def test_ratio_non_finite_log_weight_raises_numeric_error():
    # the rows whose log weight is not finite must not silently get weight 0;
    # Clayton at the fit cap theta = 50 itself stays finite at the training minimum
    train = np.random.default_rng(49).normal(size=(100, 3))
    x_star = train.min(axis=0)

    def estimator(copula):
        plan, models = build_vine_models(train, "ratio", copula)
        return VineRatioEstimator(train, lambda x: x[:, 0], models, plan, K=50,
                                  rng=np.random.default_rng(50))

    assert np.all(np.isfinite(shapley(estimator(ClaytonCopula(50.0)), x_star).phi))
    with pytest.raises(NumericError, match="not finite"):
        shapley(estimator(TailOverflowClayton(50.0)), x_star)


def test_shared_subsample_across_coalitions():
    rng = np.random.default_rng(28)
    train = rng.normal(size=(300, 3))
    plan, models = build_vine_models(train, "ratio", GaussianCopula(0.5))
    est = VineRatioEstimator(train, lambda x: np.atleast_2d(x)[:, 0],
                             models, plan, K=50, rng=np.random.default_rng(29))
    est.begin_explanation(train[0])
    idx1 = est._explanation.copy()
    est.contribution({0}, train[0])
    est.contribution({1, 2}, train[0])
    assert np.array_equal(est._explanation, idx1)


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


def test_estimator_k_must_be_an_integer_of_at_least_one():
    # int(K) turned 2.5 into 2, True into 1 and "10" into 10
    train = np.ones((10, 2))
    for K in (2.5, True, "10", "abc", None, 0, -1, np.float64(3.0)):
        with pytest.raises(InvalidInputError, match="K must be an integer"):
            IndependenceEstimator(train, row_wise, K=K)
    est = IndependenceEstimator(train, row_wise, K=np.int64(3))
    assert est.K == 3 and type(est.K) is int


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
    values = {0: float(np.mean(est.predict(est.train_x))),
              full: float(est.predict(x_star[None, :])[0])}
    for mask in range(1, full):
        features = frozenset(j for j in range(est.M) if mask >> j & 1)
        values[mask] = est.contribution(features, x_star)
    return values


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("M", [3, 5, 8])
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

    def _draws(self, masks, x_star):
        for mask in masks:
            n = 4 * self.K if mask == 0b10 else self.K
            x = self._pinned(self.rng.integers(0, len(self.train_x), size=n), mask, x_star)
            self.drawn.append(x)
            yield mask, x, None


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


def predictor_counts(expl, method):
    """The row's predictor counts; the ratio estimator, and only it, also
    reports the ESS of its weights, and the Gaussian baselines alone their
    ridge flags."""
    extra = {"ratio": {"ess", "ess_min"}, "gaussian": {"ridge_flagged"},
             "gaussian-copula": {"ridge_flagged"}}.get(method, set())
    assert set(expl.diagnostics) == {"predictor_calls", "predictor_rows"} | extra
    return expl.diagnostics["predictor_calls"], expl.diagnostics["predictor_rows"]


@pytest.mark.parametrize("method", METHODS)
def test_one_predictor_call_per_query_row(method):
    train = np.random.default_rng(45).normal(size=(200, 4))
    pred = CountingPredictor(row_wise)
    est = make_estimator(method, train, pred, 46, K=1000)
    first = shapley(est, train[0])  # v(empty)'s training rows join the first call
    assert [len(b) for b in pred.batches] == [200 + 14 * 1000 + 1]
    assert np.array_equal(pred.batches[0][:200], train)
    assert predictor_counts(first, method) == (1, 14201)
    second = shapley(est, train[1])
    assert [len(b) for b in pred.batches[1:]] == [14 * 1000 + 1]
    assert predictor_counts(second, method) == (1, 14001)
    assert (est.predictor_calls, est.predictor_rows) == (2, 28202)


def test_shapley_reports_the_ess_of_the_weights_it_averaged_with(monkeypatch):
    """ESS per coalition, 1/sum(pi^2) of the pi `shapley` averaged with: no
    further vine pass, and equal to `effective_sample_size`'s own pass."""
    train = np.random.default_rng(53).normal(size=(100, 4))
    x_star = train[3]
    passes = []
    trees = dvine._trees

    def counted_pass(V, *args):
        passes.append(V.shape[1])  # rows: V stacks the order positions
        return trees(V, *args)

    monkeypatch.setattr(dvine, "_trees", counted_pass)
    est = make_estimator("ratio", train, row_wise, 54)
    expl = shapley(est, x_star)
    assert len(passes) == len({index for index, _, _ in est.plan.assignment.values()})
    ess = expl.diagnostics["ess"]
    assert list(ess) == list(range(1, 15))
    assert expl.diagnostics["ess_min"] == min(ess.values())
    for mask, value in ess.items():
        assert value == est.effective_sample_size(set_of(mask), x_star)
        assert 1.0 <= value <= est.K


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
        shapley(est, x_star)  # caches v(empty) from the good predictor; the batch alone is bad
        est.predictor = bad
        with pytest.raises(NumericError):
            shapley(est, x_star)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("M", [2, 3, 5])
def test_shapley_rows_equal_the_per_row_loop(monkeypatch, method, M):
    """One predictor stream for all rows gives each row the per-row loop's
    draws, so phi, every v(S) and the ESS agree bit for bit, and each row
    sends the same rows; a batch of 70 rows holds the draws of two rows."""
    monkeypatch.setattr(explain, "PREDICT_CELLS", M * 70)
    train = np.random.default_rng(57).normal(size=(60, M))
    X_star = np.vstack([train[:3], [train[:, 0].max() + 1.0, *train[0, 1:]]])
    loop_est = make_estimator(method, train, row_wise, 58, K=20)
    loop = [shapley(loop_est, x_star) for x_star in X_star]
    est = make_estimator(method, train, row_wise, 58, K=20)
    rows = shapley_rows(est, X_star)
    assert len(rows) == len(X_star)
    for a, b in zip(rows, loop):
        assert a.phi0 == b.phi0 and np.array_equal(a.phi, b.phi)
        assert list(a.values.items()) == list(b.values.items())
        assert a.diagnostics.get("ess") == b.diagnostics.get("ess")
        assert a.diagnostics.get("ess_min") == b.diagnostics.get("ess_min")
        assert a.diagnostics["predictor_rows"] == b.diagnostics["predictor_rows"]
    assert est.predictor_rows == loop_est.predictor_rows
    assert est.predictor_calls <= loop_est.predictor_calls
    # some call carried the draws of two rows, so it counts for both
    assert sum(e.diagnostics["predictor_calls"] for e in rows) > est.predictor_calls


@pytest.mark.parametrize("method", METHODS)
def test_shapley_rows_of_no_rows_make_no_predictor_call(method):
    train = np.random.default_rng(59).normal(size=(50, 3))
    est = make_estimator(method, train, row_wise, 60)
    assert shapley_rows(est, np.empty((0, 3))) == []
    assert est.predictor_calls == 0 and est._v_empty is None


def never_called(x):
    raise AssertionError("the predictor was called")


def with_nan(train):
    train = train.copy()
    train[5, 1] = np.nan
    return train


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [lambda t: t[:, 0], lambda t: t[None], with_nan,
                                 lambda t: t[:0]], ids=["1-d", "3-d", "nan", "empty"])
def test_estimators_reject_a_training_table_that_is_not_finite_and_2d(method, bad):
    # the 1-D table ended in IndexError, the 3-D one in np.concatenate's
    # ValueError, and the NaN one in NumericError blaming the predictor
    train = np.random.default_rng(63).normal(size=(100, 3))
    est = make_estimator(method, train, never_called, 64)
    args = (est.models, est.plan) if method in ("condsim", "ratio") else ()
    with pytest.raises(InvalidInputError, match="training set"):
        type(est)(bad(train), never_called, *args, K=50)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 4)), np.zeros((1, 2)),
                                 np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 1.0]])])
def test_shapley_rows_reject_bad_query_rows_before_any_call(bad):
    train = np.random.default_rng(61).normal(size=(50, 3))
    est = make_estimator("independence", train, row_wise, 62)
    with pytest.raises(InvalidInputError, match="query point"):
        shapley_rows(est, bad)
    assert est.predictor_calls == 0


@pytest.mark.parametrize("cells", [0, -5, 2.5, True, float("nan"), "abc", np.float64(64.0)],
                         ids=repr)
def test_shapley_rows_reject_a_cell_budget_that_is_not_a_count(cells):
    # 0 ran at `PREDICT_CELLS`, -5, 2.5, True and nan at one row per call,
    # and "abc" ended in a bare TypeError
    train = np.random.default_rng(61).normal(size=(50, 3))
    est = make_estimator("independence", train, row_wise, 62)
    with pytest.raises(InvalidInputError, match="cells must be None or an integer >= 1"):
        shapley_rows(est, train[:2], cells)
    assert est.predictor_calls == 0


@pytest.mark.parametrize("cells", [None, 1, np.int64(150), 1 << 20])
def test_shapley_rows_take_none_or_an_integer_cell_budget(cells):
    train = np.random.default_rng(61).normal(size=(50, 3))
    want = shapley_rows(make_estimator("independence", train, row_wise, 62), train[:2])
    got = shapley_rows(make_estimator("independence", train, row_wise, 62), train[:2], cells)
    assert all(np.array_equal(a.phi, b.phi) for a, b in zip(got, want))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("features", [{0, 5}, {3}, {-1}, {0.5}], ids=repr)
def test_sample_rejects_a_feature_that_is_not_an_index(method, features):
    # the Gaussian baselines drew v({0}) for {0, 5}; the others ended in a
    # bare IndexError, and every estimator in a ValueError for {-1} and a
    # TypeError for {0.5}
    train = np.random.default_rng(57).normal(size=(100, 3))
    est = make_estimator(method, train, never_called, 58)
    for call in (est.sample, est.contribution):
        with pytest.raises(InvalidInputError, match="features"):
            call(features, train[0])


@pytest.mark.parametrize("method", METHODS)
def test_sample_of_the_full_coalition_is_x_star_without_a_draw(method):
    # the vine estimators raised CoverageError; the ratio one named the
    # complement, "features []"
    train = np.random.default_rng(65).normal(size=(100, 3))
    est = make_estimator(method, train, row_wise, 66, K=20)
    state = est.rng.bit_generator.state
    x, pi = est.sample({0, 1, 2}, train[4])
    assert pi is None and np.array_equal(x, np.tile(train[4], (20, 1)))
    assert est.rng.bit_generator.state == state
    assert est.contribution({0, 1, 2}, train[4]) == pytest.approx(row_wise(train[4:5])[0])


@pytest.mark.parametrize("method", ["condsim", "ratio"])
def test_vine_sample_of_the_empty_coalition_points_to_shapley(method):
    # the ratio estimator's message named the complement, "features [0, 1, 2]"
    train = np.random.default_rng(67).normal(size=(100, 3))
    est = make_estimator(method, train, never_called, 68)
    for call in (est.sample, est.contribution):
        with pytest.raises(CoverageError, match=r"coalition \[\] .*`shapley`"):
            call(set(), train[0])


# ----------------------------------------------------------------------
# vine-ratio: one stacked straddling-pair pass per serving order

def test_ratio_pass_stacks_coalitions_within_the_row_budget(monkeypatch):
    M, K = 4, 20
    train = np.random.default_rng(49).normal(size=(100, M))
    x_star = train[7]
    expected = shapley(make_estimator("ratio", train, row_wise, 50, K), x_star)
    rows = []

    def counted(copula, x, y, slots):
        if "log_density" in slots:
            rows.append(len(x))

    count_steps(monkeypatch, counted)
    passes = []
    trees = dvine._trees

    def counted_pass(V, *args):
        passes.append(V.shape[1])  # rows: V stacks the order positions
        return trees(V, *args)

    monkeypatch.setattr(dvine, "_trees", counted_pass)
    monkeypatch.setattr(explain, "PREDICT_CELLS", M * 50)  # 50 rows: two coalitions
    est = make_estimator("ratio", train, row_wise, 50, K)
    expl = shapley(est, x_star)
    # one log-density call per straddled pair of a serving order, of K
    # points per distinct overlap, though the budget holds two coalitions
    assert sorted(rows) == sorted(K * len(overlaps)
                                  for overlaps in straddled_overlaps(est.plan).values())
    # one subsample pass per serving order, though some order serves three
    # or more coalitions
    served = [index for index, _, _ in est.plan.assignment.values()]
    assert passes == [K + 1] * len(set(served))
    assert max(map(served.count, served)) > 2
    assert expl.phi0 == expected.phi0 and np.array_equal(expl.phi, expected.phi)
    assert list(expl.values) == [0, (1 << M) - 1, *range(1, (1 << M) - 1)]


def test_ratio_uncovered_complement_raises_coverage_error():
    train = np.random.default_rng(51).normal(size=(100, 3))
    est = make_estimator("ratio", train, row_wise, 52)
    del est.plan.assignment[0b001]  # {0}, whose complement block {1, 2} is now unserved
    with pytest.raises(CoverageError):
        shapley(est, train[0])
    with pytest.raises(CoverageError, match=r"coalition \[0\] "):  # S, not its complement
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
