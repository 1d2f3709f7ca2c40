import numpy as np
import pytest
from scipy import integrate, stats

from vineshap import (BurrParams, ExperimentConfig, InvalidInputError,
                      analytic_mean_predictor, burr_conditional_params,
                      burr_conditional_sample, burr_log_density,
                      burr_sample, generate_response, knn_predictor, mae,
                      response_mean_from_u, run_experiment, run_repetition,
                      study_params, true_shapley, truth_vine)
from vineshap.simstudy import marginal


# ----------------------------------------------------------------------
# parameters

def test_params_validation():
    with pytest.raises(InvalidInputError):
        BurrParams(p=-1, b=[1], r=[1])
    with pytest.raises(InvalidInputError):
        BurrParams(p=1, b=[1, 2], r=[1])
    for p, b, r in ((np.nan, [1], [1]), (np.inf, [1], [1]),
                    (1, [1, np.nan], [1, 1]), (1, [1], [np.inf])):
        with pytest.raises(InvalidInputError, match="finite"):
            BurrParams(p=p, b=b, r=r)


def test_study_params_grid():
    p = study_params(0.5, M=10)
    assert p.b == (2, 4, 6, 2, 4, 6, 2, 4, 6, 6)
    assert p.r == (1, 3, 5, 1, 3, 5, 1, 3, 5, 5)
    assert study_params(1.0, M=4).b == (2, 4, 6, 2)


# ----------------------------------------------------------------------
# density

def test_density_m1_unit_params():
    # p=b=r=1 gives f(x) = 1/(1+x)^2, -> 1 as x -> 0+
    params = BurrParams(p=1, b=[1], r=[1])
    x = np.array([[1e-9]])
    assert np.exp(burr_log_density(params, x))[0] == pytest.approx(1.0, abs=1e-6)
    assert np.exp(burr_log_density(params, [[1.0]]))[0] == pytest.approx(0.25)


def test_density_integrates_to_one_m2():
    params = BurrParams(p=1, b=[2, 4], r=[1, 3])
    val, err = integrate.dblquad(
        lambda y, x: np.exp(burr_log_density(params, [[x, y]]))[0],
        0, np.inf, 0, np.inf)
    assert abs(val - 1.0) < 1e-3


def test_density_positive_on_grid():
    params = study_params(1.0, M=2)
    g = np.linspace(0.1, 3.0, 10)
    xx, yy = np.meshgrid(g, g)
    d = np.exp(burr_log_density(params, np.column_stack([xx.ravel(), yy.ravel()])))
    assert np.all(d > 0) and np.all(np.isfinite(d))


def test_density_zero_outside_support():
    params = BurrParams(p=1, b=[1], r=[1])
    assert np.exp(burr_log_density(params, [[-1.0]]))[0] == 0.0


# ----------------------------------------------------------------------
# sampling

def test_sample_marginal_ks():
    params = study_params(1.0, M=3)
    x = burr_sample(params, 20000, np.random.default_rng(0))
    m0 = marginal(params, 0)
    ks = stats.kstest(x[:, 0], lambda t: np.asarray(m0.cdf(t)))
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("p,tau", [(0.5, 0.5), (1.0, 1 / 3), (1.5, 0.25)])
def test_pairwise_kendall_tau_law(p, tau):
    params = study_params(p, M=3)
    x = burr_sample(params, 10000, np.random.default_rng(1))
    t = stats.kendalltau(x[:, 0], x[:, 1]).statistic
    assert abs(t - tau) < 0.02


def test_copula_is_survival_clayton_theta_one_over_p():
    from vineshap import fit_parametric, ClaytonCopula
    p = 1.0
    params = study_params(p, M=2)
    x = burr_sample(params, 5000, np.random.default_rng(2))
    u = np.column_stack([marginal(params, j).cdf(x[:, j]) for j in range(2)])
    cop = fit_parametric(u)
    assert isinstance(cop, ClaytonCopula)
    assert cop.rotation == 180
    assert abs(cop.theta - 1.0 / p) < 0.1 / p


# ----------------------------------------------------------------------
# conditionals

def test_conditional_params_example():
    # M=3, p=1, condition on feature 2 with r_3 x^b_3 = 1
    params = BurrParams(p=1, b=[2, 4, 6], r=[1, 3, 5])
    x_star = np.zeros(3)
    x_star[2] = (1.0 / 5.0) ** (1.0 / 6.0)   # r3 * x^b3 = 1
    cond, sbar = burr_conditional_params(params, {2}, x_star)
    assert cond.p == pytest.approx(2.0)
    assert sbar == [0, 1]
    assert cond.r == pytest.approx((1 / 2, 3 / 2))
    assert cond.b == (2, 4)


def test_conditional_params_limit_x_to_zero():
    params = study_params(1.0, M=3)
    cond, _ = burr_conditional_params(params, {0}, np.array([1e-12, 0, 0]))
    assert cond.p == pytest.approx(2.0)
    assert np.allclose(cond.r, params.r[1:], rtol=1e-6)


def test_conditional_density_bayes_consistency():
    params = BurrParams(p=1.2, b=[2, 4], r=[1, 3])
    x1 = 0.8
    m0 = BurrParams(p=params.p, b=[params.b[0]], r=[params.r[0]])
    cond, _ = burr_conditional_params(params, {0}, np.array([x1, 0.0]))
    grid = np.linspace(0.05, 2.0, 40)
    joint = np.array([np.exp(burr_log_density(params, [[x1, y]]))[0] for y in grid])
    marg = np.exp(burr_log_density(m0, [[x1]]))[0]
    conditional = np.array([np.exp(burr_log_density(cond, [[y]]))[0] for y in grid])
    assert np.max(np.abs(joint / marg - conditional)) < 1e-10


def test_conditional_sample_ks_against_analytic():
    params = study_params(1.0, M=3)
    x_star = np.array([0.8, 0.0, 0.0])
    samp = burr_conditional_sample(params, {0}, x_star, 10000,
                                   np.random.default_rng(3))
    cond, sbar = burr_conditional_params(params, {0}, x_star)
    assert samp.shape == (10000, 2)
    m0 = BurrParams(p=cond.p, b=[cond.b[0]], r=[cond.r[0]])
    from vineshap.simstudy import BurrMarginal
    cm = BurrMarginal(cond.p, cond.b[0], cond.r[0])
    ks = stats.kstest(samp[:, 0], lambda t: np.asarray(cm.cdf(t)))
    assert ks.pvalue > 0.01


def test_conditional_sample_univariate_when_all_but_one():
    params = study_params(1.0, M=3)
    samp = burr_conditional_sample(params, {0, 2}, np.array([1.0, 0.0, 1.0]),
                                   50, np.random.default_rng(4))
    assert samp.shape == (50, 1)


def test_conditional_tau_reflects_shifted_p():
    params = study_params(0.5, M=4)
    x_star = np.full(4, 0.5)
    samp = burr_conditional_sample(params, {0, 1}, x_star, 10000,
                                   np.random.default_rng(5))
    t = stats.kendalltau(samp[:, 0], samp[:, 1]).statistic
    want = 1.0 / (1.0 + 2.0 * (params.p + 2))
    assert abs(t - want) < 0.03


# ----------------------------------------------------------------------
# response

def test_response_zero_at_origin():
    assert response_mean_from_u(np.zeros((1, 10)))[0] == 0.0


def test_response_all_ones():
    y = response_mean_from_u(np.ones((1, 10)))[0]
    assert y == pytest.approx(3 * np.exp(1.8))
    assert y == pytest.approx(18.149, abs=0.001)


def test_response_m4_reduced_form():
    u = np.array([[0.5, 0.4, 0.3, 0.2]])
    want = 0.5 * 0.4 * np.exp(1.8 * 0.3 * 0.2)
    assert response_mean_from_u(u)[0] == pytest.approx(want)


def test_generate_response_deterministic_without_noise():
    params = study_params(1.0, M=3)
    x = burr_sample(params, 20, np.random.default_rng(6))
    y1 = generate_response(x, params, noise_scale=0.0)
    y2 = generate_response(x, params, noise_scale=0.0)
    assert np.array_equal(y1, y2)


def test_generate_response_requires_rng_with_noise():
    params = study_params(1.0, M=3)
    x = burr_sample(params, 5, np.random.default_rng(7))
    with pytest.raises(InvalidInputError):
        generate_response(x, params, noise_scale=0.5)


def test_generate_response_rejects_nonpositive_x():
    params = study_params(1.0, M=2)
    with pytest.raises(InvalidInputError):
        generate_response(np.array([[1.0, -1.0]]), params, 0.0)


# ----------------------------------------------------------------------
# truth vine

def test_truth_vine_matches_analytic_copula_density():
    p = 1.0
    params = study_params(p, M=4)
    model = truth_vine(params)
    rng = np.random.default_rng(8)
    x = burr_sample(params, 200, rng)
    u = np.column_stack([marginal(params, j).cdf(x[:, j]) for j in range(4)])
    vine_ld = model.copula_log_density(u)
    # analytic copula log-density: joint minus sum of marginal log-pdfs
    xs = np.column_stack([marginal(params, j).quantile(u[:, j]) for j in range(4)])
    joint = burr_log_density(params, xs)
    marg = sum(np.log(marginal(params, j).pdf(xs[:, j])) for j in range(4))
    assert np.max(np.abs(vine_ld - (joint - marg))) < 1e-10


# ----------------------------------------------------------------------
# oracle and scoring

def test_true_shapley_constant_predictor():
    params = study_params(1.0, M=3)
    g = lambda x: np.full(np.atleast_2d(x).shape[0], 4.0)
    expl = true_shapley(params, g, np.ones(3), 1000, np.random.default_rng(9))
    assert np.allclose(expl.phi, 0.0, atol=1e-10)
    assert expl.phi0 == pytest.approx(4.0)


def test_true_shapley_efficiency():
    params = study_params(1.0, M=3)
    g = analytic_mean_predictor(params)
    x_star = burr_sample(params, 1, np.random.default_rng(10))[0]
    expl = true_shapley(params, g, x_star, 1000, np.random.default_rng(11))
    gx = float(np.asarray(g(x_star[None, :]))[0])
    assert abs(expl.phi0 + expl.phi.sum() - gx) < 1e-10


def test_true_shapley_rejects_small_k():
    params = study_params(1.0, M=2)
    with pytest.raises(InvalidInputError):
        true_shapley(params, lambda x: np.zeros(np.atleast_2d(x).shape[0]),
                     np.ones(2), K_oracle=10)


def test_mae_examples():
    assert mae(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0
    assert mae(np.ones((4, 5)), np.zeros((4, 5))) == 1.0
    assert mae(np.array([[0.0, 0.0]]), np.array([[1.0, -1.0]])) == 1.0
    with pytest.raises(InvalidInputError):
        mae(np.zeros((2, 2)), np.zeros((3, 2)))


def test_knn_predictor_interpolates_training_points():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 2))
    y = x[:, 0] + x[:, 1]
    g = knn_predictor(x, y, k=1)
    assert np.allclose(g(x[:5]), y[:5], atol=1e-8)


# ----------------------------------------------------------------------
# harness

def tiny_config(**kw):
    defaults = dict(
        burr=study_params(1.0, M=3), n_train=120, n_test=2, repetitions=2,
        K=100, K_oracle=1000, methods=("independence", "gaussian-copula"),
        predictor="analytic-mean", seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_repetition_deterministic():
    config = tiny_config()
    a = run_repetition(config, 0)
    b = run_repetition(config, 0)
    assert a[0] == b[0]          # identical (method, rep, mae) rows


def test_run_experiment_shapes_and_summary():
    config = tiny_config()
    report = run_experiment(config)
    assert len(report.rows) == 2 * 2          # methods x reps
    assert len(report.summary) == 2
    methods = [m for m, _, _ in report.summary]
    assert methods == ["independence", "gaussian-copula"]


def test_run_experiment_workers_match_serial():
    config = tiny_config()
    serial = run_experiment(config, workers=1)
    par = run_experiment(config, workers=2)
    assert serial.rows == par.rows


def test_config_validation():
    with pytest.raises(InvalidInputError):
        tiny_config(n_train=10).validate()
    with pytest.raises(InvalidInputError):
        tiny_config(methods=("nope",)).validate()
    with pytest.raises(InvalidInputError):
        tiny_config(predictor="forest").validate()


def test_weak_dependence_sanity():
    # near-independent Burr: the independence estimator is already good
    config = tiny_config(burr=study_params(50.0, M=3),
                         methods=("independence",), repetitions=1)
    report = run_experiment(config)
    assert report.rows[0][2] < 0.05
