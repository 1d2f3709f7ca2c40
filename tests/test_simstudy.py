import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from vineshap import (BurrParams, ExperimentConfig, InvalidInputError,
                      analytic_mean_predictor, burr_conditional_params,
                      burr_log_density, burr_sample, generate_response,
                      knn_predictor, mae, response_mean_from_u, run_experiment,
                      run_repetition, study_params, true_shapley, truth_vine)
from vineshap import shapley, simstudy
from vineshap.explain import ContributionEstimator
from vineshap.simstudy import METHOD_TAGS, marginal

from helpers import (reference_analytic_mean_predictor, reference_burr_cdf,
                     reference_burr_sample, reference_true_shapley)


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


@pytest.mark.parametrize("M", [2.5, 3.0, True, "3", None, 0, 11])
def test_study_params_refuses_an_m_that_is_not_an_integer_in_1_to_10(M):
    with pytest.raises(InvalidInputError, match="integer M in 1..10"):
        study_params(0.5, M)


def test_study_params_takes_a_numpy_integer_m():
    assert study_params(0.5, np.int64(3)) == study_params(0.5, 3)
    assert study_params(0.5, np.int8(10)) == study_params(0.5, 10)


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
    cond, sbar = burr_conditional_params(params, {0}, x_star)
    samp = burr_sample(cond, 10000, np.random.default_rng(3))
    assert samp.shape == (10000, 2)
    m0 = BurrParams(p=cond.p, b=[cond.b[0]], r=[cond.r[0]])
    from vineshap.simstudy import BurrMarginal
    cm = BurrMarginal(cond.p, cond.b[0], cond.r[0])
    ks = stats.kstest(samp[:, 0], lambda t: np.asarray(cm.cdf(t)))
    assert ks.pvalue > 0.01


def test_conditional_sample_univariate_when_all_but_one():
    params = study_params(1.0, M=3)
    cond, _ = burr_conditional_params(params, {0, 2}, np.array([1.0, 0.0, 1.0]))
    samp = burr_sample(cond, 50, np.random.default_rng(4))
    assert samp.shape == (50, 1)


def test_conditional_tau_reflects_shifted_p():
    params = study_params(0.5, M=4)
    x_star = np.full(4, 0.5)
    cond, _ = burr_conditional_params(params, {0, 1}, x_star)
    samp = burr_sample(cond, 10000, np.random.default_rng(5))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_generate_response_rejects_non_finite_x(bad):
    # a NaN passes x <= 0 and gives a NaN response; +inf gives a finite one
    with pytest.raises(InvalidInputError, match="finite"):
        generate_response([[1.0, 1.0, 1.0], [1.0, bad, 1.0]], study_params(0.5, 3), 0.0)


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


def never_called(x):
    raise AssertionError("the oracle called its predictor before checking its input")


@pytest.mark.parametrize("x_star", [
    pytest.param(np.ones(4), id="shape-4"),
    pytest.param(np.ones(2), id="shape-2"),
    pytest.param(np.ones((1, 3)), id="shape-1x3"),
    pytest.param([1.0, np.nan, 1.0], id="nan"),
    pytest.param([1.0, np.inf, 1.0], id="inf"),
    pytest.param([1.0, -2.0, 1.0], id="negative"),
    pytest.param([1.0, 0.0, 1.0], id="zero"),
])
def test_true_shapley_rejects_x_star_off_the_burr_support(x_star):
    with pytest.raises(InvalidInputError, match="x\\* must be 3 finite positive"):
        true_shapley(study_params(1.0, M=3), never_called, x_star, 1000)


@pytest.mark.parametrize("K_oracle", [1000.5, 2000.0, "2000", True, 999, np.int64(999)])
def test_true_shapley_rejects_a_k_oracle_that_is_not_an_integer_from_1000(K_oracle):
    """The floor is `CONFIG_BOUNDS["K_oracle"]`'s, checked by `check_field`."""
    with pytest.raises(InvalidInputError, match="K_oracle must be a finite int >= 1000"):
        true_shapley(study_params(1.0, M=3), never_called, np.ones(3), K_oracle)


@settings(max_examples=12, deadline=None)
@given(M=st.sampled_from([2, 3, 5, 8]), knn=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
@example(M=2, knn=True, seed=0, data=None)
@example(M=3, knn=False, seed=1, data=None)
@example(M=5, knn=True, seed=2, data=None)
@example(M=8, knn=False, seed=3, data=None)
def test_true_shapley_is_bit_identical_to_a_new_table_per_coalition(M, knn, seed, data):
    """The refilled column-major buffer and the in-place sampler give every
    v(S) and phi of the per-coalition layout bit for bit, from the same
    random stream."""
    params = study_params(0.5, M)
    rng = np.random.default_rng(seed)
    if data is None:
        x_star = burr_sample(params, 1, rng)[0]
    else:
        x_star = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=M, max_size=M)))
    if knn:
        train = burr_sample(params, 200, rng)
        g = g_ref = knn_predictor(train, generate_response(train, params, 0.5, rng))
    else:
        g, g_ref = analytic_mean_predictor(params), reference_analytic_mean_predictor(params)
    got = true_shapley(params, g, x_star, 1000, np.random.default_rng(seed))
    values, phi = reference_true_shapley(params, g_ref, x_star, 1000,
                                         np.random.default_rng(seed))
    assert got.values == values and list(got.values) == list(values)
    assert np.array_equal(got.phi, phi)


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_burr_sample_is_bit_identical_to_its_out_of_place_form(n):
    params = study_params(0.5, M=10)
    assert np.array_equal(burr_sample(params, n, np.random.default_rng(n)),
                          reference_burr_sample(params, n, np.random.default_rng(n)))


def test_mae_examples():
    assert mae(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0
    assert mae(np.ones((4, 5)), np.zeros((4, 5))) == 1.0
    assert mae(np.array([[0.0, 0.0]]), np.array([[1.0, -1.0]])) == 1.0
    with pytest.raises(InvalidInputError):
        mae(np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("M", [1, 4, 6, 10])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_analytic_mean_predictor_is_bit_identical_in_either_memory_order(M, n):
    """M = 1, 4, 6 and 10 end the table inside or after each term of the
    response formula; zero and negative entries hit the cdf's clip."""
    params = study_params(0.5, M)
    x = burr_sample(params, n, np.random.default_rng(M))
    x[::3, 0] = 0.0
    x[1::4, -1] = -1.5
    want = reference_analytic_mean_predictor(params)(x)
    g = analytic_mean_predictor(params)
    assert np.array_equal(g(x), want)
    assert np.array_equal(g(np.asfortranarray(x)), want)
    assert np.array_equal(g(x[0]), want[:1])
    assert np.array_equal(marginal(params, 0).cdf(x[:, 0]),
                          reference_burr_cdf(marginal(params, 0), x[:, 0]))


def test_burr_cdf_keeps_the_shape_of_its_input():
    m = marginal(study_params(0.5, M=1), 0)
    assert m.cdf(0.7).shape == () and m.cdf(0.7) == reference_burr_cdf(m, 0.7)
    assert m.cdf([[0.7, -1.0]]).shape == (1, 2)


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 4), (2, 5), (3,), ()])
def test_analytic_mean_predictor_rejects_a_table_without_m_columns(shape):
    g = analytic_mean_predictor(study_params(0.5, M=4))
    with pytest.raises(InvalidInputError, match="expected an \\(n, 4\\) table"):
        g(np.full(shape, 0.5))


def test_analytic_mean_predictor_takes_an_empty_table():
    y = analytic_mean_predictor(study_params(0.5, M=4))(np.empty((0, 4)))
    assert y.shape == (0,)


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


def test_run_repetition_explains_the_test_rows_in_one_stream(monkeypatch):
    """Each method's test rows go through one `shapley_rows` call: the MAE
    rows of a per-row `shapley` loop, bit for bit, from the same predictor
    rows in fewer calls."""
    config = tiny_config(n_test=3, methods=METHOD_TAGS)
    batches = []
    predict = ContributionEstimator.predict

    def counted(self, x):
        batches.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(ContributionEstimator, "predict", counted)
    rows, _ = run_repetition(config, 0)
    stream, batches[:] = list(batches), []
    monkeypatch.setattr(simstudy, "shapley_rows", lambda est, X: [shapley(est, x) for x in X])
    assert run_repetition(config, 0)[0] == rows
    assert sum(stream) == sum(batches)
    assert len(stream) < len(batches)


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


def edge_predictor(x):
    """Row-wise and nonlinear in every feature."""
    return np.tanh(x[:, 0]) * x[:, -1] + np.sqrt(np.abs(x).sum(axis=1))


@pytest.mark.parametrize("tag", METHOD_TAGS)
@settings(max_examples=25, deadline=None)
@given(M=st.sampled_from([2, 3, 5]), N=st.sampled_from([30, 200]), K=st.sampled_from([1, 50]),
       tied=st.booleans(), constant=st.booleans(), beyond=st.floats(0.0, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_method_gives_finite_efficient_phi_at_the_edges(
        tag, M, N, K, tied, constant, beyond, seed):
    """N at the fit floor, K = 1, a tied and a constant column, and x* past
    the training range: phi stays finite and sums to g(x*) - phi0."""
    rng = np.random.default_rng(seed)
    train = burr_sample(study_params(0.5, M=M), N, rng)
    if tied:
        train[:, 0] = np.round(train[:, 0])
    if constant:
        train[:, -1] = 1.0
    x_star = train[0].copy()
    x_star[M // 2] = train[:, M // 2].max() + beyond
    expl = shapley(simstudy._build_estimator(tag, train, edge_predictor, K, rng), x_star)
    g_star = edge_predictor(x_star[None, :])[0]
    assert np.all(np.isfinite(expl.phi)) and np.isfinite(expl.phi0)
    assert abs(expl.phi0 + expl.phi.sum() - g_star) <= 1e-8 * max(1.0, abs(g_star))


def test_config_validation(monkeypatch):
    def no_draw(*args):
        raise AssertionError("data drawn before the config was checked")

    monkeypatch.setattr(simstudy, "burr_sample", no_draw)
    for change in (dict(n_train=10), dict(methods=("nope",)), dict(predictor="forest"),
                   dict(seed=-1), dict(n_train=60.5), dict(K=2.5), dict(K=True),
                   dict(K_oracle=10), dict(noise_scale=-1), dict(noise_scale=np.nan),
                   dict(burr=None), dict(methods=None), dict(methods=())):
        config = tiny_config(**change)
        with pytest.raises(InvalidInputError):
            config.validate()
        with pytest.raises(InvalidInputError):
            run_experiment(config)
    for rep in (-1, True, 1.0):
        with pytest.raises(InvalidInputError, match="rep must be"):
            run_repetition(tiny_config(), rep)
    tiny_config(n_train=np.int64(120), K=np.int32(100), noise_scale=0).validate()


def test_weak_dependence_sanity():
    # near-independent Burr: the independence estimator is already good
    config = tiny_config(burr=study_params(50.0, M=3),
                         methods=("independence",), repetitions=1)
    report = run_experiment(config)
    assert report.rows[0][2] < 0.05
