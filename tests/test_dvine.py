import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import constant_vine, seeded_grid
from vineshap import (BurrMarginal, ClaytonCopula, CoverageError,
                      DVineModel, EmpiricalMarginal, GaussianCopula,
                      IndependenceCopula, InvalidInputError, NonparametricMode,
                      ParametricMode, burr_sample, fit_dvine, fit_vines, greedy_cover,
                      pseudo_observations, study_params)
from vineshap.bicop import EPS


def gaussian_vine(rhos, m=3, n_marg=100, seed=0):
    """All-Gaussian-pair D-vine with the identity order."""
    rng = np.random.default_rng(seed)
    marginals = [EmpiricalMarginal(rng.normal(size=n_marg)) for _ in range(m)]
    pairs, k = [], 0
    for i in range(m - 1):
        row = []
        for _ in range(m - 1 - i):
            row.append(GaussianCopula(rhos[k]))
            k += 1
        pairs.append(row)
    return DVineModel(tuple(range(m)), pairs, marginals)


def trivariate_gaussian_copula_logpdf(u, r12, r23, r13):
    z = stats.norm.ppf(u)
    R = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
    mvn = stats.multivariate_normal(mean=np.zeros(3), cov=R)
    return mvn.logpdf(z) - np.sum(stats.norm.logpdf(z), axis=-1)


def partial_to_plain(r12, r23, r13_2):
    return r13_2 * np.sqrt((1 - r12 ** 2) * (1 - r23 ** 2)) + r12 * r23


# ----------------------------------------------------------------------
# construction and densities

def test_invalid_order_rejected():
    m = [EmpiricalMarginal([0.0, 1.0]) for _ in range(2)]
    with pytest.raises(InvalidInputError):
        DVineModel((0, 0), [[IndependenceCopula()]], m)


def test_pair_table_shape_checked():
    m = [EmpiricalMarginal([0.0, 1.0]) for _ in range(3)]
    with pytest.raises(InvalidInputError):
        DVineModel((0, 1, 2), [[IndependenceCopula()]], m)


def test_all_independence_log_density_zero_any_order():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(100, 4))
    for order in [(0, 1, 2, 3), (2, 0, 3, 1)]:
        model = constant_vine(data, order, IndependenceCopula())
        u = rng.uniform(0.05, 0.95, size=(50, 4))
        assert np.allclose(model.copula_log_density(u), 0.0, atol=0)


def test_m2_density_is_single_pair():
    pc = GaussianCopula(0.5)
    marg = [EmpiricalMarginal([0.0, 1.0, 2.0]) for _ in range(2)]
    model = DVineModel((0, 1), [[pc]], marg)
    u = np.random.default_rng(2).uniform(0.05, 0.95, size=(20, 2))
    assert np.allclose(model.copula_log_density(u),
                       pc.log_density(u[:, 0], u[:, 1]), atol=1e-14)


def test_m3_gaussian_matches_trivariate_closed_form():
    r12, r23, r13_2 = 0.5, -0.3, 0.4
    model = gaussian_vine([r12, r23, r13_2])
    r13 = partial_to_plain(r12, r23, r13_2)
    u = np.random.default_rng(3).uniform(0.02, 0.98, size=(1000, 3))
    got = model.copula_log_density(u)
    want = trivariate_gaussian_copula_logpdf(u, r12, r23, r13)
    assert np.max(np.abs(got - want)) < 1e-8


def test_marginal_block_length_one_is_uniform():
    model = gaussian_vine([0.5, -0.3, 0.4])
    assert model.marginal_copula_log_density((1, 1), [[0.3]]) == 0.0


def test_marginal_full_block_equals_joint():
    model = gaussian_vine([0.5, -0.3, 0.4])
    u = np.random.default_rng(4).uniform(0.05, 0.95, size=(100, 3))
    joint = model.copula_log_density(u)
    block = model.marginal_copula_log_density((0, 2), u[:, model.order])
    assert np.allclose(joint, block, atol=0)


def test_marginal_pair_block_is_bivariate_gaussian():
    r12 = 0.5
    model = gaussian_vine([r12, -0.3, 0.4])
    pc = GaussianCopula(r12)
    u = np.random.default_rng(5).uniform(0.05, 0.95, size=(50, 2))
    got = model.marginal_copula_log_density((0, 1), u)
    assert np.allclose(got, pc.log_density(u[:, 0], u[:, 1]), atol=1e-10)


def test_log_density_ratios_rejects_blocks_outside_the_order():
    model = gaussian_vine([0.5, -0.3, 0.4])
    u = np.full((4, 3), 0.5)
    for bad in ((2, 1), (-1, 1), (1, 3)):
        with pytest.raises(InvalidInputError):
            model.log_density_ratios(u, u[0], [(0, 1), bad])


# ----------------------------------------------------------------------
# fitting

def test_fit_m2_reduces_to_single_parametric_fit():
    rng = np.random.default_rng(6)
    c = ClaytonCopula(2.0)
    v = rng.uniform(size=1000)
    u = c.hinv(rng.uniform(size=1000), v, "second")
    data = np.column_stack([stats.norm.ppf(u), stats.norm.ppf(v)])
    model = fit_dvine(data, (0, 1), ParametricMode())
    assert len(model.pairs) == 1 and len(model.pairs[0]) == 1
    from vineshap.bicop import fit_parametric
    direct = fit_parametric(pseudo_observations(data, model.marginals))
    assert type(model.pairs[0][0]) is type(direct)


def test_fit_requires_30_rows():
    rng = np.random.default_rng(7)
    with pytest.raises(InvalidInputError):
        fit_dvine(rng.normal(size=(20, 3)), (0, 1, 2), ParametricMode())


@pytest.mark.parametrize("mode", [ParametricMode(), NonparametricMode(grid_size=16)])
def test_fit_vines_fits_every_order_on_one_set_of_marginals(mode):
    data = np.random.default_rng(9).normal(size=(80, 4)) @ np.triu(np.ones((4, 4)))
    orders = greedy_cover(4, "condsim", rng=np.random.default_rng(10)).orders
    models = fit_vines(data, orders, mode)
    shared = models[0].marginals
    assert [m.order for m in models] == orders
    for model, order in zip(models, orders):
        assert model.marginals is shared
        assert model.to_dict() == fit_dvine(data, order, mode, marginals=shared).to_dict()


def test_fit_peak_memory_at_a_large_n():
    """The fit holds one tree's arguments at a time and scores them in
    chunks: at N = 200,000 and M = 6 its tracemalloc peak stays within
    1.25 times the 57.8 MB of the former per-position fit (NumPy 2.4)."""
    data = burr_sample(study_params(0.5, M=6), 200_000, np.random.default_rng(0))
    fit_dvine(data[:100], range(6))  # scipy.special's import is not the fit's
    tracemalloc.start()
    try:
        fit_dvine(data, range(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 57_844_871


def test_a_grid_of_one_node_fails_at_fit():
    with pytest.raises(InvalidInputError, match="grid_size"):
        fit_dvine(np.random.default_rng(8).normal(size=(40, 3)), (0, 1, 2),
                  NonparametricMode(1))


@pytest.mark.parametrize("grid_size", [2.5, "abc", "64"])
def test_nonparametric_mode_needs_an_integer_grid_size(grid_size):
    # "abc" raised a bare ValueError, 2.5 and "64" were truncated or parsed
    with pytest.raises(InvalidInputError, match="grid_size"):
        NonparametricMode(grid_size)


@pytest.mark.parametrize("data", [np.arange(40.0), np.full((40, 3), np.nan),
                                  np.ones((29, 3))])
def test_fit_vines_rejects_a_bad_table(data):
    with pytest.raises(InvalidInputError):
        fit_vines(data, [(0, 1, 2), (2, 0, 1)])


def test_fit_recovers_partial_correlation():
    r12, r23, r13_2 = 0.6, 0.5, 0.4
    r13 = partial_to_plain(r12, r23, r13_2)
    R = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
    rng = np.random.default_rng(8)
    data = rng.multivariate_normal(np.zeros(3), R, size=5000)
    model = fit_dvine(data, (0, 1, 2), ParametricMode())
    tree2 = model.pairs[1][0]
    assert isinstance(tree2, GaussianCopula)
    assert abs(tree2.rho - r13_2) < 0.05


# ----------------------------------------------------------------------
# Rosenblatt transform

def test_rosenblatt_independence_is_permuted_identity():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(100, 3))
    model = constant_vine(data, (2, 0, 1), IndependenceCopula())
    u = rng.uniform(0.05, 0.95, size=(20, 3))
    w = model.rosenblatt(u)
    assert np.allclose(w, u[:, (2, 0, 1)], atol=0)


def test_rosenblatt_m2_is_hfunc():
    pc = GaussianCopula(0.7)
    marg = [EmpiricalMarginal([0.0, 1.0]) for _ in range(2)]
    model = DVineModel((0, 1), [[pc]], marg)
    u = np.random.default_rng(10).uniform(0.05, 0.95, size=(30, 2))
    w = model.rosenblatt(u)
    assert np.allclose(w[:, 0], u[:, 0], atol=0)
    assert np.allclose(w[:, 1], pc.hfunc(u[:, 1], u[:, 0], "second"), atol=0)


@pytest.mark.parametrize("width", [2, 4])
def test_rosenblatt_rejects_wrong_column_count(width):
    model = gaussian_vine([0.6, 0.5, 0.4])
    u = np.random.default_rng(14).uniform(0.05, 0.95, size=(5, width))
    for transform in (model.rosenblatt, model.inverse_rosenblatt):
        with pytest.raises(InvalidInputError, match=f"expected 3 columns, got {width}"):
            transform(u)


def nonfinite_rows():
    """A 3-column u table: one good row, then a NaN, an inf and a -inf."""
    u = np.full((4, 3), 0.5)
    u[1:, 1] = [np.nan, np.inf, -np.inf]
    return u


@pytest.mark.parametrize("method", ["rosenblatt", "inverse_rosenblatt",
                                    "copula_log_density"])
def test_vine_methods_reject_a_nonfinite_input(method):
    # NaN used to pass through the clip and the h-pass into NaN outputs
    model = gaussian_vine([0.6, 0.5, 0.4])
    for row in nonfinite_rows()[1:]:
        with pytest.raises(InvalidInputError, match="finite"):
            getattr(model, method)(row)


def test_marginal_copula_log_density_rejects_a_nonfinite_input():
    model = gaussian_vine([0.6, 0.5, 0.4])
    for block, cols in (((0, 2), slice(None)), ((1, 2), slice(1, None))):
        for row in nonfinite_rows()[1:]:
            with pytest.raises(InvalidInputError, match="finite"):
                model.marginal_copula_log_density(block, row[cols])
    with pytest.raises(InvalidInputError, match="expected 2 columns, got 3"):
        model.marginal_copula_log_density((1, 2), nonfinite_rows()[0])


def test_u_at_0_and_1_is_clipped_where_it_enters():
    """The pair-copula steps of a vine pass do not clip their inputs: u is
    clipped once, where it enters.  So u = 0 and u = 1 give the bits that
    u = EPS and u = 1 - EPS give, with no RuntimeWarning, in every method
    that takes copula-scale input and in conditional_sample's draws."""
    pairs = [[ClaytonCopula(2.0), GaussianCopula(0.5), ClaytonCopula(3.0, 90)],
             [ClaytonCopula(1.5, 180), seeded_grid(1)], [ClaytonCopula(4.0, 270)]]
    data = np.random.default_rng(15).normal(size=(50, 4))
    model = DVineModel((2, 0, 3, 1), pairs, [EmpiricalMarginal(c) for c in data.T])
    rng = np.random.default_rng(16)
    edge = rng.choice([0.0, 1.0, 0.3, 0.8], size=(40, 4))
    edge[:2] = [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
    clipped = np.clip(edge, EPS, 1 - EPS)
    blocks = [(0, 1), (1, 3), (2, 2), (0, 3)]
    draws = [edge[:10, :2], edge[10:, 1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("copula_log_density", "rosenblatt", "inverse_rosenblatt"):
            assert np.array_equal(getattr(model, method)(edge),
                                  getattr(model, method)(clipped)), method
        assert np.array_equal(model.marginal_copula_log_density((1, 3), edge[:, :3]),
                              model.marginal_copula_log_density((1, 3), clipped[:, :3]))
        for u_star in edge[:3]:
            assert np.array_equal(
                model.log_density_ratios(edge, u_star, blocks),
                model.log_density_ratios(clipped, np.clip(u_star, EPS, 1 - EPS), blocks))
        coalitions = [set(model.order[:2]), set(model.order[:1])]
        got = model.conditional_sample(coalitions, data[0], draws)
        want = model.conditional_sample(coalitions, data[0],
                                        [np.clip(d, EPS, 1 - EPS) for d in draws])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_inverse_rosenblatt_roundtrip(m):
    rng = np.random.default_rng(11)
    rhos = rng.uniform(-0.7, 0.7, size=m * (m - 1) // 2)
    model = gaussian_vine(rhos, m=m)
    w = rng.uniform(0.01, 0.99, size=(100, m))
    u = model.inverse_rosenblatt(w)
    back = model.rosenblatt(u)
    assert np.max(np.abs(back - w)) < 1e-8


def test_rosenblatt_uniformity_of_model_samples():
    rng = np.random.default_rng(42)
    model = gaussian_vine([0.6, 0.5, 0.4])
    w = rng.uniform(size=(2000, 3))
    u = model.inverse_rosenblatt(w)
    t = model.rosenblatt(u)
    for k in range(3):
        counts, _ = np.histogram(t[:, k], bins=20, range=(0, 1))
        chi2 = np.sum((counts - 100.0) ** 2 / 100.0)
        assert chi2 < stats.chi2.ppf(0.99, df=19)


def test_simulated_samples_match_model_taus():
    rng = np.random.default_rng(13)
    model = gaussian_vine([0.6, 0.5, 0.0], seed=13)
    w = rng.uniform(size=(10000, 3))
    u = model.inverse_rosenblatt(w)
    tau01 = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    tau12 = stats.kendalltau(u[:, 1], u[:, 2]).statistic
    assert abs(tau01 - 2 / np.pi * np.arcsin(0.6)) < 0.03
    assert abs(tau12 - 2 / np.pi * np.arcsin(0.5)) < 0.03


# ----------------------------------------------------------------------
# conditional sampling

def test_conditional_sample_independence_ignores_conditioning():
    rng = np.random.default_rng(14)
    data = rng.normal(size=(500, 3))
    model = constant_vine(data, (0, 1, 2), IndependenceCopula())
    x_star = np.array([10.0, 0.0, 0.0])
    x = model.conditional_sample([{0}], x_star,
                                [np.random.default_rng(15).uniform(size=(4000, 2))])[0]
    assert np.all(x[:, 0] == 10.0)
    # complement columns are plain draws from the marginals
    ks = stats.ks_2samp(x[:, 1], data[:, 1])
    assert ks.pvalue > 0.01


def test_conditional_sample_m2_gaussian_oracle():
    rho = 0.7
    rng = np.random.default_rng(16)
    z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=4000)
    model = constant_vine(z, (0, 1), GaussianCopula(rho))
    x_star = np.array([1.2, 0.0])
    x = model.conditional_sample([{0}], x_star,
                                [np.random.default_rng(17).uniform(size=(10000, 1))])[0]
    u1 = model.marginals[0].cdf(x_star[0])
    scores = stats.norm.ppf(np.clip(model.marginals[1].cdf(x[:, 1]), 1e-9, 1 - 1e-9))
    want_mean = rho * stats.norm.ppf(u1)
    assert abs(np.mean(scores) - want_mean) < 0.05
    assert abs(np.var(scores) - (1 - rho * rho)) < 0.05


def test_conditional_sample_prefix_vs_suffix_same_distribution():
    # exchangeable fixed model: conditioning on the order prefix or on the
    # suffix of the reversed role must give the same conditional law
    rng = np.random.default_rng(18)
    data = rng.normal(size=(500, 3))
    model = constant_vine(data, (0, 1, 2), GaussianCopula(0.6))
    x_star = np.array([0.5, 0.0, 0.5])
    a = model.conditional_sample([{0}], x_star,
                                [np.random.default_rng(19).uniform(size=(5000, 2))])[0]
    b = model.conditional_sample([{2}], x_star,
                                [np.random.default_rng(20).uniform(size=(5000, 2))])[0]
    ks = stats.ks_2samp(a[:, 1], b[:, 1])
    assert ks.pvalue > 0.01


def test_conditional_sample_keeps_a_saturated_conditioning_value():
    """x*_S enters the inverse pass as given, even where the h-function of
    its own prefix saturates: with Clayton(10) and u* = (0.02, 0.5),
    h(0.5 | 0.02) is clipped at 1 - EPS, and a Rosenblatt round trip of u*
    returns u_1 near 0.2.  The draws must come from the conditional at u*."""
    marginals = [BurrMarginal(0.5, b, r) for b, r in ((2.0, 1.0), (4.0, 3.0), (6.0, 5.0))]
    model = DVineModel((0, 1, 2), [[ClaytonCopula(10.0), ClaytonCopula(10.0)],
                                   [IndependenceCopula()]], marginals)
    x_star = np.array([marginals[0].quantile(0.02), marginals[1].quantile(0.5), 1.0])
    K = 2000
    x = model.conditional_sample([{0, 1}], x_star,
                                [np.random.default_rng(5).uniform(size=(K, 1))])[0]
    drawn = np.random.default_rng(5).uniform(size=(K, 1))[:, 0]
    u = np.column_stack([f.cdf(x[:, j]) for j, f in enumerate(marginals)])
    assert np.median(np.abs(model.rosenblatt(u)[:, 2] - drawn)) <= 1e-12


def test_conditional_sample_rejects_middle_coalition():
    model = gaussian_vine([0.5, 0.5, 0.5])
    with pytest.raises(CoverageError):
        model.conditional_sample([{1}], np.zeros(3),
                                 [np.random.default_rng(0).uniform(size=(10, 2))])


def test_coalition_role():
    model = gaussian_vine([0.5, 0.5, 0.5])  # order (0, 1, 2)
    assert model.coalition_role({0}) == "prefix"
    assert model.coalition_role({0, 1}) == "prefix"
    assert model.coalition_role({2}) == "suffix"
    assert model.coalition_role({1}) is None
    assert model.coalition_role({0, 1, 2}) is None


def test_reversed_model_same_density():
    model = gaussian_vine([0.5, -0.3, 0.4])
    rev = model.reversed()
    u = np.random.default_rng(21).uniform(0.05, 0.95, size=(100, 3))
    assert np.allclose(model.copula_log_density(u), rev.copula_log_density(u),
                       atol=1e-10)


# ----------------------------------------------------------------------
# serialization

def test_serialization_bit_exact():
    rng = np.random.default_rng(22)
    data = rng.multivariate_normal(
        np.zeros(3), [[1, .5, .3], [.5, 1, .5], [.3, .5, 1]], size=200)
    model = fit_dvine(data, (1, 0, 2), ParametricMode())
    model2 = DVineModel.from_dict(model.to_dict(), model.marginals)
    u = rng.uniform(0.05, 0.95, size=(50, 3))
    assert np.array_equal(model.copula_log_density(u),
                          model2.copula_log_density(u))
    assert model2.order == model.order

