import numpy as np
import pytest
from scipy import stats

from vineshap import (ClaytonCopula, GaussianCopula, GridCopula,
                      IndependenceCopula, InvalidInputError, fit_nonparametric,
                      fit_parametric)
from vineshap.bicop import TAU_INDEPENDENCE_THRESHOLD


def clayton_cdf(u, v, theta):
    return (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)


def lattice(n=20, lo=0.05, hi=0.95):
    g = np.linspace(lo, hi, n)
    uu, vv = np.meshgrid(g, g)
    return uu.ravel(), vv.ravel()


# ----------------------------------------------------------------------
# independence

def test_independence_trivials():
    c = IndependenceCopula()
    assert c.density(0.3, 0.8) == 1.0
    assert c.hfunc(0.4, 0.9, "second") == pytest.approx(0.4)
    assert c.hinv(0.4, 0.9, "second") == pytest.approx(0.4)


def test_gaussian_rho_zero_is_independence():
    c = GaussianCopula(0.0)
    assert c.density(0.3, 0.7) == pytest.approx(1.0)
    assert c.hfunc(0.3, 0.6, "second") == pytest.approx(0.3)


# ----------------------------------------------------------------------
# finite-difference oracles

def test_clayton_density_matches_fd_oracle():
    theta, eps = 2.0, 1e-5
    u, v = lattice()
    num = (clayton_cdf(u + eps, v + eps, theta) - clayton_cdf(u + eps, v - eps, theta)
           - clayton_cdf(u - eps, v + eps, theta) + clayton_cdf(u - eps, v - eps, theta)
           ) / (4 * eps * eps)
    c = ClaytonCopula(theta).density(u, v)
    assert np.max(np.abs(c - num)) < 1e-5 * np.maximum(1.0, np.max(num))


def test_clayton_hfunc_matches_fd_oracle():
    theta, eps = 2.0, 1e-6
    u, v = lattice()
    num = (clayton_cdf(u, v + eps, theta) - clayton_cdf(u, v - eps, theta)) / (2 * eps)
    h = ClaytonCopula(theta).hfunc(u, v, "second")
    assert np.max(np.abs(h - num)) < 1e-5


def test_gaussian_hfunc_closed_form():
    rho = 0.6
    u, v = lattice()
    expected = stats.norm.cdf(
        (stats.norm.ppf(u) - rho * stats.norm.ppf(v)) / np.sqrt(1 - rho * rho))
    h = GaussianCopula(rho).hfunc(u, v, "second")
    assert np.max(np.abs(h - expected)) < 1e-12


def test_gaussian_density_matches_fd_oracle():
    rho, eps = 0.6, 1e-5
    u, v = lattice()

    def cdf(a, b):
        return stats.multivariate_normal.cdf(
            np.column_stack([stats.norm.ppf(a), stats.norm.ppf(b)]),
            mean=[0, 0], cov=[[1, rho], [rho, 1]])

    num = (cdf(u + eps, v + eps) - cdf(u + eps, v - eps)
           - cdf(u - eps, v + eps) + cdf(u - eps, v - eps)) / (4 * eps * eps)
    c = GaussianCopula(rho).density(u, v)
    assert np.max(np.abs(c - num)) < 2e-4   # mvn cdf itself is ~1e-7 accurate


def test_clayton_hinv_closed_form_example():
    theta = 2.0
    c = ClaytonCopula(theta)
    w, v = 0.3, 0.7
    expected = ((w ** (-theta / (1 + theta)) - 1) * v ** -theta + 1) ** (-1 / theta)
    assert c.hinv(w, v, "second") == pytest.approx(expected, abs=1e-12)
    # cross-check by bisection on hfunc
    lo, hi = 1e-12, 1 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c.hfunc(mid, v, "second") < w:
            lo = mid
        else:
            hi = mid
    assert c.hinv(w, v, "second") == pytest.approx(0.5 * (lo + hi), abs=1e-9)


# ----------------------------------------------------------------------
# roundtrips and invariants

@pytest.mark.parametrize("cop", [
    IndependenceCopula(),
    GaussianCopula(0.6),
    GaussianCopula(-0.8),
    ClaytonCopula(2.0, rotation=0),
    ClaytonCopula(2.0, rotation=90),
    ClaytonCopula(2.0, rotation=180),
    ClaytonCopula(2.0, rotation=270),
    ClaytonCopula(0.5, rotation=180),
])
@pytest.mark.parametrize("cond_on", ["first", "second"])
def test_parametric_hinv_roundtrip(cop, cond_on):
    rng = np.random.default_rng(5)
    u = rng.uniform(0.01, 0.99, 100)
    v = rng.uniform(0.01, 0.99, 100)
    w = cop.hfunc(u, v, cond_on)
    if cond_on == "second":
        back, target = cop.hinv(w, v, "second"), u   # recovers u given v
    else:
        back, target = cop.hinv(w, u, "first"), v    # recovers v given u
    assert np.max(np.abs(back - target)) < 1e-9


@pytest.mark.parametrize("cop", [GaussianCopula(0.5), ClaytonCopula(1.5),
                                 ClaytonCopula(1.5, rotation=180)])
def test_hfunc_is_a_cdf_in_first_argument(cop):
    v = 0.4
    u = np.linspace(1e-6, 1 - 1e-6, 200)
    h = cop.hfunc(u, np.full_like(u, v), "second")
    assert np.all(np.diff(h) >= -1e-12)
    assert h[0] < 1e-3 and h[-1] > 1 - 1e-3


@pytest.mark.parametrize("cop", [IndependenceCopula(), GaussianCopula(0.7),
                                 ClaytonCopula(2.0), ClaytonCopula(2.0, rotation=180)])
def test_exchangeable_density_symmetry(cop):
    u, v = lattice(10)
    assert np.allclose(cop.density(u, v), cop.density(v, u), atol=1e-12)


@pytest.mark.parametrize("cop,tol", [
    (GaussianCopula(0.6), 1e-3),
    (ClaytonCopula(2.0), 1e-3),
    (ClaytonCopula(2.0, rotation=90), 1e-3),
])
def test_density_integrates_to_one(cop, tol):
    x, w = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (x + 1)
    wq = 0.5 * w
    uu, vv = np.meshgrid(u, u)
    total = np.sum(cop.density(uu.ravel(), vv.ravel())
                   * np.outer(wq, wq).ravel())
    assert abs(total - 1.0) < tol


def test_clayton_transpose_swaps_rotations():
    c90 = ClaytonCopula(2.0, rotation=90)
    t = c90.transpose()
    assert t.rotation == 270
    u, v = lattice(8)
    assert np.allclose(c90.density(u, v), t.density(v, u), atol=1e-12)


def test_simulated_clayton_tau():
    # tau = theta / (theta + 2) = 0.5 at theta = 2
    theta = 2.0
    rng = np.random.default_rng(11)
    c = ClaytonCopula(theta)
    v = rng.uniform(size=10000)
    w = rng.uniform(size=10000)
    u = c.hinv(w, v, "second")
    tau = stats.kendalltau(u, v).statistic
    assert abs(tau - 0.5) < 0.02


# ----------------------------------------------------------------------
# parametric fitting

def test_fit_tau_half_gives_theta_two():
    # deterministic sample on the Clayton curve with empirical tau ~ 0.5
    rng = np.random.default_rng(3)
    c = ClaytonCopula(2.0)
    v = rng.uniform(size=3000)
    u = c.hinv(rng.uniform(size=3000), v, "second")
    fit = fit_parametric(np.column_stack([u, v]))
    assert isinstance(fit, ClaytonCopula)
    tau = stats.kendalltau(u, v).statistic
    assert fit.theta == pytest.approx(2 * tau / (1 - tau), rel=1e-10)


def test_fit_near_zero_tau_gives_independence():
    rng = np.random.default_rng(4)
    data = rng.uniform(0.01, 0.99, size=(2000, 2))
    fit = fit_parametric(data)
    assert isinstance(fit, IndependenceCopula)


def test_fit_recovers_gaussian_rho():
    rng = np.random.default_rng(6)
    rho = 0.6
    z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2000)
    u = stats.norm.cdf(z)
    fit = fit_parametric(u)
    assert isinstance(fit, GaussianCopula)
    assert abs(fit.rho - rho) < 0.05


def test_fit_degenerate_column_flags_independence():
    data = np.column_stack([np.full(50, 0.5),
                            np.linspace(0.1, 0.9, 50)])
    fit = fit_parametric(data)
    assert isinstance(fit, IndependenceCopula)
    assert getattr(fit, "degenerate", False)


def test_fit_rejects_tiny_samples():
    with pytest.raises(InvalidInputError):
        fit_parametric(np.full((5, 2), 0.5))


# ----------------------------------------------------------------------
# nonparametric grid

def test_grid_independence_consistency():
    rng = np.random.default_rng(27)
    data = rng.uniform(1e-3, 1 - 1e-3, size=(5000, 2))
    cop = fit_nonparametric(data)
    g = cop.grid.shape[0]
    nodes = (np.arange(g) + 0.5) / g
    interior = (nodes >= 0.1) & (nodes <= 0.9)
    c = cop.grid[np.ix_(interior, interior)]
    assert np.max(np.abs(c - 1.0)) < 0.15


def test_grid_integral_normalized():
    rng = np.random.default_rng(8)
    cs = ClaytonCopula(2.0, rotation=180)
    v = rng.uniform(size=2000)
    u = cs.hinv(rng.uniform(size=2000), v, "second")
    cop = fit_nonparametric(np.column_stack([u, v]))
    assert 0.99 <= cop.integral() <= 1.01


def test_grid_survival_clayton_bulk_accuracy():
    # the kernel estimate has unavoidable smoothing bias at the corner
    # spike, so accuracy is asserted on bulk statistics of the interior
    rng = np.random.default_rng(9)
    cs = ClaytonCopula(2.0, rotation=180)
    v = rng.uniform(size=5000)
    u = cs.hinv(rng.uniform(size=5000), v, "second")
    cop = fit_nonparametric(np.column_stack([u, v]))
    g = cop.grid.shape[0]
    nodes = (np.arange(g) + 0.5) / g
    interior = (nodes >= 0.1) & (nodes <= 0.9)
    uu, vv = np.meshgrid(nodes[interior], nodes[interior])
    truth = cs.density(uu.ravel(), vv.ravel())
    est = cop.grid[np.ix_(interior, interior)].T.ravel() \
        if False else cop.density(uu.ravel(), vv.ravel())
    rel = np.abs(est - truth) / np.maximum(truth, 1e-3)
    assert np.median(rel) < 0.2
    assert np.mean(np.abs(est - truth)) < 0.25


@pytest.mark.parametrize("cond_on", ["first", "second"])
def test_grid_hinv_roundtrip(cond_on):
    rng = np.random.default_rng(10)
    cs = ClaytonCopula(1.5, rotation=180)
    v0 = rng.uniform(size=2000)
    u0 = cs.hinv(rng.uniform(size=2000), v0, "second")
    cop = fit_nonparametric(np.column_stack([u0, v0]))
    u = rng.uniform(0.02, 0.98, 100)
    v = rng.uniform(0.02, 0.98, 100)
    w = cop.hfunc(u, v, cond_on)
    if cond_on == "second":
        back, target = cop.hinv(w, v, "second"), u
    else:
        back, target = cop.hinv(w, u, "first"), v
    assert np.max(np.abs(back - target)) < 1e-3


def test_grid_transpose_identity():
    rng = np.random.default_rng(12)
    cs = ClaytonCopula(1.0, rotation=180)
    v0 = rng.uniform(size=1000)
    u0 = cs.hinv(rng.uniform(size=1000), v0, "second")
    cop = fit_nonparametric(np.column_stack([u0, v0]))
    t = cop.transpose()
    u, v = lattice(8)
    assert np.allclose(cop.density(u, v), t.density(v, u), atol=1e-12)
    assert np.allclose(cop.hfunc(u, v, "second"), t.hfunc(v, u, "first"),
                       atol=1e-12)


def test_fit_nonparametric_rejects_small_samples():
    with pytest.raises(InvalidInputError):
        fit_nonparametric(np.random.default_rng(0).uniform(0.1, 0.9, (20, 2)))


def test_tau_independence_threshold_constant():
    assert TAU_INDEPENDENCE_THRESHOLD == pytest.approx(0.02)


# ----------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("cop", [IndependenceCopula(), GaussianCopula(0.42),
                                 ClaytonCopula(1.7, rotation=270)])
def test_parametric_serialization_bit_exact(cop):
    from vineshap import PairCopula
    c2 = PairCopula.from_dict(cop.to_dict())
    u, v = lattice(5)
    assert np.array_equal(cop.density(u, v), c2.density(u, v))


def test_grid_serialization_roundtrip():
    from vineshap import PairCopula
    rng = np.random.default_rng(13)
    data = rng.uniform(0.05, 0.95, size=(500, 2))
    cop = fit_nonparametric(data, grid_size=32)
    c2 = PairCopula.from_dict(cop.to_dict())
    assert isinstance(c2, GridCopula)
    u, v = lattice(5)
    assert np.array_equal(cop.density(u, v), c2.density(u, v))


# ----------------------------------------------------------------------
# rotations: h-functions against the rotated cdfs

ROTATED_CLAYTON_CDF = {
    0: lambda u, v, th: clayton_cdf(u, v, th),
    90: lambda u, v, th: v - clayton_cdf(1 - u, v, th),
    180: lambda u, v, th: u + v - 1 + clayton_cdf(1 - u, 1 - v, th),
    270: lambda u, v, th: u - clayton_cdf(u, 1 - v, th),
}


@pytest.mark.parametrize("rotation", [0, 90, 180, 270])
def test_rotated_clayton_hfunc_matches_fd_of_rotated_cdf(rotation):
    theta, eps = 2.0, 1e-6
    cdf = ROTATED_CLAYTON_CDF[rotation]
    c = ClaytonCopula(theta, rotation=rotation)
    u, v = lattice()
    dv = (cdf(u, v + eps, theta) - cdf(u, v - eps, theta)) / (2 * eps)
    du = (cdf(u + eps, v, theta) - cdf(u - eps, v, theta)) / (2 * eps)
    assert np.max(np.abs(c.hfunc(u, v, "second") - dv)) < 1e-5
    assert np.max(np.abs(c.hfunc(u, v, "first") - du)) < 1e-5


def _fitted_grid():
    rng = np.random.default_rng(14)
    cs = ClaytonCopula(1.5, rotation=90)
    v0 = rng.uniform(size=1000)
    u0 = cs.hinv(rng.uniform(size=1000), v0, "second")
    return fit_nonparametric(np.column_stack([u0, v0]), grid_size=32)


@pytest.mark.parametrize("cop", [ClaytonCopula(2.0, rotation=r) for r in (0, 90, 180, 270)]
                         + [_fitted_grid()], ids=repr)
def test_transpose_swaps_conditioning_slot(cop):
    u, v = lattice(15, 0.01, 0.99)
    np.testing.assert_allclose(cop.transpose().hfunc(v, u, "second"),
                               cop.hfunc(u, v, "first"), rtol=0, atol=2e-10)
    np.testing.assert_allclose(cop.transpose().hfunc(v, u, "first"),
                               cop.hfunc(u, v, "second"), rtol=0, atol=2e-10)


@pytest.mark.parametrize("cop", [IndependenceCopula(), GaussianCopula(0.3),
                                 ClaytonCopula(2.0), _fitted_grid()], ids=repr)
def test_cond_on_is_validated_for_every_family(cop):
    with pytest.raises(InvalidInputError):
        cop.hfunc(0.3, 0.4, "third")
    with pytest.raises(InvalidInputError):
        cop.hinv(0.3, 0.4, "u")
