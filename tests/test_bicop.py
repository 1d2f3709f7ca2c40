import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vineshap import (ClaytonCopula, GaussianCopula, GridCopula,
                      IndependenceCopula, InvalidInputError, fit_nonparametric,
                      fit_parametric)
from vineshap.bicop import EPS, TAU_INDEPENDENCE_THRESHOLD, _normal_pdf


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


def test_normal_special_functions_equal_scipy_norm():
    """ndtri/ndtr, which the Gaussian pieces call, and the grid fit's normal
    density give stats.norm's bytes."""
    from scipy.special import ndtr, ndtri
    u = np.concatenate([[1e-300, 1e-12, 1e-10, 0.5, 1 - 1e-10, 1 - 1e-12],
                        np.random.default_rng(8).uniform(size=1000)])
    z = np.concatenate([[-40.0, -8.5, -1e-9, -0.0, 0.0, 1e-300, 1e-9, 8.5, 38.0, 40.0],
                        np.random.default_rng(9).normal(scale=5, size=1000)])
    assert np.array_equal(ndtri(u), stats.norm.ppf(u))
    assert np.array_equal(ndtr(z), stats.norm.cdf(z))
    for scale in (3.0, 10.0):
        d = np.random.default_rng(10).normal(scale=scale, size=(64, 1000))
        assert np.array_equal(_normal_pdf(d), stats.norm.pdf(d))
    assert np.array_equal(_normal_pdf(z), stats.norm.pdf(z))
    rho = -0.7
    cop = GaussianCopula(rho)
    x, y = stats.norm.ppf(np.clip(u[:-1], 1e-10, 1 - 1e-10)), \
        stats.norm.ppf(np.clip(u[1:], 1e-10, 1 - 1e-10))
    assert np.array_equal(cop.hfunc(u[:-1], u[1:]), np.clip(
        stats.norm.cdf((x - rho * y) / np.sqrt(1 - rho * rho)), 1e-10, 1 - 1e-10))
    s2 = 1 - rho * rho
    assert np.array_equal(cop.log_density(u[:-1], u[1:]), -0.5 * np.log(s2) - (
        rho * rho * (x * x + y * y) - 2 * rho * x * y) / (2 * s2))


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


def reference_grid_curves(cop, v, cum):
    """The former grid copula's conditional cdf curves, one per input value,
    G + 2 points long: table `cum` read at each of the (clipped) values v."""
    g = cop.grid_size
    f = np.clip(v * g - 0.5, 0.0, g - 1.0)
    j0 = np.clip(np.floor(f).astype(int), 0, g - 2)
    t = (f - j0)[:, None]
    return cum[:, j0].T * (1 - t) + cum[:, j0 + 1].T * t


def reference_grid_hfunc(cop, u, v, cond_on):
    """The former grid h-function: it built each input's whole conditional
    cdf curve and interpolated that curve at one point."""
    u, v = np.clip(u, EPS, 1 - EPS), np.clip(v, EPS, 1 - EPS)
    cum = cop._cum_u
    if cond_on == "first":
        u, v, cum = v, u, cop._cum_v
    u, v = np.broadcast_arrays(u, v)
    curve = reference_grid_curves(cop, v.ravel(), cum)
    x, xs = u.ravel(), cop.breaks
    idx = np.clip(np.searchsorted(xs, x, side="right"), 1, len(xs) - 1)
    x0, x1 = xs[idx - 1], xs[idx]
    rows = np.arange(len(x))
    y0, y1 = curve[rows, idx - 1], curve[rows, idx]
    t = np.where(x1 > x0, (x - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
    return np.clip((y0 + t * (y1 - y0)).reshape(u.shape), EPS, 1 - EPS)


def reference_grid_hinv(cop, w, v, cond_on):
    """The former grid h-inverse: it built each input's whole conditional
    cdf curve and counted the curve's entries below w."""
    w, v = np.broadcast_arrays(np.clip(w, EPS, 1 - EPS), np.clip(v, EPS, 1 - EPS))
    curve = reference_grid_curves(cop, v.ravel(),
                                  cop._cum_v if cond_on == "first" else cop._cum_u)
    x, xs = w.ravel(), cop.breaks
    idx = np.clip((curve < x[:, None]).sum(axis=1), 1, len(xs) - 1)
    rows = np.arange(len(x))
    y0, y1 = curve[rows, idx - 1], curve[rows, idx]
    x0, x1 = xs[idx - 1], xs[idx]
    t = np.where(y1 > y0, (x - y0) / np.where(y1 > y0, y1 - y0, 1.0), 0.0)
    return np.clip((x0 + np.clip(t, 0.0, 1.0) * (x1 - x0)).reshape(w.shape), EPS, 1 - EPS)


@st.composite
def grid_points(draw):
    """A random grid (sometimes with one or two adjacent zero rows or
    columns, which flatten its cumulative tables) and inputs that mix
    uniform draws with 0, 1e-300, EPS, 1 and every node and break."""
    g = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = rng.uniform(0.0, 3.0, size=(g, g))
    zero, run = draw(st.sampled_from([None, "row", "column"])), draw(st.integers(1, 2))
    start = rng.integers(g - run + 1)
    if zero == "row":
        grid[start:start + run] = 0.0
    elif zero == "column":
        grid[:, start:start + run] = 0.0
    cop = GridCopula(grid)
    edges = np.concatenate([[0.0, 1e-300, EPS, 1 - EPS, 1.0], cop.nodes, cop.breaks])
    n = draw(st.integers(1, 3 * len(edges)))
    u, v = (np.where(rng.uniform(size=n) < 0.5, rng.choice(edges, n), rng.uniform(size=n))
            for _ in range(2))
    return cop, u, v


@settings(max_examples=60, deadline=None)
@given(grid_points())
def test_grid_hfunc_equals_the_former_curve_interpolation(points):
    """h and its inverse are bit-identical to the former whole-curve reads;
    half the inverse's targets are exact curve values (ties)."""
    cop, u, v = points
    rows = np.arange(len(u))
    for cond_on in ("first", "second"):
        curve = reference_grid_curves(cop, np.clip(v, EPS, 1 - EPS),
                                      cop._cum_v if cond_on == "first" else cop._cum_u)
        w = np.where(rows % 2 == 0, curve[rows, rows % (cop.grid_size + 2)], u)
        for f, reference, x in ((cop.hfunc, reference_grid_hfunc, u),
                                (cop.hinv, reference_grid_hinv, w)):
            for a, b in ((x, v), (x[:, None], v[None, :]), (x[0], v), (x, v[0]), (x[0], v[0])):
                got, want = f(a, b, cond_on), reference(cop, a, b, cond_on)
                assert got.shape == want.shape and np.array_equal(got, want)


def test_grid_h_and_hinv_hold_no_curve_per_point():
    """Each peaks below 32 floats per point; a (G + 2)-point curve per point
    alone would take 66 at G = 64."""
    rng = np.random.default_rng(11)
    cop = GridCopula(rng.uniform(0.0, 3.0, size=(64, 64)))
    n = 20_000
    a, b = rng.uniform(size=n), rng.uniform(size=n)
    for f in (cop.hfunc, cop.hinv):
        tracemalloc.start()
        try:
            f(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 8 * n, f.__name__


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
