import itertools
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import seeded_grid
from vineshap import bicop
from vineshap import (ClaytonCopula, GaussianCopula, GridCopula,
                      IndependenceCopula, InvalidInputError, fit_nonparametric,
                      fit_parametric)
from vineshap.bicop import (EPS, TAU_INDEPENDENCE_THRESHOLD, _kendall_tau, _normal_pdf,
                            fit_parametric_stack, special)


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
    assert np.exp(c.log_density(0.3, 0.8)) == 1.0
    assert c.hfunc(0.4, 0.9, "second") == pytest.approx(0.4)
    assert c.hinv(0.4, 0.9, "second") == pytest.approx(0.4)


def test_gaussian_rho_zero_is_independence():
    c = GaussianCopula(0.0)
    assert np.exp(c.log_density(0.3, 0.7)) == pytest.approx(1.0)
    assert c.hfunc(0.3, 0.6, "second") == pytest.approx(0.3)


# ----------------------------------------------------------------------
# finite-difference oracles

def test_clayton_density_matches_fd_oracle():
    theta, eps = 2.0, 1e-5
    u, v = lattice()
    num = (clayton_cdf(u + eps, v + eps, theta) - clayton_cdf(u + eps, v - eps, theta)
           - clayton_cdf(u - eps, v + eps, theta) + clayton_cdf(u - eps, v - eps, theta)
           ) / (4 * eps * eps)
    c = np.exp(ClaytonCopula(theta).log_density(u, v))
    assert np.max(np.abs(c - num)) < 1e-5 * np.maximum(1.0, np.max(num))


def test_clayton_hfunc_matches_fd_oracle():
    theta, eps = 2.0, 1e-6
    u, v = lattice()
    num = (clayton_cdf(u, v + eps, theta) - clayton_cdf(u, v - eps, theta)) / (2 * eps)
    h = ClaytonCopula(theta).hfunc(u, v, "second")
    assert np.max(np.abs(h - num)) < 1e-5


def clayton_h_50_digits(theta, u, v):
    """h(u | v) of the unrotated Clayton copula in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        t, u, v = Decimal(theta), Decimal(u), Decimal(v)
        return v ** (-t - 1) * (u ** -t + v ** -t - 1) ** (-1 - 1 / t)


@pytest.mark.parametrize("theta", [0.5, 2.0, 4.75, 20.0, 50.0])
def test_clayton_h_keeps_its_digits_in_both_tails(theta):
    """Where h nears 1 (small v) it is within a few ulps, so the 1 - h that
    the 90 and 270 degree rotations return keeps its digits: the 1e-14
    error of a cancelling log let a 2-ulp step of v move the h-values a
    vine carries on by 1e-7 relative.  Where h nears 0 it neither
    overflows nor loses its relative precision."""
    u = np.array([0.125, 0.375, 0.5, 0.625, 0.875, 1e-6, 1e-10])
    v = np.array([1e-10, 1e-6, 1e-3, 0.0164, 0.1, 0.5, 0.9])
    uu, vv = (a.ravel() for a in np.meshgrid(u, v))
    got = ClaytonCopula(theta).hfunc(uu, vv, "second")
    want = np.array([float(clayton_h_50_digits(theta, a, b)) for a, b in zip(uu, vv)])
    want = np.clip(want, EPS, 1 - EPS)
    assert np.all(np.abs(got - want) <= 4e-16 + 1e-12 * np.minimum(want, 1 - want))


def clayton_log_density_50_digits(theta, u, v):
    """log c(u, v) of the unrotated Clayton copula in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        t, u, v = Decimal(theta), Decimal(u), Decimal(v)
        return ((1 + t).ln() - (t + 1) * (u.ln() + v.ln())
                - (2 + 1 / t) * (u ** -t + v ** -t - 1).ln())


def clayton_hinv_50_digits(theta, w, v):
    """The u with h(u | v) = w, unrotated Clayton, in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        t, w, v = Decimal(theta), Decimal(w), Decimal(v)
        return ((w ** (-t / (1 + t)) - 1) * v ** -t + 1) ** (-1 / t)


TAIL = np.array([1e-10, 1e-9, 1e-6, 0.3])


@pytest.mark.parametrize("theta", [31.0, 35.0, 48.0, 50.0])
@pytest.mark.parametrize("rotation", [0, 180])
def test_clayton_log_density_stays_finite_past_theta_30(theta, rotation):
    """u ** -theta overflows at the clip past theta = 30.8; the log density
    of the lower tail (the upper one at 180 degrees) is about +23 there."""
    uu, vv = (a.ravel() for a in np.meshgrid(TAIL, TAIL))
    if rotation == 180:
        uu, vv = 1.0 - uu, 1.0 - vv
    got = ClaytonCopula(theta, rotation).log_density(uu, vv)
    if rotation == 180:  # the arguments the unrotated formula sees
        uu, vv = 1.0 - uu, 1.0 - vv
    want = np.array([float(clayton_log_density_50_digits(theta, a, b))
                     for a, b in zip(uu, vv)])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("theta", [31.0, 48.0, 50.0])
def test_clayton_hinv_stays_finite_past_theta_30(theta):
    """v ** -theta overflows at small v past theta = 29.8; h-inverse then
    returned the clip EPS, not a value near v."""
    w = np.array([1e-10, 0.5, 1 - 1e-6])
    ww, vv = (a.ravel() for a in np.meshgrid(w, TAIL))
    got = ClaytonCopula(theta).hinv(ww, vv)
    want = np.array([float(clayton_hinv_50_digits(theta, a, b)) for a, b in zip(ww, vv)])
    want = np.clip(want, EPS, 1 - EPS)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert ClaytonCopula(48.0).hinv(0.5, 1e-9) == pytest.approx(1.0006e-9, rel=1e-4)


REFERENCE_GRID = np.concatenate([[EPS, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 0.99, 25),
                                 [1 - 1e-6, 1 - 1e-9, 1 - EPS]])


@pytest.mark.parametrize("theta", [1e-4, 0.05, 2.0, 14.0, 29.0, 30.0, 31.0, 35.0, 50.0])
def test_clayton_log_density_and_hinv_match_50_digits(theta):
    """One form per kernel, finite and within a few ulps over the clipped
    square at every theta up to the fit cap.  h-inverse's power -1/theta
    magnifies one rounding by 1/theta, so small theta gets a looser bound."""
    u, v = (a.ravel() for a in np.meshgrid(REFERENCE_GRID, REFERENCE_GRID))
    cop = ClaytonCopula(theta)
    got = cop.log_density(u, v)
    want = np.array([float(clayton_log_density_50_digits(theta, a, b)) for a, b in zip(u, v)])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    got = cop.hinv(u, v)
    want = np.clip([float(clayton_hinv_50_digits(theta, a, b)) for a, b in zip(u, v)],
                   EPS, 1 - EPS)
    assert np.all(np.abs(got - want) <= 1e-15 / min(theta, 1.0) * want)
    assert np.all(np.isfinite(cop.step(u, v, log_density=True)[2]))
    assert np.all(cop._hinv(u, v) > 0)


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
    c = np.exp(GaussianCopula(rho).log_density(u, v))
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
] + [ClaytonCopula(theta, rotation=r) for theta in (14.0, 50.0) for r in (0, 90, 180, 270)])
@pytest.mark.parametrize("cond_on", ["first", "second"])
def test_parametric_hinv_roundtrip(cop, cond_on):
    """The bicop contract: h-inverse is non-decreasing in w, and undoes h
    wherever h is not saturated.  Where h is clipped to EPS or 1 - EPS it
    has lost u: at theta = 5, hinv(hfunc(0.3, 1e-4), 1e-4) is about 0.0104."""
    def roundtrip_error(u, v):
        w = cop.hfunc(u, v, cond_on)
        if cond_on == "second":
            back, target = cop.hinv(w, v, "second"), u   # recovers u given v
        else:
            back, target = cop.hinv(w, u, "first"), v    # recovers v given u
        return w, np.abs(back - target)

    rng = np.random.default_rng(5)
    draws = rng.uniform(0.01, 0.99, 100)
    edges = [1e-6, 1e-4, 1e-2, 1 - 1e-2, 1 - 1e-4, 1 - 1e-6]
    values = np.concatenate([draws, edges])
    w, err = roundtrip_error(*(a.ravel() for a in np.meshgrid(values, values)))
    exact = (w >= 1e-6) & (w <= 1 - 1e-6)
    assert np.max(err[exact]) < 1e-11
    if getattr(cop, "theta", 0.0) < 14:
        # families that do not saturate on the bulk: every one of 100 random
        # pairs round-trips, whatever its h
        _, err = roundtrip_error(draws, rng.uniform(0.01, 0.99, 100))
        assert np.max(err) < 1e-9
    ws = np.sort(np.concatenate([np.linspace(0.0, 1.0, 201),
                                 [EPS, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - EPS]]))
    assert np.all(np.diff(cop.hinv(ws[:, None], values, cond_on), axis=0) >= 0)


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
    assert np.allclose(np.exp(cop.log_density(u, v)), np.exp(cop.log_density(v, u)), atol=1e-12)


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
    total = np.sum(np.exp(cop.log_density(uu.ravel(), vv.ravel()))
                   * np.outer(wq, wq).ravel())
    assert abs(total - 1.0) < tol


def test_clayton_transpose_swaps_rotations():
    c90 = ClaytonCopula(2.0, rotation=90)
    t = c90.transpose()
    assert t.rotation == 270
    u, v = lattice(8)
    assert np.allclose(np.exp(c90.log_density(u, v)), np.exp(t.log_density(v, u)), atol=1e-12)


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


@st.composite
def tau_samples(draw):
    """A stack of 1-8 row pairs of one length n.  Each row: continuous,
    heavily tied or constant; and independent, identical, reversed, negated
    or tied-monotone in its partner row."""
    n = draw(st.one_of(st.sampled_from([2, 3, 10, 30]), st.integers(2, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def column():
        levels = draw(st.sampled_from([None, 1, 2, 3, 10]))  # None: no ties
        return rng.uniform(size=n) if levels is None else rng.integers(levels, size=n) / 10

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        x = column()
        link = draw(st.sampled_from(["independent", "identical", "reversed", "negated",
                                     "tied-monotone"]))
        y = {"independent": column, "identical": x.copy, "reversed": x[::-1].copy,
             "negated": lambda: 1.0 - x,
             "tied-monotone": lambda: np.floor(4 * x + column())}[link]()
        rows.append((x, y))
    return np.array([x for x, _ in rows]), np.array([y for _, y in rows])


@settings(max_examples=300, deadline=None)
@given(tau_samples())
def test_kendall_tau_equals_scipy(sample):
    X, Y = sample
    tau = _kendall_tau(X, Y)
    assert tau.shape == (len(X),)
    for got, x, y in zip(tau, X, Y):
        assert np.array_equal(got, stats.kendalltau(x, y).statistic, equal_nan=True)


def test_kendall_tau_at_a_large_n_equals_scipy_within_three_times_its_time():
    rng = np.random.default_rng(12)
    x = rng.uniform(size=100_000)
    y = np.round(x + rng.uniform(size=x.size), 3)  # with ties in y
    times = {"ours": [], "scipy": []}
    for _ in range(3):  # alternating; the fastest of each
        for name, f in (("ours", lambda: _kendall_tau(x[None], y[None])[0]),
                        ("scipy", lambda: stats.kendalltau(x, y).statistic)):
            start = time.perf_counter()
            result = f()
            times[name].append(time.perf_counter() - start)
        assert _kendall_tau(x[None], y[None])[0] == result
    assert min(times["ours"]) < 3 * min(times["scipy"])


@st.composite
def fit_stacks(draw):
    """1-6 row pairs of n pseudo-observations: Clayton-generated at any
    rotation (theta up to past the cap), Gaussian-generated, independent,
    degenerate, identical or reversed (|tau| = 1), or weakly dependent."""
    n = draw(st.sampled_from([10, 30, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["clayton", "gaussian", "independent", "degenerate",
                                     "identical", "reversed", "weak"]))
        x, w = rng.uniform(0.01, 0.99, size=(2, n))
        if kind == "clayton":
            cop = ClaytonCopula(draw(st.floats(0.05, 80.0)),
                                draw(st.sampled_from([0, 90, 180, 270])))
            y = cop.hinv(w, x, "first")
        elif kind == "gaussian":
            rho = draw(st.floats(-0.95, 0.95))
            z = rho * special().ndtri(x) + np.sqrt(1 - rho ** 2) * special().ndtri(w)
            y = special().ndtr(z)
        else:
            y = {"independent": w, "degenerate": np.full(n, 0.5), "identical": x,
                 "reversed": 1.0 - x, "weak": np.where(w < 0.02, x, w)}[kind]
        if draw(st.booleans()):
            x, y = y, x
        rows.append((x, np.clip(y, 1e-12, 1 - 1e-12)))
    return np.array([x for x, _ in rows]), np.array([y for _, y in rows])


def reference_fit_parametric(x, y):
    """One pair's fit as a loop over the candidates, each scored by its
    own `step`, with scipy's tau: the per-pair fit the stack replaced."""
    if np.std(x) < 1e-12 or np.std(y) < 1e-12:
        cop = IndependenceCopula()
        cop.degenerate = True
        return cop
    tau = stats.kendalltau(x, y).statistic
    if not np.isfinite(tau) or abs(tau) < TAU_INDEPENDENCE_THRESHOLD:
        return IndependenceCopula()
    rho = np.clip(np.sin(np.pi * tau / 2.0), -0.999, 0.999)
    theta = 50.0 if abs(tau) == 1 else np.clip(2.0 * abs(tau) / (1.0 - abs(tau)), 1e-4, 50.0)
    candidates = [(IndependenceCopula(), 0), (GaussianCopula(rho), 1)]
    candidates += [(ClaytonCopula(theta, rot), 1) for rot in ((0, 180) if tau > 0 else (90, 270))]
    best, best_aic = None, np.inf
    u, v = np.clip(x, EPS, 1 - EPS), np.clip(y, EPS, 1 - EPS)
    for cop, n_params in candidates:
        aic = -2.0 * float(np.sum(cop.step(u, v, log_density=True)[2])) + 2.0 * n_params
        if aic < best_aic:
            best, best_aic = cop, aic
    return best


@settings(max_examples=200, deadline=None)
@given(fit_stacks(), st.sampled_from([1, 2, 3, 1000]))
def test_stacked_fit_equals_the_one_pair_fits(stack, rows_per_chunk):
    """Each row pair's copula is the one-pair fits', `fit_parametric`'s and
    the reference loop's, in family, parameter, rotation and degenerate
    flag, however the stack is chunked, and no RuntimeWarning is raised."""
    X, Y = stack
    with mock.patch.object(bicop, "_FIT_CELLS", rows_per_chunk * X.shape[1]), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fit_parametric_stack(X, Y)
        one = [fit_parametric(np.column_stack([x, y])) for x, y in zip(X, Y)]
        reference = [reference_fit_parametric(x, y) for x, y in zip(X, Y)]
    for fits in (one, reference):
        assert [(c.to_dict(), c.degenerate) for c in got] == \
            [(c.to_dict(), c.degenerate) for c in fits]


@pytest.mark.parametrize("n, sign, want", [
    (10, 1, {"family": "clayton", "theta": 50.0, "rotation": 0}),
    (10, -1, {"family": "clayton", "theta": 50.0, "rotation": 270}),
    (200, 1, {"family": "gaussian", "rho": 0.999}),
    (200, -1, {"family": "gaussian", "rho": -0.999})])
def test_tau_of_one_fits_without_a_warning(n, sign, want):
    """(x, x) and (x, 1 - x) have |tau| = 1: Clayton's theta is the fit cap
    of 50, one pair at a time and stacked, and no division by zero is
    flagged.  At n = 200 the Gaussian at rho = +-0.999 scores better."""
    x = np.random.default_rng(5).uniform(0.01, 0.99, size=n)
    y = x.copy() if sign > 0 else 1.0 - x
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one = fit_parametric(np.column_stack([x, y]))
        stacked = fit_parametric_stack(np.array([x, x]), np.array([y, y]))
    assert [c.to_dict() for c in [one, *stacked]] == [want] * 3


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


def test_fit_nonparametric_builds_one_grid_copula(monkeypatch):
    """The fit normalises its density by the grid's trapezoid integral
    without building a copula for it first."""
    built = []
    init = GridCopula.__init__

    def counted(self, grid):
        built.append(np.shape(grid))
        init(self, grid)

    monkeypatch.setattr(GridCopula, "__init__", counted)
    data = np.random.default_rng(10).uniform(0.01, 0.99, size=(200, 2))
    cop = fit_nonparametric(data, grid_size=16)
    assert built == [(16, 16)]
    assert abs(cop.integral() - 1.0) <= 1e-12


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
    truth = np.exp(cs.log_density(uu.ravel(), vv.ravel()))
    est = np.exp(cop.log_density(uu.ravel(), vv.ravel()))
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
        u, v, cum = v, u, cop.transpose()._cum_u
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
                                  (cop.transpose() if cond_on == "first" else cop)._cum_u)
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
                                      (cop.transpose() if cond_on == "first" else cop)._cum_u)
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


@pytest.mark.parametrize("cond_on", ["first", "second"])
def test_grid_gives_nan_at_a_nan_input(cond_on):
    """As the parametric families do, with no warning; also where the
    h-inverse meets a flat stretch of the table (zero rows)."""
    grid = np.random.default_rng(13).uniform(0.2, 3.0, size=(8, 8))
    flat = grid.copy()
    flat[:3] = 0.0
    for cop in (GridCopula(grid), GridCopula(flat)):
        for a, b in ((0.3, np.nan), (np.nan, 0.3), (np.nan, np.nan)):
            assert np.isnan(cop.hfunc(a, b, cond_on))
            assert np.isnan(cop.hinv(a, b, cond_on))
            assert np.isnan(cop.log_density(a, b))
        out = cop.hinv([0.3, np.nan, 0.7], [0.5, 0.5, np.nan], cond_on)
        assert np.isnan(out).tolist() == [False, True, True]
    assert np.isnan(GaussianCopula(0.5).hinv(0.3, np.nan, cond_on))


def test_grid_transpose_identity():
    rng = np.random.default_rng(12)
    cs = ClaytonCopula(1.0, rotation=180)
    v0 = rng.uniform(size=1000)
    u0 = cs.hinv(rng.uniform(size=1000), v0, "second")
    cop = fit_nonparametric(np.column_stack([u0, v0]))
    t = cop.transpose()
    u, v = lattice(8)
    assert np.allclose(np.exp(cop.log_density(u, v)), np.exp(t.log_density(v, u)),
                       atol=1e-12)
    assert np.allclose(cop.hfunc(u, v, "second"), t.hfunc(v, u, "first"),
                       atol=1e-12)


def test_fit_nonparametric_rejects_small_samples():
    with pytest.raises(InvalidInputError):
        fit_nonparametric(np.random.default_rng(0).uniform(0.1, 0.9, (20, 2)))


@pytest.mark.parametrize("g", [0, 1])
def test_grid_copula_needs_at_least_two_nodes(g):
    # an empty grid built, and its hfunc then raised IndexError
    with pytest.raises(InvalidInputError, match="at least 2 x 2"):
        GridCopula(np.ones((g, g)))


@pytest.mark.parametrize("grid_size", [-3, 0, 1, 2.5, 64.0, "abc", None])
def test_fit_nonparametric_needs_a_grid_size_of_at_least_two(grid_size):
    # 0 and -3 ended in np.pad's ValueError, 1 gave a 1 x 1 grid: independence;
    # 2.5 was truncated to a 2 x 2 grid
    data = np.random.default_rng(15).uniform(0.1, 0.9, (100, 2))
    with pytest.raises(InvalidInputError, match="grid_size"):
        fit_nonparametric(data, grid_size=grid_size)


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
    assert np.array_equal(cop.log_density(u, v), c2.log_density(u, v))


def test_grid_serialization_roundtrip():
    from vineshap import PairCopula
    rng = np.random.default_rng(13)
    data = rng.uniform(0.05, 0.95, size=(500, 2))
    cop = fit_nonparametric(data, grid_size=32)
    c2 = PairCopula.from_dict(cop.to_dict())
    assert isinstance(c2, GridCopula)
    u, v = lattice(5)
    assert np.array_equal(cop.log_density(u, v), c2.log_density(u, v))


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
    t = cop.transpose()
    assert np.array_equal(t.hfunc(v, u, "second"), cop.hfunc(u, v, "first"))
    assert np.array_equal(t.hfunc(v, u, "first"), cop.hfunc(u, v, "second"))
    assert np.array_equal(t.hinv(u, v, "second"), cop.hinv(u, v, "first"))
    assert np.array_equal(t.hinv(u, v, "first"), cop.hinv(u, v, "second"))


@pytest.mark.parametrize("cop", [IndependenceCopula(), GaussianCopula(0.3),
                                 ClaytonCopula(2.0), _fitted_grid()], ids=repr)
def test_cond_on_is_validated_for_every_family(cop):
    with pytest.raises(InvalidInputError):
        cop.hfunc(0.3, 0.4, "third")
    with pytest.raises(InvalidInputError):
        cop.hinv(0.3, 0.4, "u")


# ----------------------------------------------------------------------
# step: the vine passes' one call per pair, at inputs already clipped

unit_points = st.one_of(st.floats(EPS, 1 - EPS),
                        st.sampled_from([EPS, 1 - EPS, 2 * EPS, 1e-9, 0.5, 1 - 1e-9]))
point_pairs = st.lists(st.tuples(unit_points, unit_points), min_size=1, max_size=40).map(
    lambda pts: tuple(np.array(a) for a in zip(*pts)))
gaussians = st.floats(-0.99, 0.99).map(GaussianCopula)
claytons = st.builds(ClaytonCopula, st.floats(1e-4, 50.0), st.sampled_from([0, 90, 180, 270]))
step_copulas = st.one_of(st.just(IndependenceCopula()), gaussians, claytons,
                         st.integers(0, 2 ** 32 - 1).map(seeded_grid))


@settings(max_examples=300, deadline=None)
@given(step_copulas, point_pairs)
def test_step_matches_the_public_methods_bit_for_bit(cop, xy):
    """Every combination of slots: each slot asked for is the public
    method's value, shape included, and every other slot is None."""
    x, y = xy
    want = (cop.hfunc(x, y, "second"), cop.hfunc(x, y, "first"), cop.log_density(x, y))
    for asked in itertools.product((False, True), repeat=3):
        for got, on, value in zip(cop.step(x, y, *asked), asked, want):
            if on:
                assert got.shape == value.shape and np.array_equal(got, value)
            else:
                assert got is None


def former_clayton_h(theta, u, v):
    """The former `ClaytonCopula._h`, F(u | v) unrotated, one slot per call."""
    log_u = np.log(u)
    log_x = theta * (np.log(v) - log_u) + np.log(-np.expm1(theta * log_u))
    return np.exp(-(1.0 + 1.0 / theta) * np.log1p(np.exp(np.minimum(log_x, 700.0))))


def former_clayton_logpdf(theta, u, v):
    """The former `ClaytonCopula._logpdf`, unrotated."""
    log_u, log_v = np.log(u), np.log(v)
    hi, lo = -theta * np.minimum(log_u, log_v), -theta * np.maximum(log_u, log_v)
    log_t = hi + np.log1p(np.exp(lo - hi) * -np.expm1(-lo))
    return np.log1p(theta) - (theta + 1.0) * (log_u + log_v) - (2.0 + 1.0 / theta) * log_t


def former_gaussian_h(rho, u, v):
    """The former `GaussianCopula._h`."""
    sp = special()
    x, y = sp.ndtri(u), sp.ndtri(v)
    return sp.ndtr((x - rho * y) / np.sqrt(1.0 - rho ** 2))


def former_gaussian_logpdf(rho, u, v):
    """The former `GaussianCopula._logpdf`."""
    sp = special()
    x, y = sp.ndtri(u), sp.ndtri(v)
    s2 = 1.0 - rho * rho
    return -0.5 * np.log(s2) - (rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * s2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(gaussians, claytons), point_pairs)
def test_shared_slots_equal_the_former_one_slot_formulas(cop, xy):
    """Clayton's and Gaussian's step share logs or normal scores across
    their slots; each slot is still the float result of the former
    one-slot formula at the rotated point, reflected back and clipped."""
    x, y = xy
    if cop.family == "clayton":
        h, logpdf, param = former_clayton_h, former_clayton_logpdf, cop.theta
    else:
        h, logpdf, param = former_gaussian_h, former_gaussian_logpdf, cop.rho
    flip_x, flip_y = cop.rotation in (90, 180), cop.rotation in (180, 270)
    a, b = (1.0 - x if flip_x else x), (1.0 - y if flip_y else y)
    h_ab, h_ba = h(param, a, b), h(param, b, a)
    want = (np.clip(1.0 - h_ab if flip_x else h_ab, EPS, 1 - EPS),
            np.clip(1.0 - h_ba if flip_y else h_ba, EPS, 1 - EPS),
            logpdf(param, a, b))
    for got, value in zip(cop.step(x, y, True, True, True), want):
        assert np.array_equal(got, value)
