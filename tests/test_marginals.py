import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vineshap import EmpiricalMarginal, InvalidInputError


def test_fit_sorts_sample():
    m = EmpiricalMarginal([3.0, 1.0, 2.0])
    assert np.array_equal(m.sorted_sample, [1.0, 2.0, 3.0])
    assert m.n == 3


def test_fit_single_value_rejected():
    with pytest.raises(InvalidInputError):
        EmpiricalMarginal([5.0])


def test_fit_nonfinite_rejected():
    with pytest.raises(InvalidInputError):
        EmpiricalMarginal([1.0, np.nan, 2.0])


def test_fit_retains_ties():
    m = EmpiricalMarginal([1.0, 1.0, 2.0])
    assert np.array_equal(m.sorted_sample, [1.0, 1.0, 2.0])


def test_cdf_rank_rule():
    m = EmpiricalMarginal([1.0, 2.0, 3.0])
    assert m.cdf(2.0) == pytest.approx(0.5)
    assert m.cdf(0.0) == pytest.approx(0.25)     # clamp floor 1/(n+1)
    assert m.cdf(100.0) == pytest.approx(0.75)   # rank n / (n+1)


def test_quantile_interpolation():
    m = EmpiricalMarginal([1.0, 2.0, 3.0])
    assert m.quantile(0.5) == pytest.approx(2.0)
    assert m.quantile(0.99) == pytest.approx(3.0)    # constant beyond top
    assert m.quantile(0.375) == pytest.approx(1.5)   # midpoint of 1/4, 2/4


def test_quantile_domain_errors():
    m = EmpiricalMarginal([1.0, 2.0, 3.0])
    for u in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidInputError):
            m.quantile(u)


def test_roundtrip_on_training_points():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    m = EmpiricalMarginal(x)
    back = m.quantile(m.cdf(x))
    assert np.allclose(back, x, atol=0, rtol=0)


def test_roundtrip_with_ties_maps_to_largest():
    m = EmpiricalMarginal([1.0, 1.0, 2.0])
    # both tied points map to the tied value itself
    assert m.quantile(m.cdf(1.0)) == pytest.approx(1.0)


def test_boundary_safety():
    m = EmpiricalMarginal(np.arange(50.0))
    u = m.cdf(np.array([-1e9, 0.0, 25.0, 1e9]))
    assert np.all(u > 0) and np.all(u < 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10))
def test_cdf_monotone(sample, queries):
    m = EmpiricalMarginal(sample)
    q = np.sort(np.asarray(queries))
    u = np.atleast_1d(m.cdf(q))
    assert np.all(np.diff(u) >= 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50),
       st.lists(st.floats(1e-6, 1 - 1e-6), min_size=2, max_size=10))
def test_quantile_monotone(sample, us):
    m = EmpiricalMarginal(sample)
    u = np.sort(np.asarray(us))
    x = np.atleast_1d(m.quantile(u))
    assert np.all(np.diff(x) >= -1e-12)


def test_serialization_roundtrip():
    m = EmpiricalMarginal(np.random.default_rng(1).normal(size=40))
    m2 = EmpiricalMarginal.from_dict(m.to_dict())
    assert np.array_equal(m.sorted_sample, m2.sorted_sample)
