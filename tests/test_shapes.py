"""Arrays in, arrays out: every kernel returns an ndarray of the broadcast
shape of its inputs, and every D-vine method returns one entry (or row)
per input row, also for a single row."""

import itertools

import numpy as np
import pytest

from vineshap import (ClaytonCopula, DVineModel, EmpiricalMarginal,
                      GaussianCopula, IndependenceCopula, fit_nonparametric)

SHAPES = [(), (1,), (5,)]


def _copulas(rng):
    grid = fit_nonparametric(rng.uniform(0.05, 0.95, size=(200, 2)), grid_size=16)
    return [IndependenceCopula(), GaussianCopula(0.4), ClaytonCopula(1.5, rotation=90), grid]


def _cases():
    rng = np.random.default_rng(40)
    cases = []
    for cop, (su, sv) in itertools.product(_copulas(rng), itertools.product(SHAPES, SHAPES)):
        u, v = np.full(su, 0.3), np.full(sv, 0.6)
        want = np.broadcast_shapes(su, sv)
        tag = f"{cop.family}-{su}-{sv}"
        cases.append((f"{tag}-log_density", cop.log_density, (u, v), want))
        for cond_on in ("first", "second"):
            cases.append((f"{tag}-hfunc-{cond_on}", cop.hfunc, (u, v, cond_on), want))
            cases.append((f"{tag}-hinv-{cond_on}", cop.hinv, (u, v, cond_on), want))

    marg = EmpiricalMarginal(rng.normal(size=20))
    for s in SHAPES:
        cases.append((f"cdf-{s}", marg.cdf, (np.full(s, 0.1),), s))
        cases.append((f"quantile-{s}", marg.quantile, (np.full(s, 0.4),), s))

    model = DVineModel((2, 0, 1),
                       [[GaussianCopula(0.5), ClaytonCopula(1.0, rotation=180)],
                        [GaussianCopula(0.3)]],
                       [EmpiricalMarginal(rng.normal(size=30)) for _ in range(3)])
    for tag, u, n in (("vector", np.full(3, 0.4), 1), ("one-row", np.full((1, 3), 0.4), 1),
                      ("rows", rng.uniform(0.1, 0.9, size=(4, 3)), 4)):
        cases += [
            (f"copula_log_density-{tag}", model.copula_log_density, (u,), (n,)),
            (f"marginal_copula_log_density-{tag}", model.marginal_copula_log_density,
             ((0, 1), u[..., :2]), (n,)),
            (f"marginal_copula_log_density-width1-{tag}",
             model.marginal_copula_log_density, ((1, 1), u[..., :1]), (n,)),
            (f"rosenblatt-{tag}", model.rosenblatt, (u,), (n, 3)),
            (f"inverse_rosenblatt-{tag}", model.inverse_rosenblatt, (u,), (n, 3)),
        ]
    for K in (1, 4):
        cases.append((f"conditional_sample-K{K}",
                      lambda *args: model.conditional_sample(*args)[0],
                      ([{2}], np.zeros(3), [np.random.default_rng(0).uniform(size=(K, 2))]),
                      (K, 3)))
    return cases


CASES = _cases()


@pytest.mark.parametrize("fn,args,want", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_arrays_in_arrays_out(fn, args, want):
    out = fn(*args)
    assert isinstance(out, np.ndarray)
    assert out.shape == want


@pytest.mark.parametrize("cop", _copulas(np.random.default_rng(40)), ids=lambda c: c.family)
@pytest.mark.parametrize("sw,sx", list(itertools.product(SHAPES, SHAPES)),
                         ids=[f"{a}-{b}" for a, b in itertools.product(SHAPES, SHAPES)])
def test_inverse_returns_arrays_and_a_carry_only_if_asked(cop, sw, sx):
    w, x = np.full(sw, 0.3), np.full(sx, 0.6)
    want = np.broadcast_shapes(sw, sx)
    y, carry = cop.inverse(w, x)
    assert carry is None and isinstance(y, np.ndarray) and y.shape == want
    for out in cop.inverse(w, x, carry=True):
        assert isinstance(out, np.ndarray) and out.shape == want
