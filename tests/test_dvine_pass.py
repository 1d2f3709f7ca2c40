"""The single h-function pass against the tree-by-tree recursion it replaced.

`reference_triangle` is the former `DVineModel._triangle`: it builds
every tree level of conditional cdfs before any caller reads them.  The
reference density, Rosenblatt transform, inverse and fit below are the
former bodies of those methods on top of it.  The pass must give the
same bytes, since both evaluate the same kernels on the same arguments
and add the log densities in the same (tree-by-tree) order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_vine
from vineshap import (Block, ClaytonCopula, DVineModel, EmpiricalMarginal,
                      GaussianCopula, IndependenceCopula, PairCopula,
                      fit_dvine, fit_parametric)


def reference_triangle(V, pairs):
    """left[i][j] = F(v_j | v_{j+1..j+i}), right[i][j] = F(v_{j+i+1} | v_{j+1..j+i})."""
    m = V.shape[1]
    left = [[V[:, j] for j in range(m)]]
    right = [[V[:, j + 1] for j in range(m - 1)]]
    for i in range(m - 1):
        left.append([pairs[i][j].hfunc(left[i][j], right[i][j], "second")
                     for j in range(m - 1 - i)])
        right.append([pairs[i][j + 1].hfunc(left[i][j + 1], right[i][j + 1], "first")
                      for j in range(m - 2 - i)])
    return left, right


def reference_log_density(V, pairs):
    left, right = reference_triangle(V, pairs)
    out = np.zeros(V.shape[0])
    for i in range(V.shape[1] - 1):
        for j in range(V.shape[1] - 1 - i):
            out += pairs[i][j].log_density(left[i][j], right[i][j])
    return out


def reference_rosenblatt(model, u):
    V = np.clip(u[:, model.order], 1e-10, 1 - 1e-10)
    left, right = reference_triangle(V, model.pairs)
    W = V.copy()
    for k in range(1, model.M):
        W[:, k] = model.pairs[k - 1][0].hfunc(left[k - 1][0], right[k - 1][0], "first")
    return W


def reference_inverse_rosenblatt(model, w):
    W = np.clip(w, 1e-10, 1 - 1e-10)
    V = W.copy()
    for k in range(1, model.M):
        left, _ = reference_triangle(V[:, :k], model.pairs)
        z = W[:, k]
        for i in range(k, 0, -1):
            z = model.pairs[i - 1][k - i].hinv(z, left[i - 1][k - i], "first")
        V[:, k] = z
    U = np.empty_like(V)
    U[:, list(model.order)] = V
    return U


def reference_fit_pairs(V):
    """Tree-by-tree fit: tree i is fitted once trees 0..i-1 are known."""
    m = V.shape[1]
    pairs = []
    for i in range(m - 1):
        table = pairs + [[IndependenceCopula()] * (m - 1 - t) for t in range(i, m - 1)]
        left, right = reference_triangle(V, table)
        pairs.append([fit_parametric(np.column_stack([left[i][j], right[i][j]]))
                      for j in range(m - 1 - i)])
    return pairs


# Clayton theta stays at or below 25: past about 31, u ** -theta overflows at
# the 1e-10 clip, which is a kernel defect of its own (the Clayton overflow
# item on the roadmap).  This test compares the pass with the old recursion;
# it must not stand in for a test of that overflow.
pair_copulas = st.one_of(
    st.just(IndependenceCopula()),
    st.builds(GaussianCopula, st.floats(-0.95, 0.95)),
    st.builds(ClaytonCopula, st.floats(0.1, 25.0), st.sampled_from([0, 90, 180, 270])))


@st.composite
def vines(draw):
    m = draw(st.integers(2, 8))
    order = draw(st.permutations(range(m)))
    pairs = [[draw(pair_copulas) for _ in range(m - 1 - i)] for i in range(m - 1)]
    marginals = [EmpiricalMarginal([0.0, 1.0]) for _ in range(m)]
    return DVineModel(order, pairs, marginals)


@settings(max_examples=40, deadline=None)
@given(vines(), st.integers(0, 2 ** 32 - 1))
def test_pass_matches_tree_by_tree_recursion(model, seed):
    rng = np.random.default_rng(seed)
    m = model.M
    u = rng.uniform(size=(40, m))
    u[:3] = np.array([0.0, 1e-12, 1.0])[:, None]
    V = u[:, model.order]

    assert np.array_equal(model.copula_log_density(u),
                          reference_log_density(V, model.pairs))
    for s in range(m):
        for e in range(s, m):
            sub = [[model.pairs[i][j] for j in range(s, e - i)] for i in range(e - s)]
            assert np.array_equal(
                model.marginal_copula_log_density(Block(s, e), V[:, s:e + 1]),
                reference_log_density(V[:, s:e + 1], sub))
    assert np.array_equal(model.rosenblatt(u), reference_rosenblatt(model, u))
    assert np.array_equal(model.inverse_rosenblatt(u),
                          reference_inverse_rosenblatt(model, u))

    # fit on a sample drawn from the vine itself, so every tree carries dependence
    data = model.inverse_rosenblatt(rng.uniform(size=(60, m)))
    fitted = fit_dvine(data, model.order)
    V = np.column_stack([fitted.marginals[j].cdf(data[:, j]) for j in model.order])
    want = reference_fit_pairs(V)
    assert [[pc.to_dict() for pc in row] for row in fitted.pairs] == \
        [[pc.to_dict() for pc in row] for row in want]


def test_inverse_rosenblatt_h_points_per_row(monkeypatch):
    """The inverse walks the recursion once: at most (M-1)(M-2) h-points per row."""
    m, n = 8, 10
    points = []
    hfunc = PairCopula.hfunc

    def counted(self, u, v, cond_on="second"):
        out = hfunc(self, u, v, cond_on)
        points.append(out.size)
        return out

    monkeypatch.setattr(PairCopula, "hfunc", counted)
    data = np.random.default_rng(0).normal(size=(50, m))
    model = constant_vine(data, tuple(range(m)), GaussianCopula(0.5))
    model.inverse_rosenblatt(np.random.default_rng(1).uniform(size=(n, m)))
    assert sum(points) / n <= (m - 1) * (m - 2)
