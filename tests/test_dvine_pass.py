"""The single h-function pass against the tree-by-tree recursion it replaced.

`reference_triangle` is the former `DVineModel._triangle`: it builds
every tree level of conditional cdfs before any caller reads them.  The
reference density, Rosenblatt transform, inverse and fit below are the
former bodies of those methods on top of it.  The pass must give the
same bytes, since both evaluate the same kernels on the same arguments
and add the log densities in the same (tree-by-tree) order.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import constant_vine
from vineshap import (ClaytonCopula, DVineModel, EmpiricalMarginal,
                      GaussianCopula, GridCopula, IndependenceCopula, PairCopula,
                      VineRatioEstimator, fit_dvine, fit_parametric, greedy_cover)
from vineshap.structure import set_of


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
                model.marginal_copula_log_density((s, e), V[:, s:e + 1]),
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


def test_conditional_sample_solves_only_the_free_positions(monkeypatch):
    """The pinned pass: no Rosenblatt transform of x*_S and no h-inverse on
    its positions, so sum_{k=s}^{M-1} k h-inverse points per row."""
    m, K = 8, 10
    points = []
    hinv = PairCopula.hinv

    def counted(self, w, v, cond_on="second"):
        out = hinv(self, w, v, cond_on)
        points.append(out.size)
        return out

    def refused(self, u):
        raise AssertionError("conditional_sample must not call rosenblatt")

    monkeypatch.setattr(PairCopula, "hinv", counted)
    monkeypatch.setattr(DVineModel, "rosenblatt", refused)
    data = np.random.default_rng(0).normal(size=(50, m))
    model = constant_vine(data, (3, 0, 7, 1, 6, 2, 5, 4), ClaytonCopula(2.0))
    for s in range(1, m):
        for features in (model.order[:s], model.order[m - s:]):
            points.clear()
            model.conditional_sample(set(features), data[0], K, np.random.default_rng(s))
            assert sum(points) / K == sum(range(s, m))


# ----------------------------------------------------------------------
# ratio weights: the straddling pairs, stacked per order, against the
# former numerator-minus-denominator formula

def reference_log_weights(est, features, x_star):
    """The former `VineRatioEstimator.log_weights`: the full density with S
    pinned at x*, minus the complement block's own density."""
    u = est.train_u[est._sub_idx].copy()
    for j in features:
        u[:, j] = est.marginals[j].cdf(x_star[j])
    sbar = sorted(set(range(est.M)) - set(features))
    if len(sbar) < 2:
        return est.models[0].copula_log_density(u)
    model = est.models[est.plan.assignment[frozenset(sbar)]]
    positions = [model.order.index(j) for j in sbar]
    start, end = min(positions), max(positions)
    assert end - start + 1 == len(sbar)  # the complement is a contiguous block
    cols = [model.order[p] for p in range(start, end + 1)]
    return (model.copula_log_density(u)
            - model.marginal_copula_log_density((start, end), u[:, cols]))


def normalised(logw):
    w = np.exp(logw - np.max(logw))
    return w / w.sum()


ratio_pairs = st.one_of(pair_copulas, st.integers(0, 2 ** 32 - 1).map(
    lambda s: GridCopula(np.random.default_rng(s).uniform(0.2, 3.0, size=(8, 8)))))


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 8), st.data(), st.integers(0, 2 ** 32 - 1))
def test_stacked_ratio_weights_match_numerator_minus_denominator(m, data, seed):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(60, m))
    plan = greedy_cover(m, "ratio", B=5, rng=rng)
    marginals = [EmpiricalMarginal(train[:, j]) for j in range(m)]
    models = [DVineModel(order, [[data.draw(ratio_pairs) for _ in range(m - 1 - i)]
                                 for i in range(m - 1)], marginals)
              for order in plan.orders]
    est = VineRatioEstimator(train, lambda x: x[:, 0], models, plan, K=40, rng=rng)
    x_star = rng.normal(scale=2.0, size=m)  # some entries beyond the training range
    est.begin_explanation(x_star)
    draws = list(est.sample_all(x_star))
    assert sorted(mask for mask, _, _ in draws) == list(range(1, (1 << m) - 1))
    checked = set()
    for mask, x, pi in draws:
        features = set_of(mask)
        want = normalised(reference_log_weights(est, features, x_star))
        assert np.max(np.abs(pi - want)) <= 1e-12
        assert np.array_equal(x, est._pinned(est._sub_idx, features, x_star))
        # one block through `sample` is the stacked pass's row, bit for
        # bit; checked on the first coalition of each serving order
        sbar = frozenset(range(m)) - features
        order_index = plan.assignment[sbar] if len(sbar) > 1 else 0
        if order_index not in checked:
            checked.add(order_index)
            assert np.array_equal(est.sample(features, x_star)[1], pi)


# ----------------------------------------------------------------------
# conditional sampling: the pinned pass against the former Rosenblatt
# round trip of x*_S

def reference_conditional_sample(model, features, x_star, K, rng):
    """The former `DVineModel.conditional_sample`, which transformed u* and
    inverted that transform with the draws.  Also returns how far the
    inverse moved the conditioning u-values."""
    model = model if model.coalition_role(features) == "prefix" else model.reversed()
    m, s = model.M, len(features)
    u_star = np.full(m, 0.5)
    for f in features:
        u_star[f] = model.marginals[f].cdf(x_star[f])
    W = np.empty((K, m))
    W[:, :s] = model.rosenblatt(u_star)[0, :s]
    W[:, s:] = rng.uniform(size=(K, m - s))
    U = model.inverse_rosenblatt(W)
    cols = sorted(features)
    moved = float(np.max(np.abs(U[:, cols] - np.clip(u_star[cols], 1e-10, 1 - 1e-10))))
    X = np.empty((K, m))
    for f in range(m):
        X[:, f] = x_star[f] if f in features else model.marginals[f].quantile(U[:, f])
    return X, moved


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.data(), st.integers(0, 2 ** 32 - 1))
def test_pinned_pass_matches_the_round_trip_where_that_is_exact(m, data, seed):
    rng = np.random.default_rng(seed)
    order = data.draw(st.permutations(range(m)))
    pairs = [[data.draw(ratio_pairs) for _ in range(m - 1 - i)] for i in range(m - 1)]
    train = rng.normal(size=(60, m))
    model = DVineModel(order, pairs, [EmpiricalMarginal(train[:, j]) for j in range(m)])
    x_star = rng.normal(scale=2.0, size=m)  # some entries beyond the training range
    s = data.draw(st.integers(1, m - 1))
    features = set(data.draw(st.sampled_from([order[:s], order[m - s:]])))
    want, moved = reference_conditional_sample(model, features, x_star, 50,
                                               np.random.default_rng(seed))
    assume(moved <= 1e-12)
    got = model.conditional_sample(features, x_star, 50, np.random.default_rng(seed))
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))
