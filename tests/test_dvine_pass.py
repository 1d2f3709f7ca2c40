"""The vine's two walks against the recursion they replaced, and their work.

The forward walk, `dvine._trees`, builds each tree's arguments from the
last tree's; the inverse, `DVineModel._solve`, goes position by position
down h-inverse chains.  `reference_triangle` is the former
`DVineModel._triangle`: it builds every tree level of conditional cdfs
with the public, clipping kernels before any caller reads them.  The
reference density, Rosenblatt transform, inverse, fit and straddling
pairs below are the former bodies of those methods on top of it.  The
walks must give the same bytes, since both evaluate the same kernels on
the same arguments and add the log densities in the same (tree-by-tree)
order.  The count tests pin the kernel calls each walk makes.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (constant_vine, count_steps, counted_inverse_points, counted_step_points,
                     seeded_grid, straddled_overlaps)
from vineshap import (ClaytonCopula, CoverageError, DVineModel, EmpiricalMarginal,
                      GaussianCopula, GridCopula, IndependenceCopula,
                      InvalidInputError, NonparametricMode, ParametricMode,
                      VineCondSimEstimator, VineRatioEstimator,
                      analytic_mean_predictor, burr_sample, explain, fit_dvine,
                      fit_parametric, greedy_cover, shapley, study_params)
from vineshap.structure import set_of


def reference_triangle(V, pairs, chains=None):
    """left[i][j] = F(v_j | v_{j+1..j+i}), right[i][j] = F(v_{j+i+1} | v_{j+1..j+i}).

    chains[k], where given, is column k's h-inverse chain and the carries
    its calls returned: chains[k][0][i] is right[i][k-1-i] and
    chains[k][1][i] is left[i+1][k-1-i], read from them instead of computed."""
    m = V.shape[1]
    chains = chains or {}
    left = [[V[:, j] for j in range(m)]]
    right = [[V[:, j + 1] for j in range(m - 1)]]
    for i in range(m - 1):
        left.append([chains[j + i + 1][1][i] if j + i + 1 in chains else
                     pairs[i][j].hfunc(left[i][j], right[i][j], "second")
                     for j in range(m - 1 - i)])
        right.append([chains[j + i + 2][0][i + 1] if j + i + 2 in chains else
                      pairs[i][j + 1].hfunc(left[i][j + 1], right[i][j + 1], "first")
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


def reference_inverse_rosenblatt(model, w, reuse_chains=True, carried=None):
    """Column k is solved down its h-inverse chain, given the triangle of
    columns 0..k-1.  That triangle reads each solved column's h-values from
    its chain and the carries of the calls that built it, as the pass does;
    with `reuse_chains=False` it recomputes them with h-functions, as the
    pass did before.  `carried`, if given, receives the values x_0..x_{k-1}
    each column k was solved with."""
    W = np.clip(w, 1e-10, 1 - 1e-10)
    V = W.copy()
    chains = {}
    for k in range(1, model.M):
        left, _ = reference_triangle(V[:, :k], model.pairs, reuse_chains and chains)
        if carried is not None:
            carried[k] = [left[i][k - 1 - i] for i in range(k)]
        chain, carries = [W[:, k]], []
        for i in range(k, 0, -1):
            y, h = model.pairs[i - 1][k - i].inverse(chain[0], left[i - 1][k - i], carry=True)
            chain.insert(0, y)
            carries.insert(0, h)
        V[:, k], chains[k] = chain[0], (chain, carries)
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


pair_copulas = st.one_of(
    st.just(IndependenceCopula()),
    st.builds(GaussianCopula, st.floats(-0.95, 0.95)),
    st.builds(ClaytonCopula, st.floats(0.1, 50.0), st.sampled_from([0, 90, 180, 270])))


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
    # Recomputing a solved column's h-values from its root gives them back
    # within the round trip's error (largest seen: 1.9e-9 over 3,000 random
    # vines), except on rows 0-2: at the clip, h saturates and u is lost.
    recomputed = reference_inverse_rosenblatt(model, u, reuse_chains=False)
    assert np.max(np.abs(model.inverse_rosenblatt(u) - recomputed)[3:]) <= 1e-8

    # fit on a sample drawn from the vine itself, so every tree carries dependence
    data = model.inverse_rosenblatt(rng.uniform(size=(60, m)))
    fitted = fit_dvine(data, model.order)
    V = np.column_stack([fitted.marginals[j].cdf(data[:, j]) for j in model.order])
    want = reference_fit_pairs(V)
    assert [[pc.to_dict() for pc in row] for row in fitted.pairs] == \
        [[pc.to_dict() for pc in row] for row in want]


def test_inverse_rosenblatt_h_points_per_row(monkeypatch):
    """The inverse walks the recursion once, one fused `inverse` call per
    chain step: each solved column's h-values are its chain and the carries
    those calls return, so it makes no `step` call.  Per row: M(M-1)/2
    h-inverse points, and (M-1)(M-2)/2 carried ones (none at the last
    column)."""
    m, n = 8, 10
    steps, inverses = counted_step_points(monkeypatch), counted_inverse_points(monkeypatch)
    data = np.random.default_rng(0).normal(size=(50, m))
    model = constant_vine(data, tuple(range(m)), GaussianCopula(0.5))
    model.inverse_rosenblatt(np.random.default_rng(1).uniform(size=(n, m)))
    assert steps == Counter()
    assert inverses == Counter(hinv=n * m * (m - 1) // 2, carried=n * (m - 1) * (m - 2) // 2)


def counted_walk(monkeypatch):
    """A Counter of `step` calls and of their points by slot; a call that
    asks for no slot fails."""
    counts = Counter()

    def record(copula, x, y, slots):
        assert slots, "a step call asked for no slot"
        counts["calls"] += 1
        for slot in slots:
            counts[slot] += np.broadcast(x, y).size

    count_steps(monkeypatch, record)
    return counts


@pytest.mark.parametrize("m", [2, 3, 8])
def test_forward_walk_steps(monkeypatch, m):
    """The forward walk makes one `step` call per pair of trees 0..M-3, for
    pair j's F(x | y) if j < P - 1 and F(y | x) if j > 0 of the tree's P
    pairs: (M-1)(M-2)/2 points per row and slot, and no call after the
    last tree.  The densities add one
    log-density call per pair, the Rosenblatt transform one F(y | x) call
    per position after the first, and the ratios one call per pair over
    its distinct overlaps with the blocks: with every contiguous block,
    each sub-interval of its span but the span itself.  At M = 8 and
    n = 50: 27 fit calls, and 55 density calls."""
    n = 50
    data = np.random.default_rng(0).normal(size=(n, m)).cumsum(axis=1)
    order = tuple(range(m))[::-1]
    model = fit_dvine(data, order)
    u = np.random.default_rng(1).uniform(size=(n, m))
    blocks = [(a, e) for a in range(m) for e in range(a, m)]
    pairs, walk = m * (m - 1) // 2, (m - 1) * (m - 2) // 2
    overlaps = [(i + 2) * (i + 3) // 2 - 1 for i in range(m - 1)]  # per pair of tree i
    h_overlaps = n * sum((m - 2 - i) * overlaps[i] for i in range(m - 1))
    fit = Counter(calls=max(pairs - 1, 0), second=n * walk, first=n * walk)
    cases = [
        (lambda: fit_dvine(data, order), fit),
        (lambda: model.copula_log_density(u), fit + Counter(calls=pairs, log_density=n * pairs)),
        (lambda: model.rosenblatt(u), fit + Counter(calls=m - 1, first=n * (m - 1))),
        (lambda: model.log_density_ratios(u, u[0], blocks),
         Counter(calls=max(pairs - 1, 0) + pairs, second=(n + 1) * walk + h_overlaps,
                 first=(n + 1) * walk + h_overlaps,
                 log_density=n * sum((m - 1 - i) * overlaps[i] for i in range(m - 1))))]
    if m == 8:
        assert cases[0][1] == Counter(calls=27, second=1050, first=1050)
        assert cases[1][1] == Counter(calls=55, log_density=1400, second=1050, first=1050)
    for run, want in cases:
        with monkeypatch.context() as patch:
            counts = counted_walk(patch)
            run()
        assert counts == +want


def test_conditional_sample_h_points_per_solved_row(monkeypatch):
    """Solved rows make sum_{k=s}^{M-1} k h-inverse points and
    sum_{k=s}^{M-2} k carried points each, from the fused `inverse` calls,
    and no `step` call; x*'s pinned prefix adds its own pass on one row,
    which stops once the values it carries to position s are in: the
    "first" values at s would be read by nothing."""
    m, K = 8, 10
    data = np.random.default_rng(0).normal(size=(50, m))
    model = constant_vine(data, (3, 0, 7, 1, 6, 2, 5, 4), ClaytonCopula(2.0))
    for s in range(1, m):
        for features in (model.order[:s], model.order[m - s:]):
            with monkeypatch.context() as patch:
                steps, inverses = counted_step_points(patch), counted_inverse_points(patch)
                model.conditional_sample([set(features)], data[0],
                                         [np.random.default_rng(s).uniform(size=(K, m - s))])
            assert steps == Counter(first=sum(range(s - 1)), second=sum(range(s)))
            assert inverses == Counter(hinv=K * sum(range(s, m)),
                                       carried=K * sum(range(s, m - 1)))


def test_conditional_sample_solves_only_the_free_positions(monkeypatch):
    """The pinned pass: no Rosenblatt transform of x*_S and no h-inverse on
    its positions, so sum_{k=s}^{M-1} k h-inverse points per row."""
    m, K = 8, 10

    def refused(self, u):
        raise AssertionError("conditional_sample must not call rosenblatt")

    points = counted_inverse_points(monkeypatch)
    monkeypatch.setattr(DVineModel, "rosenblatt", refused)
    data = np.random.default_rng(0).normal(size=(50, m))
    model = constant_vine(data, (3, 0, 7, 1, 6, 2, 5, 4), ClaytonCopula(2.0))
    for s in range(1, m):
        for features in (model.order[:s], model.order[m - s:]):
            points.clear()
            model.conditional_sample([set(features)], data[0],
                                     [np.random.default_rng(s).uniform(size=(K, m - s))])
            assert points["hinv"] / K == sum(range(s, m))


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
    index, start, end = est.plan.assignment[sum(1 << j for j in sbar)]
    model = est.models[index]
    assert sorted(model.order[start:end + 1]) == sbar  # the complement is a contiguous block
    cols = [model.order[p] for p in range(start, end + 1)]
    return (model.copula_log_density(u)
            - model.marginal_copula_log_density((start, end), u[:, cols]))


def normalised(logw):
    w = np.exp(logw - np.max(logw))
    return w / w.sum()


ratio_pairs = st.one_of(pair_copulas, st.integers(0, 2 ** 32 - 1).map(seeded_grid))


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
        assert np.array_equal(x, est._pinned(est._sub_idx, mask, x_star))
        # one block through `sample` is the stacked pass's row, bit for
        # bit; checked on the first coalition of each serving order
        sbar = frozenset(range(m)) - features
        order_index = plan.assignment[(1 << m) - 1 ^ mask][0] if len(sbar) > 1 else 0
        if order_index not in checked:
            checked.add(order_index)
            assert np.array_equal(est.sample(features, x_star)[1], pi)


def reference_straddling(model, u, u_star, blocks):
    """The former per-block `DVineModel._straddling`: each straddling pair
    evaluated once per block, its carried h-values keyed by (pair, block)."""
    V = np.vstack([u, u_star])[:, model.order]
    n, m = len(u), model.M
    args = reference_triangle(V, model.pairs)
    out = np.zeros((len(blocks), n))
    carried = ({}, {})
    for i in range(m - 1):
        prev, carried = carried, ({}, {})
        for j in range(m - 1 - i):

            def arg(side, b):
                a, e = blocks[b]
                if a <= j + side and j + i + side <= e:
                    return args[side][i][j][:n]
                if j + i + side < a or e < j + side:
                    return np.broadcast_to(args[side][i][j][n], n)
                return prev[side][j, b]

            bs = [b for b, (a, e) in enumerate(blocks)
                  if a <= j + i + 1 and j <= e and not (a <= j and j + i + 1 <= e)]
            if bs:
                x, y = (np.concatenate([arg(side, b) for b in bs]) for side in (0, 1))
                pc = model.pairs[i][j]
                out[bs] += pc.log_density(x, y).reshape(len(bs), n)
                for side, k in ((0, j), (1, j - 1)):
                    if 0 <= k < m - 2 - i:
                        h = pc.hfunc(x, y, ("second", "first")[side]).reshape(-1, n)
                        carried[side].update(((k, b), row) for b, row in zip(bs, h))
    return out


@st.composite
def block_sets(draw, m):
    """Every contiguous block of the order, many blocks that share their
    overlap with most spans (one start or one end, some repeated), or one."""
    every = [(a, e) for a in range(m) for e in range(a, m)]
    kind = draw(st.sampled_from(["every", "shared", "single"]))
    if kind == "every":
        return every
    if kind == "single":
        return [draw(st.sampled_from(every))]
    a, e = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    shared = [(a, f) for f in range(a, m)] + [(s, e) for s in range(e + 1)]
    return draw(st.lists(st.sampled_from(shared), min_size=2, max_size=3 * m))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data(), st.integers(0, 2 ** 32 - 1))
def test_straddling_equals_the_per_block_evaluation(m, data, seed):
    rng = np.random.default_rng(seed)
    order = data.draw(st.permutations(range(m)))
    pairs = [[data.draw(ratio_pairs) for _ in range(m - 1 - i)] for i in range(m - 1)]
    model = DVineModel(order, pairs, [EmpiricalMarginal([0.0, 1.0]) for _ in range(m)])
    u = np.clip(rng.uniform(size=(30, m)), 1e-10, 1 - 1e-10)
    u[:2] = np.array([1e-10, 1 - 1e-10])[:, None]
    u_star = np.clip(rng.uniform(size=m), 1e-10, 1 - 1e-10)
    blocks = data.draw(block_sets(m))
    want = reference_straddling(model, u, u_star, blocks)
    assert np.array_equal(model.log_density_ratios(u, u_star, blocks), want)


def test_each_straddling_pair_is_evaluated_once_per_overlap(monkeypatch):
    """At M = 8, per serving order: K log-density rows per straddling pair
    and distinct set of span positions inside a complement block."""
    m, K = 8, 30
    train = np.random.default_rng(0).normal(size=(60, m))
    plan = greedy_cover(m, "ratio", rng=np.random.default_rng(1))
    models = [constant_vine(train, order, ClaytonCopula(2.0)) for order in plan.orders]
    rows, current = Counter(), []
    ratios = DVineModel.log_density_ratios

    def counted(copula, x, y, slots):
        if "log_density" in slots:
            rows[current[-1]] += len(x)

    def serving(self, *args):
        current.append(self.order)
        return ratios(self, *args)

    count_steps(monkeypatch, counted)
    monkeypatch.setattr(DVineModel, "log_density_ratios", serving)
    est = VineRatioEstimator(train, lambda x: x[:, 0], models, plan, K=K,
                             rng=np.random.default_rng(2))
    shapley(est, train[0])
    want = Counter()
    for (order, *_), overlaps in straddled_overlaps(plan).items():
        want[order] += K * len(overlaps)
    assert rows == want


# ----------------------------------------------------------------------
# conditional sampling: the pinned pass against the former Rosenblatt
# round trip of x*_S

def reference_conditional_sample(model, features, x_star, K, rng):
    """The former `DVineModel.conditional_sample`, which transformed u* and
    inverted that transform with the draws.  Also returns how far the
    inverse moved the conditioning u-values, or, relative to their distance
    from 0 and from 1, the h-values they carry to the first free position:
    near a tail, an h-value that barely moved can move the free columns'
    h-inverses far more."""
    model = model if model.coalition_role(features) == "prefix" else model.reversed()
    m, s = model.M, len(features)
    u_star = np.full(m, 0.5)
    for f in features:
        u_star[f] = model.marginals[f].cdf(x_star[f])
    W = np.empty((K, m))
    W[:, :s] = model.rosenblatt(u_star)[0, :s]
    W[:, s:] = rng.uniform(size=(K, m - s))
    carried = {}
    U = reference_inverse_rosenblatt(model, W, carried=carried)  # inverse_rosenblatt's bytes
    cols = sorted(features)
    moved = float(np.max(np.abs(U[:, cols] - np.clip(u_star[cols], 1e-10, 1 - 1e-10))))
    # what x*'s own prefix carries to position s: F(v_{s-1-i} | v_{s-i..s-1})
    left, _ = reference_triangle(np.clip(u_star[None, list(model.order[:s])], 1e-10,
                                         1 - 1e-10), model.pairs)
    for i in range(s):
        a, b = (np.clip(x, 1e-10, 1 - 1e-10) for x in (carried[s][i], left[i][s - 1 - i]))
        moved = max(moved, float(np.max(np.abs(np.log(a) - np.log(b)))),
                    float(np.max(np.abs(np.log1p(-a) - np.log1p(-b)))))
    X = np.empty((K, m))
    for f in range(m):
        X[:, f] = x_star[f] if f in features else model.marginals[f].quantile(U[:, f])
    return X, moved


@st.composite
def pinned_cases(draw):
    """An order of 2..8 positions, its pair copulas, and a prefix or a suffix."""
    m = draw(st.integers(2, 8))
    order = draw(st.permutations(range(m)))
    pairs = [[draw(ratio_pairs) for _ in range(m - 1 - i)] for i in range(m - 1)]
    s = draw(st.integers(1, m - 1))
    return order, pairs, draw(st.sampled_from([order[:s], order[m - s:]]))


I, C = IndependenceCopula(), ClaytonCopula


@settings(max_examples=200, deadline=None)
@given(pinned_cases(), st.integers(0, 2 ** 32 - 1))
# The former inverse recomputed the prefix's h-values from its round-tripped
# u-values and missed this sample by 1.05e-8 (relative); the chain gives 1.4e-13.
@example(((0, 1, 2, 3, 4, 5), [[I, C(29.0, 270), C(15.0), C(18.0, 180), I],
                               [I, C(1.5), C(28.0, 90), I], [I, C(36.0), I],
                               [I, seeded_grid(0)], [I]], (0, 1, 2)), 530852)
def test_pinned_pass_matches_the_round_trip_where_that_is_exact(case, seed):
    order, pairs, features = case
    m, s, features = len(order), len(features), set(features)
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(60, m))
    model = DVineModel(order, pairs, [EmpiricalMarginal(train[:, j]) for j in range(m)])
    x_star = rng.normal(scale=2.0, size=m)  # some entries beyond the training range
    want, moved = reference_conditional_sample(model, features, x_star, 50,
                                               np.random.default_rng(seed))
    assume(moved <= 1e-12)
    got = model.conditional_sample([features], x_star,
                                   [np.random.default_rng(seed).uniform(size=(50, m - s))])[0]
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


# ----------------------------------------------------------------------
# conditional sampling: one stacked pass per order and end against one
# pass per coalition

MODES = {"parametric": ParametricMode(), "grid-16": NonparametricMode(16)}


def burr_vines(m, mode, method="condsim", seed=0):
    """Burr training rows, a cover plan and its vines fitted in `mode`."""
    params = study_params(0.5, M=m)
    train = burr_sample(params, 200, np.random.default_rng(seed))
    plan = greedy_cover(m, method, rng=np.random.default_rng(seed + 1))
    models = [fit_dvine(train, order, MODES[mode]) for order in plan.orders]
    return params, train, plan, models


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_stacked_conditional_sample_equals_one_coalition_calls(m, mode):
    """Every prefix group and every suffix group of an order, stacked in
    shuffled input order, in chunks of one, two and all, with blocks of
    different sizes: each table is the one-coalition call's, bit for bit."""
    _, train, _, models = burr_vines(m, mode)
    model = models[0]
    rng = np.random.default_rng(m)
    x_star = train[0] * rng.uniform(0.5, 2.0, size=m)  # some entries beyond the range
    for group in ([model.order[:s] for s in range(1, m)],
                  [model.order[m - s:] for s in range(1, m)]):
        group = [set(group[c]) for c in rng.permutation(len(group))]
        draws = [rng.uniform(size=(3 + c, m - len(f))) for c, f in enumerate(group)]
        want = [model.conditional_sample([f], x_star, [d])[0] for f, d in zip(group, draws)]
        for step in (1, 2, len(group)):
            got = []
            for start in range(0, len(group), step):
                got += model.conditional_sample(group[start:start + step], x_star,
                                                draws[start:start + step])
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_conditional_sample_rejects_a_mixed_or_malformed_group():
    model = constant_vine(np.random.default_rng(0).normal(size=(50, 4)), (0, 1, 2, 3),
                          GaussianCopula(0.5))
    draws = [np.full((5, 3), 0.5), np.full((5, 3), 0.5)]
    with pytest.raises(CoverageError):
        model.conditional_sample([{0}, {3}], np.zeros(4), draws)
    with pytest.raises(InvalidInputError):
        model.conditional_sample([{0}, {0, 1}], np.zeros(4), draws)
    with pytest.raises(InvalidInputError):
        model.conditional_sample([{0}], np.zeros(4), draws)


def condsim_groups(plan, models):
    """The coalition masks of each (serving order, prefix or suffix) group
    of a condsim plan, as a Counter of (order, role, masks)."""
    groups = {}
    for mask, (index, first, _) in plan.assignment.items():
        role = models[index].coalition_role(set_of(mask))
        assert role == ("prefix" if first == 0 else "suffix")
        groups.setdefault((plan.orders[index], role), set()).add(mask)
    return Counter((order, role, frozenset(masks)) for (order, role), masks in groups.items())


def counted_groups(monkeypatch):
    """A Counter of `conditional_sample` calls by (order, role, coalition masks)."""
    calls = Counter()
    sample = DVineModel.conditional_sample

    def counted(self, coalitions, x_star, draws):
        calls[self.order, self.coalition_role(coalitions[0]),
              frozenset(sum(1 << f for f in c) for c in coalitions)] += 1
        return sample(self, coalitions, x_star, draws)

    monkeypatch.setattr(DVineModel, "conditional_sample", counted)
    return calls


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("m", [3, 5])
def test_condsim_estimator_chunks_groups_to_the_predictor_batch(monkeypatch, m, mode):
    """With `PREDICT_CELLS` at two coalitions' cells, each group is still
    sampled by one inverse pass, and every draw is the one-coalition
    sample's: the draws are keyed by the coalition alone."""
    params, train, plan, models = burr_vines(m, mode)
    g = analytic_mean_predictor(params)
    K = 7
    monkeypatch.setattr(explain, "PREDICT_CELLS", 2 * K * m)
    calls = counted_groups(monkeypatch)
    est = VineCondSimEstimator(train, g, models, plan, K=K, rng=np.random.default_rng(5))
    x_star = train[1]
    est.begin_explanation(x_star)
    drawn = {mask: x for mask, x, _ in est.sample_all(x_star)}
    assert sorted(drawn) == list(range(1, (1 << m) - 1))
    assert calls == condsim_groups(plan, models)
    for mask, x in drawn.items():
        assert np.array_equal(est.sample(set_of(mask), x_star)[0], x)


def test_vine_calls_are_one_per_group_at_any_predictor_budget(monkeypatch):
    """With `PREDICT_CELLS` at one coalition's cells (M·K), condsim samples
    each (serving order, role) group with one `conditional_sample` call,
    and ratio evaluates each straddled (order, pair) with one log-density
    call of K points per distinct overlap."""
    m, K = 5, 30
    monkeypatch.setattr(explain, "PREDICT_CELLS", m * K)
    train = np.random.default_rng(0).normal(size=(60, m))
    sampled, current, points = counted_groups(monkeypatch), [], Counter()
    ratios = DVineModel.log_density_ratios

    def counted_density(copula, x, y, slots):
        if "log_density" in slots:
            points[current[-1], len(x)] += 1

    def serving(self, *args):
        current.append(self.order)
        return ratios(self, *args)

    count_steps(monkeypatch, counted_density)
    monkeypatch.setattr(DVineModel, "log_density_ratios", serving)

    def explained(method, cls):
        plan = greedy_cover(m, method, rng=np.random.default_rng(1))
        models = [constant_vine(train, order, ClaytonCopula(2.0)) for order in plan.orders]
        shapley(cls(train, lambda x: x[:, 0], models, plan, K=K, rng=np.random.default_rng(2)),
                train[0])
        return plan, models

    assert sampled == condsim_groups(*explained("condsim", VineCondSimEstimator))
    plan, _ = explained("ratio", VineRatioEstimator)
    assert points == Counter((order, K * len(overlaps))
                             for (order, *_), overlaps in straddled_overlaps(plan).items())


def test_each_models_pairs_are_transposed_at_most_once(monkeypatch):
    """Grid vines, two explanations: a suffix samples from the order's
    reversed model, which is built once and never serialised."""
    params, train, plan, models = burr_vines(5, "grid-16")
    before = [json.dumps(model.to_dict()) for model in models]
    transposed = Counter()
    transpose = GridCopula.transpose

    def counted(self):
        transposed[id(self)] += 1
        return transpose(self)

    monkeypatch.setattr(GridCopula, "transpose", counted)
    est = VineCondSimEstimator(train, analytic_mean_predictor(params), models, plan,
                               K=20, rng=np.random.default_rng(3))
    for x_star in train[:2]:
        shapley(est, x_star)
    pairs = {id(pc) for model in models for row in model.pairs for pc in row}
    assert transposed and set(transposed) <= pairs
    assert max(transposed.values()) == 1
    assert [json.dumps(model.to_dict()) for model in models] == before
