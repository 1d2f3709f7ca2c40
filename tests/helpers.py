"""Shared test helpers."""

from collections import Counter

import numpy as np

from vineshap import (BurrMarginal, DVineModel, EmpiricalMarginal, GridCopula, PairCopula,
                      burr_conditional_params, shapley_from_values)

STEP_SLOTS = ("second", "first", "log_density")


def constant_vine(data, order, copula):
    """D-vine with `copula` on every pair and empirical marginals of `data`."""
    m = data.shape[1]
    pairs = [[copula] * (m - 1 - i) for i in range(m - 1)]
    marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    return DVineModel(order, pairs, marginals)


def seeded_grid(seed):
    """An 8 x 8 grid copula of uniform random density values."""
    return GridCopula(np.random.default_rng(seed).uniform(0.2, 3.0, size=(8, 8)))


def straddled_overlaps(plan):
    """Per (order, i, j) of a ratio plan whose span some complement block
    straddles: the distinct sets of span positions inside such a block."""
    overlaps = {}
    for sbar, index in plan.assignment.items():
        order = plan.orders[index]
        positions = [order.index(f) for f in sbar]
        block = set(range(min(positions), max(positions) + 1))
        m = len(order)
        for i in range(m - 1):
            for j in range(m - 1 - i):
                span = set(range(j, j + i + 2))
                if block & span and not span <= block:
                    overlaps.setdefault((order, i, j), set()).add(frozenset(block & span))
    return overlaps


def patch_own(monkeypatch, name, wrap):
    """Replace method `name` by wrap(method) on every package pair-copula
    class that defines its own."""
    classes = [PairCopula]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if name in vars(cls) and cls.__module__ == PairCopula.__module__:
            monkeypatch.setattr(cls, name, wrap(vars(cls)[name]))


def count_steps(monkeypatch, record):
    """Patch `step` so that each call first runs record(copula, x, y, slots),
    slots being the names of the slots it asks for (see STEP_SLOTS)."""
    def wrap(step):
        def counted(self, x, y, second=False, first=False, log_density=False):
            asked = (second, first, log_density)
            record(self, x, y, [slot for slot, on in zip(STEP_SLOTS, asked) if on])
            return step(self, x, y, second, first, log_density)
        return counted

    patch_own(monkeypatch, "step", wrap)


def counted_inverse_points(monkeypatch):
    """A Counter of `inverse` points: one "hinv" per broadcast (w, x) point,
    and one "carried" more where the call asks for the carry."""
    points = Counter()

    def wrap(inverse):
        def counted(self, w, x, carry=False):
            n = np.broadcast(w, x).size
            points.update(hinv=n, carried=n if carry else 0)
            return inverse(self, w, x, carry)
        return counted

    patch_own(monkeypatch, "inverse", wrap)
    return points


def counted_step_points(monkeypatch):
    """A Counter of `step` points by slot: one per broadcast (x, y) point and
    slot asked for."""
    points = Counter()

    def record(copula, x, y, slots):
        for slot in slots:
            points[slot] += np.broadcast(x, y).size

    count_steps(monkeypatch, record)
    return points


# ----------------------------------------------------------------------
# the Burr oracle's reference layout: a new table per coalition, the
# sampler's out-of-place form and the (n, 10) zero-padded response

def reference_burr_sample(params, n, rng):
    g = rng.gamma(params.p, 1.0, size=(n, 1))
    e = rng.exponential(1.0, size=(n, params.M))
    b = np.asarray(params.b)
    r = np.asarray(params.r)
    return (e / (g * r)) ** (1.0 / b)


def reference_burr_cdf(marginal, x):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    u = -np.expm1(-marginal.p * np.log1p(marginal.r * x ** marginal.b))
    return np.asarray(np.clip(u, 1e-12, 1 - 1e-12))


def reference_response_mean(U):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    u = np.zeros((U.shape[0], 10))
    u[:, :U.shape[1]] = U[:, :10]
    return (u[:, 0] * u[:, 1] * np.exp(1.8 * u[:, 2] * u[:, 3])
            + u[:, 4] * u[:, 5] * np.exp(1.8 * u[:, 6] * u[:, 7])
            + u[:, 8] * np.exp(1.8 * u[:, 9]))


def reference_analytic_mean_predictor(params):
    marginals = [BurrMarginal(params.p, b, r) for b, r in zip(params.b, params.r)]

    def g(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return reference_response_mean(np.column_stack(
            [reference_burr_cdf(marginals[j], x[:, j]) for j in range(x.shape[1])]))
    return g


def reference_true_shapley(params, predictor, x_star, K_oracle, rng):
    """(v table, phi) of the oracle with one new (K_oracle, M) table per
    coalition, v(empty set) from `reference_burr_sample` of the joint."""
    x_star = np.asarray(x_star, dtype=float)
    m = params.M
    full = (1 << m) - 1
    values = {0: float(np.mean(predictor(reference_burr_sample(params, K_oracle, rng)))),
              full: float(np.asarray(predictor(x_star[None, :])).ravel()[0])}
    for mask in range(1, full):
        features = [j for j in range(m) if mask & (1 << j)]
        draws, sbar = burr_conditional_params(params, features, x_star)
        x = np.empty((K_oracle, m))
        x[:, features] = x_star[features]
        x[:, sbar] = reference_burr_sample(draws, K_oracle, rng)
        values[mask] = float(np.mean(predictor(x)))
    return values, shapley_from_values(m, values)[1]
