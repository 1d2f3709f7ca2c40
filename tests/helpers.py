"""Shared test helpers."""

from collections import Counter

import numpy as np

from vineshap import DVineModel, EmpiricalMarginal, GridCopula, PairCopula

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
