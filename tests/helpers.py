"""Shared test helpers."""

from vineshap import DVineModel, EmpiricalMarginal


def constant_vine(data, order, copula):
    """D-vine with `copula` on every pair and empirical marginals of `data`."""
    m = data.shape[1]
    pairs = [[copula] * (m - 1 - i) for i in range(m - 1)]
    marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    return DVineModel(order, pairs, marginals)


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
