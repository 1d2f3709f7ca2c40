"""Shared test helpers."""

from vineshap import DVineModel, EmpiricalMarginal


def constant_vine(data, order, copula):
    """D-vine with `copula` on every pair and empirical marginals of `data`."""
    m = data.shape[1]
    pairs = [[copula] * (m - 1 - i) for i in range(m - 1)]
    marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    return DVineModel(order, pairs, marginals)
