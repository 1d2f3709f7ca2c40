"""Univariate empirical marginal models.

Maps between data scale and copula (uniform) scale using rank-based
plotting positions k/(n+1), which keep pseudo-observations strictly
inside (0, 1).
"""

import numpy as np

from .errors import InvalidInputError


class EmpiricalMarginal:
    """Empirical cdf / quantile pair built from a univariate sample.

    The cdf maps x to rank(x)/(n+1) where rank counts sample values <= x,
    clamped to [1/(n+1), n/(n+1)].  The quantile function interpolates
    linearly between order statistics placed at positions k/(n+1) and is
    constant beyond the extreme positions, so quantile(cdf(x_i)) == x_i
    for every training point (ties map to the largest tied value).
    """

    def __init__(self, sample):
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.size < 2:
            raise InvalidInputError(
                f"marginal fit needs at least 2 values, got {sample.size}")
        if not np.all(np.isfinite(sample)):
            raise InvalidInputError("marginal fit requires finite values")
        self.sorted_sample = np.sort(sample)
        self.n = sample.size
        self._positions = np.arange(1, self.n + 1) / (self.n + 1)

    def cdf(self, x):
        """Empirical cdf on the k/(n+1) scale, strictly inside (0, 1)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("cdf input must be finite")
        rank = np.searchsorted(self.sorted_sample, x, side="right")
        u = rank / (self.n + 1)
        lo = 1.0 / (self.n + 1)
        hi = self.n / (self.n + 1)
        return np.asarray(np.clip(u, lo, hi))

    def quantile(self, u):
        """Linear interpolation between order statistics; inverse of cdf."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0) or not np.all(np.isfinite(u)):
            raise InvalidInputError("quantile input must lie in (0, 1)")
        return np.asarray(np.interp(u, self._positions, self.sorted_sample))

    def to_dict(self):
        return {"sorted_sample": self.sorted_sample.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["sorted_sample"], dtype=float))
