"""Univariate empirical marginal models.

Maps between data scale and copula (uniform) scale using rank-based
plotting positions k/(n+1), which keep pseudo-observations strictly inside
(0, 1) and, being evenly spaced, let the quantile find its interval by index.
"""

import functools

import numpy as np

from .errors import InvalidInputError


@functools.lru_cache(maxsize=16)
def _plotting_positions(n):
    """k/(n+1), k = 1..n: one read-only array shared by every size-n marginal."""
    positions = np.arange(1, n + 1) / (n + 1)
    positions.flags.writeable = False
    return positions


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
        self._positions = _plotting_positions(self.n)

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
        """Inverse of cdf: np.interp(u, positions, sorted_sample) bit for bit, its
        interval found without search as floor(u(n+1)) - 1, up to one rounding step."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0) or not np.all(np.isfinite(u)):
            raise InvalidInputError("quantile input must lie in (0, 1)")
        xp, fp, last = self._positions, self.sorted_sample, self.n - 2
        j = np.clip((u * (self.n + 1)).astype(np.intp) - 1, 0, last)
        j = np.clip(j - (u < xp[j]) + (u >= xp[j + 1]), 0, last)
        lo, y = xp[j], fp[j]
        with np.errstate(over="ignore", invalid="ignore"):  # np.interp's inf, unflagged
            out = (fp[j + 1] - y) / (xp[j + 1] - lo) * (u - lo) + y
        return np.where(u >= xp[-1], fp[-1], np.where(u <= lo, y, out))
