"""Bivariate copula engine.

Families: Independence, Gaussian, Clayton (with 0/90/180/270 degree
rotations) and a nonparametric transformation-kernel grid estimator.
Each copula exposes a density, the two h-functions (conditional cdfs)
and their inverses, which is everything the D-vine machinery needs.

Conventions:
    hfunc(u, v, cond_on="second") = dC(u, v)/dv = F(u | v)
    hfunc(u, v, cond_on="first")  = dC(u, v)/du = F(v | u)
    hinv(w, v, cond_on) solves for the non-conditioning argument: v is
    always the conditioning value, cond_on says which copula slot it
    occupies.
Inputs are clipped to [EPS, 1 - EPS]; every method returns an ndarray
with the broadcast shape of its inputs (0-d for scalar inputs).

Rotation lives in PairCopula alone and follows the reflection
identities of Joe (2014) and Czado (2019).  A family supplies only its
unrotated formulas: _logpdf(u, v), _h(u, v) = F(u | v) and _hinv(w, v),
the inverse of _h in u.  Rotation by 90 or 180 degrees reflects
u -> 1 - u, by 180 or 270 degrees reflects v -> 1 - v; the h output, or
the h-inverse target, is reflected when the argument that is not
conditioned on was.  Exchangeable families get F(v | u) = _h(v, u); the
grid family is not exchangeable and adds its own cond_on="first" forms.
Its h and h-inverse read a cumulative table through one four-cell read.
"""

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError

EPS = 1e-10

#: below this |tau| the pair is treated as independent
TAU_INDEPENDENCE_THRESHOLD = 0.02


def _clip(a):
    return np.clip(np.asarray(a, dtype=float), EPS, 1.0 - EPS)


def _free_slot(cond_on):
    """Slot (0 = u, 1 = v) of the argument that is not conditioned on."""
    if cond_on not in ("first", "second"):
        raise InvalidInputError(f"cond_on must be 'first' or 'second', got {cond_on!r}")
    return 1 if cond_on == "first" else 0


class PairCopula:
    """Base class: clipping, cond_on checks and rotation for every family."""

    family = "base"
    n_params = 0
    rotation = 0
    degenerate = False  # set by fit_parametric on constant-column data

    def _flips(self):
        """Whether the u slot and whether the v slot are reflected."""
        return self.rotation in (90, 180), self.rotation in (180, 270)

    def _args(self, u, v):
        """Clipped (u, v) mapped into the unrotated copula's slots."""
        flip_u, flip_v = self._flips()
        u, v = _clip(u), _clip(v)  # then 1 - u and 1 - v lie in [EPS, 1 - EPS] too
        return (1.0 - u if flip_u else u), (1.0 - v if flip_v else v)

    def _unflip(self, out, free):
        if self._flips()[free]:
            out = 1.0 - out
        return np.asarray(np.clip(out, EPS, 1.0 - EPS))

    def log_density(self, u, v):
        return np.asarray(self._logpdf(*self._args(u, v)))

    def density(self, u, v):
        return np.exp(self.log_density(u, v))

    def hfunc(self, u, v, cond_on="second"):
        free = _free_slot(cond_on)
        u, v = self._args(u, v)
        return self._unflip(self._h_first(u, v) if free else self._h(u, v), free)

    def hinv(self, w, v, cond_on="second"):
        free = _free_slot(cond_on)
        if free:
            v, w = self._args(v, w)
            return self._unflip(self._hinv_first(w, v), free)
        w, v = self._args(w, v)
        return self._unflip(self._hinv(w, v), free)

    def _h_first(self, u, v):
        """F(v | u) of the unrotated copula; exchangeable by default."""
        return self._h(v, u)

    def _hinv_first(self, w, u):
        """Inverse of _h_first in v."""
        return self._hinv(w, u)

    def transpose(self):
        """Copula of the argument-swapped pair (u, v) -> (v, u)."""
        return self

    def to_dict(self):
        raise NotImplementedError

    @staticmethod
    def from_dict(d):
        fam = d["family"]
        if fam == "independence":
            return IndependenceCopula()
        if fam == "gaussian":
            return GaussianCopula(d["rho"])
        if fam == "clayton":
            return ClaytonCopula(d["theta"], rotation=d.get("rotation", 0))
        if fam == "grid":
            return GridCopula(np.asarray(d["grid"], dtype=float))
        raise InvalidInputError(f"unknown copula family: {fam!r}")


class IndependenceCopula(PairCopula):
    family = "independence"

    def _logpdf(self, u, v):
        return np.zeros(np.broadcast(u, v).shape)

    def _h(self, u, v):
        return np.broadcast_arrays(u, v)[0]

    _hinv = _h

    def to_dict(self):
        return {"family": "independence"}

    def __repr__(self):
        return "IndependenceCopula()"


class GaussianCopula(PairCopula):
    family = "gaussian"
    n_params = 1

    def __init__(self, rho):
        rho = float(rho)
        if not -1.0 < rho < 1.0:
            raise InvalidInputError(f"gaussian copula needs -1 < rho < 1, got {rho}")
        self.rho = rho

    def _logpdf(self, u, v):
        x = ndtri(u)
        y = ndtri(v)
        r = self.rho
        s2 = 1.0 - r * r
        return -0.5 * np.log(s2) - (r * r * (x * x + y * y) - 2.0 * r * x * y) / (2.0 * s2)

    def _h(self, u, v):
        x = ndtri(u)
        y = ndtri(v)
        return ndtr((x - self.rho * y) / np.sqrt(1.0 - self.rho ** 2))

    def _hinv(self, w, v):
        z = ndtri(w)
        y = ndtri(v)
        return ndtr(z * np.sqrt(1.0 - self.rho ** 2) + self.rho * y)

    def to_dict(self):
        return {"family": "gaussian", "rho": self.rho}

    def __repr__(self):
        return f"GaussianCopula(rho={self.rho:.6g})"


class ClaytonCopula(PairCopula):
    """Clayton copula with optional 90/180/270 degree rotation.

    Rotation 180 is the survival Clayton (upper tail dependence);
    90 and 270 model negative dependence.
    """

    family = "clayton"
    n_params = 1

    def __init__(self, theta, rotation=0):
        theta = float(theta)
        if theta <= 0.0:
            raise InvalidInputError(f"clayton copula needs theta > 0, got {theta}")
        if rotation not in (0, 90, 180, 270):
            raise InvalidInputError(f"rotation must be 0/90/180/270, got {rotation}")
        self.theta = theta
        self.rotation = int(rotation)

    def _logpdf(self, u, v):
        theta = self.theta
        t = u ** -theta + v ** -theta - 1.0
        return (np.log1p(theta) - (theta + 1.0) * (np.log(u) + np.log(v))
                - (2.0 + 1.0 / theta) * np.log(t))

    def _h(self, u, v):
        theta = self.theta
        t = u ** -theta + v ** -theta - 1.0
        return np.exp(-(theta + 1.0) * np.log(v) - (1.0 + 1.0 / theta) * np.log(t))

    def _hinv(self, w, v):
        theta = self.theta
        a = (w ** (-theta / (1.0 + theta)) - 1.0) * v ** -theta + 1.0
        return a ** (-1.0 / theta)

    def transpose(self):
        if self.rotation in (0, 180):
            return self
        return ClaytonCopula(self.theta, rotation=360 - self.rotation)

    def to_dict(self):
        return {"family": "clayton", "theta": self.theta, "rotation": self.rotation}

    def __repr__(self):
        return f"ClaytonCopula(theta={self.theta:.6g}, rotation={self.rotation})"


class GridCopula(PairCopula):
    """Nonparametric copula density on a G x G equispaced mesh.

    Grid nodes sit at cell centers (i + 0.5)/G.  Cumulative tables over
    both axes are precomputed.  h reads four cells of a table, bilinearly,
    as the density reads four grid cells.  hinv reads table rows the same
    way, binary-searching for the two breaks whose rows bracket its
    target, and inverts h linearly between them, so hinv(hfunc(u)) is
    exact up to float precision.
    """

    family = "grid"

    def __init__(self, grid):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise InvalidInputError("grid must be a square matrix")
        if np.any(grid < 0) or not np.all(np.isfinite(grid)):
            raise InvalidInputError("grid density values must be finite and >= 0")
        self.grid = grid
        g = grid.shape[0]
        self.grid_size = g
        self.nodes = (np.arange(g) + 0.5) / g
        self.breaks = np.concatenate(([0.0], self.nodes, [1.0]))
        # cumulative over u for each v column, normalized to end at 1
        self._cum_u = self._cumulative(grid)            # (G+2) x G
        self._cum_v = self._cumulative(grid.T)          # (G+2) x G (over v, per u row)

    def _cumulative(self, dens):
        # dens indexed [target, cond]; extend to breakpoints with edge values
        ext = np.vstack([dens[:1], dens, dens[-1:]])    # (G+2) x G
        dt = np.diff(self.breaks)[:, None]
        seg = 0.5 * (ext[:-1] + ext[1:]) * dt
        cum = np.concatenate([np.zeros((1, dens.shape[1])), np.cumsum(seg, axis=0)])
        total = cum[-1]
        total = np.where(total <= 0, 1.0, total)
        return cum / total

    def integral(self):
        """Trapezoid integral of the density over the unit square."""
        ext = np.vstack([self.grid[:1], self.grid, self.grid[-1:]])
        ext = np.hstack([ext[:, :1], ext, ext[:, -1:]])
        return float(np.trapezoid(np.trapezoid(ext, self.breaks, axis=0),
                                  self.breaks))

    def density(self, u, v):
        return np.asarray(self._bilinear(_clip(u), _clip(v)))

    def _logpdf(self, u, v):
        return np.log(np.maximum(self._bilinear(u, v), 1e-300))

    def _cell(self, x):
        """(j, t): the mesh node at or below x, clamped so that node j + 1
        exists, and node j + 1's interpolation weight."""
        g = self.grid_size
        f = np.clip(x * g - 0.5, 0.0, g - 1.0)
        j = np.clip(np.floor(f).astype(int), 0, g - 2)
        return j, f - j

    def _bilinear(self, u, v):
        i0, du = self._cell(u)
        j0, dv = self._cell(v)
        z = (self.grid[i0, j0] * (1 - du) * (1 - dv)
             + self.grid[i0 + 1, j0] * du * (1 - dv)
             + self.grid[i0, j0 + 1] * (1 - du) * dv
             + self.grid[i0 + 1, j0 + 1] * du * dv)
        return z

    @staticmethod
    def _read(cum, k, j, t):
        """Table row k read between conditioning nodes j and j + 1, weight t."""
        return cum[k, j] * (1 - t) + cum[k, j + 1] * t

    def _h(self, u, v, cum=None):
        """F(u | v); _h(v, u, self._cum_v) is F(v | u).  Table rows k - 1 and k
        bracket u on `breaks`; each is read at v between two nodes."""
        cum = self._cum_u if cum is None else cum
        k = np.clip(np.searchsorted(self.breaks, u, side="right"), 1, self.grid_size + 1)
        j, t = self._cell(v)
        y0, y1 = self._read(cum, k - 1, j, t), self._read(cum, k, j, t)
        x0, x1 = self.breaks[k - 1], self.breaks[k]
        return y0 + (u - x0) / (x1 - x0) * (y1 - y0)

    def _hinv(self, w, v, cum=None):
        """Inverse of _h in its first argument.  Read at v, the table rows are
        non-decreasing in k, so a binary search finds the first row k >= 1
        that reaches w (or k = G + 1), and h is inverted between breaks k - 1
        and k."""
        cum = self._cum_u if cum is None else cum
        j, t = self._cell(v)
        lo, hi = 0, self.grid_size + 1  # rows 1..lo lie below w; row hi reaches it or is last
        for _ in range((self.grid_size + 2).bit_length()):
            mid = (lo + hi + 1) // 2
            below = self._read(cum, mid, j, t) < w
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        y0, y1 = self._read(cum, hi - 1, j, t), self._read(cum, hi, j, t)
        x0, x1 = self.breaks[hi - 1], self.breaks[hi]
        s = np.where(y1 > y0, (w - y0) / np.where(y1 > y0, y1 - y0, 1.0), 0.0)
        return x0 + np.clip(s, 0.0, 1.0) * (x1 - x0)

    def _h_first(self, u, v):
        return self._h(v, u, self._cum_v)

    def _hinv_first(self, w, u):
        return self._hinv(w, u, self._cum_v)

    def transpose(self):
        return GridCopula(self.grid.T)

    def to_dict(self):
        return {"family": "grid", "grid": self.grid.tolist()}

    def __repr__(self):
        return f"GridCopula(grid_size={self.grid_size})"


def _normal_pdf(x):
    """Standard normal density: `scipy.stats.norm.pdf`'s expression, without its dispatch."""
    return np.exp(-x ** 2 / 2.0) / np.sqrt(2 * np.pi)


def _validate_pseudo_obs(data, min_n):
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise InvalidInputError("pseudo-observations must be an N x 2 table")
    if data.shape[0] < min_n:
        raise InvalidInputError(
            f"need at least {min_n} pseudo-observations, got {data.shape[0]}")
    if np.any(data <= 0) or np.any(data >= 1) or not np.all(np.isfinite(data)):
        raise InvalidInputError("pseudo-observations must lie strictly in (0, 1)")
    return data


def fit_parametric(data):
    """Fit a parametric pair copula by Kendall's-tau inversion + AIC selection.

    Gaussian: rho = sin(pi * tau / 2).  Clayton: theta = 2|tau|/(1 - |tau|),
    with rotations 0/180 for positive tau and 90/270 for negative tau (the
    better tail is picked by AIC).  |tau| below the independence threshold,
    or a degenerate column, yields the independence copula.
    """
    data = _validate_pseudo_obs(data, 10)
    if np.std(data[:, 0]) < 1e-12 or np.std(data[:, 1]) < 1e-12:
        cop = IndependenceCopula()
        cop.degenerate = True
        return cop
    tau = stats.kendalltau(data[:, 0], data[:, 1]).statistic
    if not np.isfinite(tau) or abs(tau) < TAU_INDEPENDENCE_THRESHOLD:
        return IndependenceCopula()

    rho = np.clip(np.sin(np.pi * tau / 2.0), -0.999, 0.999)
    theta = np.clip(2.0 * abs(tau) / (1.0 - abs(tau)), 1e-4, 50.0)
    rotations = (0, 180) if tau > 0 else (90, 270)
    candidates = [IndependenceCopula(), GaussianCopula(rho)]
    candidates += [ClaytonCopula(theta, rotation=rot) for rot in rotations]

    best, best_aic = None, np.inf
    for cop in candidates:
        loglik = float(np.sum(cop.log_density(data[:, 0], data[:, 1])))
        aic = -2.0 * loglik + 2.0 * cop.n_params
        if aic < best_aic:
            best, best_aic = cop, aic
    return best


def fit_nonparametric(data, grid_size=64):
    """Transformation-kernel copula density estimate on a grid.

    Pseudo-observations are mapped to normal scores, a Gaussian product
    kernel with normal-reference bandwidths sigma_k * N^(-1/6) is fitted,
    and the implied copula density is evaluated on the mesh and
    renormalized to integrate to one.
    """
    data = _validate_pseudo_obs(data, 30)
    n = data.shape[0]
    z = ndtri(data)
    h = np.std(z, axis=0, ddof=1) * n ** (-1.0 / 6.0)
    h = np.maximum(h, 1e-3)

    g = int(grid_size)
    nodes = (np.arange(g) + 0.5) / g
    zg = ndtri(nodes)
    # product-kernel density on the normal-score scale, via two G x N factors
    k1 = _normal_pdf((zg[:, None] - z[None, :, 0]) / h[0]) / h[0]
    k2 = _normal_pdf((zg[:, None] - z[None, :, 1]) / h[1]) / h[1]
    f = k1 @ k2.T / n
    phi = _normal_pdf(zg)
    c = f / (phi[:, None] * phi[None, :])
    c = np.maximum(c, 1e-4)

    cop = GridCopula(c)
    c = c / cop.integral()
    return GridCopula(c)
