"""Bivariate copula engine.

Families: Independence, Gaussian, Clayton (with 0/90/180/270 degree
rotations) and a nonparametric transformation-kernel grid estimator.
Each exposes a log density, the two h-functions (conditional cdfs) and
their inverses, which is everything the D-vine machinery needs:
    hfunc(u, v, cond_on="second") = dC(u, v)/dv = F(u | v)
    hfunc(u, v, cond_on="first")  = dC(u, v)/du = F(v | u)
    hinv(w, v, cond_on) solves for the non-conditioning argument: v is the
    conditioning value, in the copula slot that cond_on names.
These clip their inputs to [EPS, 1 - EPS], and h and h-inverse their
outputs too; each returns an ndarray of its inputs' broadcast shape (0-d
for scalars).  The vine walks call `step` (forward, once per pair) and
`inverse(w, x, carry)` = the y with F(y | x) = w and, if asked, the F(x | y)
the chain carries on, on arguments already in range (u is clipped where it
enters a vine, and every h-value it carries is a clipped output); these
clip only their outputs.  hfunc and log_density are step behind the input
clip, hinv is inverse's first output behind it.

Only Clayton has a rotation, by the reflection identities of Joe (2014)
and Czado (2019): 90 or 180 degrees reflect u -> 1 - u, 180 or 270 degrees
v -> 1 - v, and an h-value F(u | v), or an h-inverse's target and output,
is reflected when u's slot is.  Its step and inverse take a reflected
argument's log as log1p(-u) and a reflected h as -expm1(log h), so small
values keep their digits.  Independence and the grid give _logpdf(u, v),
_h(u, v) = F(u | v) and _hinv(w, v), the inverse of _h in u, which the base
step and inverse evaluate as given.  Gaussian and Clayton have their own: a
step whose slots share normal scores or logs (their log density kernels
serve the stacked fit too, one parameter per row), and an inverse whose
carry is the closed form at the exact y, not h at the clipped one.
F(v | u) is the h of the transpose at (v, u); each copula builds its
transpose once, on first use, and keeps it.  The grid's h and h-inverse
read one cumulative table, four cells at a time.

One formula per kernel at every parameter: Clayton's start from log u and
log v (log w) and never form u ** -theta, so they stay finite and keep
their digits on the clipped square up to the fit cap.  hinv(w, v, cond_on)
is non-decreasing in w and gives back u from w = hfunc(u, v, cond_on)
(within 1e-11 for the parametric families) wherever w lies in
[1e-6, 1 - 1e-6].  Where h saturates at the clip, u is lost: at theta = 5,
Clayton's hinv(hfunc(0.3, 1e-4), 1e-4) is 0.0104.  `scipy.special` loads
on first use, through `special()`: a vine without a Gaussian pair never
imports scipy.
"""
import numpy as np

from .errors import InvalidInputError

EPS = 1e-10

#: below this |tau| the pair is treated as independent
TAU_INDEPENDENCE_THRESHOLD = 0.02


def special():
    """`scipy.special`, imported on the first call."""
    import scipy.special
    return scipy.special


def _clip(a):
    """a as floats clipped to [EPS, 1 - EPS]: an ndarray, 0-d for a scalar."""
    return np.asarray(np.clip(np.asarray(a, dtype=float), EPS, 1.0 - EPS))


def _on_first(cond_on):
    """Whether the conditioning value occupies the first slot."""
    if cond_on not in ("first", "second"):
        raise InvalidInputError(f"cond_on must be 'first' or 'second', got {cond_on!r}")
    return cond_on == "first"


class PairCopula:
    """Base class: clipping, cond_on checks, and step/inverse from _logpdf, _h and _hinv."""

    family = "base"
    degenerate = False  # set by the parametric fit on a constant column
    _transposed = None  # see _swapped

    def step(self, x, y, second=False, first=False, log_density=False):
        """(F(x | y), F(y | x), log c(x, y)) at (x, y) in range; None for a slot not asked."""
        return (_clip(self._h(x, y)) if second else None,
                _clip(self._swapped()._h(y, x)) if first else None,
                np.asarray(self._logpdf(x, y)) if log_density else None)

    def log_density(self, u, v):
        return self.step(_clip(u), _clip(v), log_density=True)[2]

    def hfunc(self, u, v, cond_on="second"):
        on_first = _on_first(cond_on)
        return self.step(_clip(u), _clip(v), not on_first, on_first)[on_first]

    def inverse(self, w, x, carry=False):
        """(y, F(x | y) or None) with F(y | x) = w, at (w, x) in range; clips only its outputs."""
        y = _clip(self._swapped()._hinv(w, x))
        return y, self.step(x, y, second=True)[0] if carry else None

    def hinv(self, w, v, cond_on="second"):
        cop = self if _on_first(cond_on) else self._swapped()
        return cop.inverse(_clip(w), _clip(v))[0]

    def transpose(self):
        """Copula of the argument-swapped pair (u, v) -> (v, u)."""
        return self

    def _swapped(self):
        """transpose(), built on first use and kept; its own is this copula."""
        if self._transposed is None:
            self._transposed = self.transpose()
            self._transposed._transposed = self
        return self._transposed

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


def _gaussian_log_c(r, zx, zy):
    """Gaussian log density at normal scores (zx, zy); r a scalar or a (P, 1) column."""
    s2 = 1.0 - r * r
    return -0.5 * np.log(s2) - (r * r * (zx * zx + zy * zy) - 2.0 * r * zx * zy) / (2.0 * s2)


def _clayton_log_c(theta, log_a, log_b, t_a, t_b):
    """Unrotated Clayton log density from log a, log b and theta times each;
    theta a scalar or a (P, 1) column.  With hi, lo = -min(t_a, t_b),
    -max(t_a, t_b), log(a^-theta + b^-theta - 1) is
    hi + log1p(e^(lo - hi) (1 - e^-lo)), where e^(lo - hi) <= 1: no overflow."""
    small, large = np.minimum(t_a, t_b), np.maximum(t_a, t_b)
    log_t = np.log1p(np.exp(small - large) * -np.expm1(large)) - small
    return np.log1p(theta) - (theta + 1.0) * (log_a + log_b) - (2.0 + 1.0 / theta) * log_t


class GaussianCopula(PairCopula):
    family = "gaussian"

    def __init__(self, rho):
        rho = float(rho)
        if not -1.0 < rho < 1.0:
            raise InvalidInputError(f"gaussian copula needs -1 < rho < 1, got {rho}")
        self.rho = rho

    def step(self, x, y, second=False, first=False, log_density=False):
        sp, r = special(), self.rho
        zx, zy = sp.ndtri(x), sp.ndtri(y)  # unrotated and exchangeable: shared by the slots
        s = np.sqrt(1.0 - r ** 2)
        return (_clip(sp.ndtr((zx - r * zy) / s)) if second else None,
                _clip(sp.ndtr((zy - r * zx) / s)) if first else None,
                np.asarray(_gaussian_log_c(r, zx, zy)) if log_density else None)

    def inverse(self, w, x, carry=False):
        # y's normal score is s z_w + r z_x, so the carry's, (z_x - r z_y) / s, is s z_x - r z_w
        sp, r, s = special(), self.rho, np.sqrt(1.0 - self.rho ** 2)
        zw, zx = sp.ndtri(w), sp.ndtri(x)
        return _clip(sp.ndtr(zw * s + r * zx)), _clip(sp.ndtr(s * zx - r * zw)) if carry else None

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

    def __init__(self, theta, rotation=0):
        theta = float(theta)
        if not 0.0 < theta < np.inf:
            raise InvalidInputError(f"clayton copula needs a finite theta > 0, got {theta}")
        if rotation not in (0, 90, 180, 270):
            raise InvalidInputError(f"rotation must be 0/90/180/270, got {rotation}")
        self.theta = theta
        self.rotation = int(rotation)

    def step(self, x, y, second=False, first=False, log_density=False):
        # The slots share log a, log b and theta times each, a reflected one from log1p.
        # h = (1 + b^theta (a^-theta - 1))^-(1 + 1/theta) is formed from log_x, the
        # log of b^theta (a^-theta - 1): no overflow, no cancellation near h = 1; past
        # log_x = 700, h < 1e-300 is clipped all the same.  A reflected h is -expm1(log h).
        theta, flip_x, flip_y = self.theta, self.rotation in (90, 180), self.rotation in (180, 270)
        log_a = np.log1p(-x) if flip_x else np.log(x)
        log_b = np.log1p(-y) if flip_y else np.log(y)
        t_a, t_b = theta * log_a, theta * log_b
        d = theta * (log_b - log_a) if second or first else None  # -d is theta (log a - log b)

        def h(log_x, flip):
            log_h = -(1.0 + 1.0 / theta) * np.log1p(np.exp(np.minimum(log_x, 700.0)))
            return _clip(-np.expm1(log_h) if flip else np.exp(log_h))
        return (h(d + np.log(-np.expm1(t_a)), flip_x) if second else None,
                h(np.log(-np.expm1(t_b)) - d, flip_y) if first else None,
                np.asarray(_clayton_log_c(theta, log_a, log_b, t_a, t_b)) if log_density else None)

    def inverse(self, w, x, carry=False):
        # Unrotated at the conditioning value a, e = -theta/(1+theta) log w, s = e^e - 1 + a^theta:
        # y = a s^(-1/theta), F(a | y) = (s e^-e)^k, k = 1 + 1/theta.  As in step, reflected w
        # and a enter via log1p; a reflected carry 1 - F is -expm1(k log1p((a^theta - 1) e^-e)).
        theta, flip, flip_w = self.theta, self.rotation in (90, 180), self.rotation in (180, 270)
        e = -theta / (1.0 + theta) * (np.log1p(-w) if flip_w else np.log(w))
        t_a = theta * (np.log1p(-x) if flip else np.log(x))
        c = np.expm1(e)
        s, k = c + np.exp(t_a), 1.0 + 1.0 / theta
        y = (1.0 - x if flip else x) * s ** (-1.0 / theta)
        y = _clip(1.0 - y if flip_w else y)
        if not carry:
            return y, None
        h = (-np.expm1(k * np.log1p(np.expm1(t_a) / (1.0 + c))) if flip
             else np.exp(k * (np.log(s) - e)))
        return y, _clip(h)

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

    Grid nodes sit at cell centers (i + 0.5)/G.  One cumulative table, over
    u for each v node, is precomputed; F(v | u) reads the transpose's.  h
    reads four cells of it, bilinearly, as the density reads four grid
    cells.  hinv reads rows the same way, binary-searching for the two
    breaks whose rows bracket its target, and inverts h linearly between
    them: hinv(hfunc(u)) is exact up to float precision.  NaN gives NaN.
    """

    family = "grid"

    def __init__(self, grid):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or len(grid) < 2:
            raise InvalidInputError("grid must be a square matrix, at least 2 x 2")
        if np.any(grid < 0) or not np.all(np.isfinite(grid)):
            raise InvalidInputError("grid density values must be finite and >= 0")
        self.grid = grid
        g = grid.shape[0]
        self.grid_size = g
        self.nodes = (np.arange(g) + 0.5) / g
        self.breaks = np.concatenate(([0.0], self.nodes, [1.0]))
        # cumulative over u for each v column, extended to the breaks with
        # edge values and normalized to end at 1: (G+2) x G
        ext = np.vstack([grid[:1], grid, grid[-1:]])
        seg = 0.5 * (ext[:-1] + ext[1:]) * np.diff(self.breaks)[:, None]
        cum = np.concatenate([np.zeros((1, g)), np.cumsum(seg, axis=0)])
        self._cum_u = cum / np.where(cum[-1] <= 0, 1.0, cum[-1])

    def integral(self):
        """Trapezoid integral of the density over the unit square."""
        return _grid_integral(self.grid, self.breaks)

    def _logpdf(self, u, v):
        return np.log(np.maximum(self._bilinear(u, v), 1e-300))

    def _cell(self, x):
        """(j, t): the mesh node at or below x, clamped so that node j + 1
        exists, and node j + 1's interpolation weight.  A NaN x gets some
        node j and t = NaN, so every read at it is NaN."""
        g = self.grid_size
        f = np.clip(x * g - 0.5, 0.0, g - 1.0)
        with np.errstate(invalid="ignore"):  # the cast of a NaN
            j = np.clip(np.floor(f).astype(int), 0, g - 2)
        return j, f - j

    def _bilinear(self, u, v):
        i0, du = self._cell(u)
        j0, dv = self._cell(v)
        return (self.grid[i0, j0] * (1 - du) * (1 - dv)
                + self.grid[i0 + 1, j0] * du * (1 - dv)
                + self.grid[i0, j0 + 1] * (1 - du) * dv
                + self.grid[i0 + 1, j0 + 1] * du * dv)

    def _read(self, k, j, t):
        """Table row k read between conditioning nodes j and j + 1, weight t."""
        return self._cum_u[k, j] * (1 - t) + self._cum_u[k, j + 1] * t

    def _h(self, u, v):
        """F(u | v).  Table rows k - 1 and k bracket u on `breaks`; each is
        read at v between two nodes."""
        k = np.clip(np.searchsorted(self.breaks, u, side="right"), 1, self.grid_size + 1)
        j, t = self._cell(v)
        y0, y1 = self._read(k - 1, j, t), self._read(k, j, t)
        x0, x1 = self.breaks[k - 1], self.breaks[k]
        return y0 + (u - x0) / (x1 - x0) * (y1 - y0)

    def _hinv(self, w, v):
        """Inverse of _h in its first argument.  Read at v, the table rows are
        non-decreasing in k, so a binary search finds the first row k >= 1
        that reaches w (or k = G + 1), and h is inverted between breaks k - 1
        and k."""
        j, t = self._cell(v)
        lo, hi = 0, self.grid_size + 1  # rows 1..lo lie below w; row hi reaches it or is last
        for _ in range((self.grid_size + 2).bit_length()):
            mid = (lo + hi + 1) // 2
            below = self._read(mid, j, t) < w
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        y0, y1 = self._read(hi - 1, j, t), self._read(hi, j, t)
        x0, x1 = self.breaks[hi - 1], self.breaks[hi]
        s = (w - y0) / np.where(y1 > y0, y1 - y0, np.inf)  # 0 on a flat stretch, NaN at NaN
        return x0 + np.clip(s, 0.0, 1.0) * (x1 - x0)

    def transpose(self):
        return GridCopula(self.grid.T)

    def to_dict(self):
        return {"family": "grid", "grid": self.grid.tolist()}

    def __repr__(self):
        return f"GridCopula(grid_size={self.grid_size})"


def _grid_integral(grid, breaks):
    """Trapezoid integral over the unit square of a density on the grid
    nodes, extended to the breaks with its edge values."""
    ext = np.pad(grid, 1, mode="edge")
    return float(np.trapezoid(np.trapezoid(ext, breaks, axis=0), breaks))


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


_BLOCK = 8      # entries per block whose inversions `_inversions` counts pair by pair
_PAIRS = np.triu_indices(_BLOCK, 1)
_FIT_CELLS = 1 << 18  # entries per chunk of a stacked fit, which bounds its scratch memory


def _inversions(r):
    """Per row of r, (P, n) integer ranks 1 <= r <= n, the number of pairs
    i < j with r[i] > r[j]: a (P,) array.

    Blocks of _BLOCK entries are counted pair by pair and sorted; then each
    level merges neighbouring sorted blocks with one sort per row.  The
    right block's entries are tagged (2r + 1 against 2r on the left), so on
    a tie a left entry sorts first, and a right entry at merged position s
    that is the t-th of its block has s - t left entries at or below it.
    The padding, n + 1 after the end, adds no pair.
    """
    p, n = r.shape
    blocks = 1 << (-(-n // _BLOCK) - 1).bit_length()  # a power of two
    a = np.pad(r.astype(np.int32 if n < 1 << 29 else np.int64), ((0, 0), (0, blocks * _BLOCK - n)),
               constant_values=n + 1).reshape(p, blocks, _BLOCK)
    count = (a[..., _PAIRS[0]] > a[..., _PAIRS[1]]).reshape(p, -1).sum(axis=1)
    a.sort(axis=2)
    w = _BLOCK
    while a.shape[1] > 1:
        a = a.reshape(p, -1, 2 * w) << 1
        a[..., w:] |= 1
        a.sort(axis=2)
        s = (a & 1).sum(axis=1) @ np.arange(2 * w)
        count += a.shape[1] * (w * w + w * (w - 1) // 2) - s
        a >>= 1
        w *= 2
    return count


def _runs(s):
    """Dense ranks of the sorted rows of s, and each row's number of tied pairs."""
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    starts = np.flatnonzero(new)  # of runs, which never span two rows
    length = np.append(starts[1:], new.size) - starts
    first = np.searchsorted(starts, np.arange(len(s)) * s.shape[1])  # each row's first run
    return new.cumsum(axis=1), np.add.reduceat(length * (length - 1) // 2, first)


def _kendall_tau(x, y):
    """Kendall's tau-b of each row pair of x and y, (P, n) each: a (P,) array,
    each entry equal bit for bit to `scipy.stats.kendalltau(x[p], y[p]).statistic`.

    scipy's steps, row by row: dense ranks and ties of y, then of x; the
    discordant pairs as the inversions of y's ranks in x's order, y
    ascending within tied x (one sort of x's rank times n + 1 plus y's),
    whose runs are the joint ties; its final expression in the same float
    order.  NaN where either row is constant.  Scratch memory is O(P * n).
    """
    n = x.shape[1]
    perm = np.argsort(y, axis=1)
    x, (ry, ytie) = np.take_along_axis(x, perm, 1), _runs(np.take_along_axis(y, perm, 1))
    perm = np.argsort(x, axis=1)
    rx, xtie = _runs(np.take_along_axis(x, perm, 1))
    key = np.sort(rx * (n + 1) + np.take_along_axis(ry, perm, 1), axis=1)
    tot = n * (n - 1) // 2
    con_minus_dis = tot - xtie - ytie + _runs(key)[1] - 2 * _inversions(key % (n + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # the constant rows, NaN below
        tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return np.where((xtie == tot) | (ytie == tot), np.nan, np.minimum(1.0, np.maximum(-1.0, tau)))


def fit_parametric(data):
    """Fit a parametric pair copula by Kendall's-tau inversion + AIC
    selection: the one-pair case of `fit_parametric_stack`."""
    return fit_parametric_stack(*_validate_pseudo_obs(data, 10).T[:, None])[0]


def fit_parametric_stack(X, Y):
    """One parametric pair copula per row pair of two P x n stacks of
    pseudo-observations.  Gaussian: rho = sin(pi * tau / 2).  Clayton:
    theta = 2|tau|/(1 - |tau|), capped at 50 (where |tau| = 1 lands), at
    rotations 0/180 for positive tau and 90/270 for negative.  A row with
    |tau| below the independence threshold, or a degenerate one, is
    independent; the others are scored together, one candidate at a time,
    and take the first least AIC (a NaN AIC never wins).  Tau is computed in
    NumPy: no vineshap command imports `scipy.stats`.  Chunks of at most
    _FIT_CELLS entries bound the scratch memory at any P."""
    rows = max(1, _FIT_CELLS // X.shape[1])
    return [c for s in range(0, len(X), rows) for c in _fit_chunk(X[s:s + rows], Y[s:s + rows])]


def _fit_chunk(X, Y):
    degenerate = (np.std(X, axis=1) < 1e-12) | (np.std(Y, axis=1) < 1e-12)
    tau = _kendall_tau(X, Y)
    active = np.flatnonzero(~degenerate & (np.abs(tau) >= TAU_INDEPENDENCE_THRESHOLD))  # not NaN
    t = tau[active]
    rho = np.clip(np.sin(np.pi * t / 2.0), -0.999, 0.999)
    with np.errstate(divide="ignore"):  # |tau| = 1: theta is the cap
        theta = np.clip(2.0 * np.abs(t) / (1.0 - np.abs(t)), 1e-4, 50.0)
    best = _least_aic(_clip(X[active]), _clip(Y[active]), rho, theta, t > 0) if len(t) else []
    out = [IndependenceCopula() for _ in X]
    for p in np.flatnonzero(degenerate):
        out[p].degenerate = True
    for r, k in enumerate(best):
        if k == 1:
            out[active[r]] = GaussianCopula(rho[r])
        elif k:
            out[active[r]] = ClaytonCopula(theta[r], (k - 2) * 180 + (0 if t[r] > 0 else 90))
    return out


def _least_aic(u, v, rho, theta, positive):
    """Per row, the first candidate of least AIC: 0 independence, 1 Gaussian,
    2 and 3 Clayton at the sign's two rotations."""
    theta, positive = theta[:, None], positive[:, None]
    logl = [np.zeros(len(u)), _gaussian_log_c(rho[:, None], special().ndtri(u),
                                              special().ndtri(v)).sum(axis=1)]
    for a, b in ((np.where(positive, u, 1.0 - u), v), (np.where(positive, 1.0 - u, u), 1.0 - v)):
        log_a, log_b = np.log(a), np.log(b)
        logl.append(_clayton_log_c(theta, log_a, log_b, theta * log_a, theta * log_b).sum(axis=1))
    aic = -2.0 * np.array(logl) + np.array([[0.0], [2.0], [2.0], [2.0]])  # 2 per parameter
    return np.argmin(np.where(np.isnan(aic), np.inf, aic), axis=0)


def valid_grid_size(grid_size):
    """grid_size as an int, if it is an integer of at least 2."""
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
        raise InvalidInputError(f"grid_size must be an integer of at least 2, got {grid_size!r}")
    return int(grid_size)


def fit_nonparametric(data, grid_size=64):
    """Transformation-kernel copula density estimate on a grid.

    Pseudo-observations are mapped to normal scores, a Gaussian product
    kernel with normal-reference bandwidths sigma_k * N^(-1/6) is fitted,
    and the implied copula density is evaluated on the mesh and
    renormalized to integrate to one.
    """
    g = valid_grid_size(grid_size)
    data = _validate_pseudo_obs(data, 30)
    n = data.shape[0]
    z = special().ndtri(data)
    h = np.std(z, axis=0, ddof=1) * n ** (-1.0 / 6.0)
    h = np.maximum(h, 1e-3)

    nodes = (np.arange(g) + 0.5) / g
    zg = special().ndtri(nodes)
    # product-kernel density on the normal-score scale, via two G x N factors
    k1 = _normal_pdf((zg[:, None] - z[None, :, 0]) / h[0]) / h[0]
    k2 = _normal_pdf((zg[:, None] - z[None, :, 1]) / h[1]) / h[1]
    f = k1 @ k2.T / n
    phi = _normal_pdf(zg)
    c = f / (phi[:, None] * phi[None, :])
    c = np.maximum(c, 1e-4)

    return GridCopula(c / _grid_integral(c, np.concatenate(([0.0], nodes, [1.0]))))
