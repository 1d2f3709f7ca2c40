"""D-vine copula model.

A model is an order permutation, a triangular table of pair copulas
(pairs[i][j] links order positions j and j+i+1 given the positions in
between, 0-based) and one marginal model per original feature.  All
evaluations run on copula scale; marginals only enter at the data-scale
boundary (conditional sampling).  Every method takes an N x M table (a
single M-vector counts as one row) and returns one entry or row per
input row.

Serialization covers the order and the pair copulas only.  The
marginals are rebuilt by the caller, so that the several vines of one
cover plan share a single copy of them: `from_dict(d, marginals)`.

The simplified-vine assumption makes every contiguous sub-block of the
order itself a D-vine, so the ratio of the joint density to a block's
own density reduces to the pairs that straddle the block's ends
(`log_density_ratios`).

Fitting, both densities, the Rosenblatt transform and its inverse all
walk one h-function recursion, `_h_pass`, left to right over the order
positions.  Conditional sampling is that inverse pass with x*_S given:
its marginal u-values fill the coalition's positions as they are, and
only the other positions are solved.
"""

import numpy as np

from .bicop import EPS, PairCopula, fit_nonparametric, fit_parametric
from .errors import CoverageError, InvalidInputError
from .marginals import EmpiricalMarginal

FORMAT_VERSION = 2
MIN_FIT_ROWS = 30           # the fewest training rows `fit_dvine` and `vineshap fit` take


class ParametricMode:
    def fit_edge(self, u):
        return fit_parametric(u)


class NonparametricMode:
    def __init__(self, grid_size=64):
        self.grid_size = int(grid_size)

    def fit_edge(self, u):
        return fit_nonparametric(u, grid_size=self.grid_size)


def _h_pass(V, pairs, solve=None):
    """Walk the h-function recursion over V's columns (one per order position).

    Position k closes the pairs (i, k-1-i), i = 0..k-1: pair i links
    x_i = F(v_{k-1-i} | v_{k-i..k-1}), carried over from position k-1, with
    y_i = F(v_k | v_{k-i..k-1}) = h(y_{i-1} | x_{i-1}), y_0 = v_k.  Yields
    (i, j, x_i, y_i) before reading pairs[i][j], so a caller may fit that
    pair in its loop body.  `solve(k, x)`, if given, first sets column k
    (the inverse Rosenblatt step).  Only h-values a later step reads are
    computed.
    """
    m = V.shape[1]
    x = [V[:, 0]]
    for k in range(1, m):
        if solve is not None:
            V[:, k] = solve(k, x)
        y = V[:, k]
        carry = [y]
        for i in range(k):
            yield i, k - 1 - i, x[i], y
            pc = pairs[i][k - 1 - i]
            if k < m - 1:
                carry.append(pc.hfunc(x[i], y, "second"))
            if i < k - 1:
                y = pc.hfunc(x[i], y, "first")
        x = carry


class DVineModel:

    def __init__(self, order, pairs, marginals):
        order = tuple(int(o) for o in order)
        m = len(order)
        if sorted(order) != list(range(m)):
            raise InvalidInputError(f"order must be a permutation of 0..{m - 1}")
        if len(pairs) != m - 1 or any(len(pairs[i]) != m - 1 - i for i in range(m - 1)):
            raise InvalidInputError("pair table must be triangular with M(M-1)/2 entries")
        if len(marginals) != m:
            raise InvalidInputError("need one marginal per feature")
        self.order = order
        self.pairs = [list(row) for row in pairs]
        self.marginals = list(marginals)

    @property
    def M(self):
        return len(self.order)

    # ------------------------------------------------------------------
    # densities

    def _columns(self, a):
        """a as an (n, M) float array; InvalidInputError for another width."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[1] != self.M:
            raise InvalidInputError(f"expected {self.M} columns, got {a.shape[1]}")
        return a

    def _log_density(self, V, start=0):
        """Log density of the sub-vine on positions start.., added tree by tree."""
        pairs = [row[start:] for row in self.pairs]
        logs = {(i, j): pairs[i][j].log_density(x, y) for i, j, x, y in _h_pass(V, pairs)}
        return sum((logs[key] for key in sorted(logs)), np.zeros(V.shape[0]))

    def copula_log_density(self, u):
        """Log D-vine copula density at u (original feature indexing)."""
        return self._log_density(self._columns(u)[:, self.order])

    def marginal_copula_log_density(self, block, u_block):
        """Log density of the sub-D-vine on the block (s, e) of order
        positions, both ends included.

        u_block holds values for order positions s..e, in order sequence.
        """
        s, e = block
        if not (0 <= s <= e < self.M):
            raise InvalidInputError(f"invalid block [{s}, {e}] for M={self.M}")
        u_block = np.atleast_2d(np.asarray(u_block, dtype=float))
        if u_block.shape[1] != e - s + 1:
            raise InvalidInputError("u_block width must match the block length")
        return self._log_density(u_block, s)

    def log_density_ratios(self, u, u_star, blocks):
        """log c(u_b, u*_S) - log c(u_b) per block b = (a, e) of order positions
        and row of u, up to a constant per block: shape (len(blocks), n).

        S, the positions outside b, is pinned at u_star.  Only the pairs whose
        span straddles b are evaluated (the others cancel or are constant),
        once per tree on the stacked rows of all blocks they straddle.  An
        argument spanning positions inside b comes from the pass over u, one
        outside b from u_star's row of that pass, any other from the last tree.
        """
        V = np.vstack([self._columns(u), self._columns(u_star)])[:, self.order]
        n, m = V.shape[0] - 1, V.shape[1]
        if any(not 0 <= a <= e < m for a, e in blocks):
            raise InvalidInputError(f"invalid block in {blocks} for M={m}")
        args = {(i, j): xy for i, j, *xy in _h_pass(V, self.pairs)}
        out = np.zeros((len(blocks), n))
        carried = ({}, {})  # x, y arguments of the next tree, by (pair j, block)
        for i in range(m - 1):
            prev, carried = carried, ({}, {})
            for j in range(m - 1 - i):

                def arg(side, b):  # x spans positions j..j+i, y spans j+1..j+i+1
                    a, e = blocks[b]
                    if a <= j + side and j + i + side <= e:
                        return args[i, j][side][:n]
                    if j + i + side < a or e < j + side:
                        return np.broadcast_to(args[i, j][side][n], n)
                    return prev[side][j, b]

                bs = [b for b, (a, e) in enumerate(blocks)
                      if a <= j + i + 1 and j <= e and not (a <= j and j + i + 1 <= e)]
                if bs:
                    x, y = (np.concatenate([arg(side, b) for b in bs]) for side in (0, 1))
                    pc = self.pairs[i][j]
                    out[bs] += pc.log_density(x, y).reshape(len(bs), n)
                    for side, k in ((0, j), (1, j - 1)):  # x of pair (i+1, j), y of (i+1, j-1)
                        if 0 <= k < m - 2 - i:
                            h = pc.hfunc(x, y, ("second", "first")[side]).reshape(-1, n)
                            carried[side].update(((k, b), row) for b, row in zip(bs, h))
        return out

    # ------------------------------------------------------------------
    # Rosenblatt transform and inverse

    def rosenblatt(self, u):
        """w_k = F(u_{pi_k} | u_{pi_1..pi_{k-1}}); output in position indexing."""
        V = np.clip(self._columns(u)[:, self.order], EPS, 1 - EPS)
        W = V.copy()
        for i, j, x, y in _h_pass(V, self.pairs):
            if j == 0:  # the last pair at position i+1 conditions it on 0..i
                W[:, i + 1] = self.pairs[i][0].hfunc(x, y, "first")
        return W

    def inverse_rosenblatt(self, w):
        """Inverse of :meth:`rosenblatt`; returns u in original indexing."""
        V = np.clip(self._columns(w), EPS, 1 - EPS)
        self._solve(V, 1)
        return V[:, np.argsort(self.order)]

    def _solve(self, V, s):
        """Solve order positions s..M-1 of V in place from the w-values they
        hold; the positions before s hold given u-values."""

        def solve(k, x):
            z = V[:, k]
            if k < s:
                return z
            # invert w_k = y_k down the chain y_{i+1} = h(y_i | x_i) to y_0 = v_k
            for i in range(k - 1, -1, -1):
                z = self.pairs[i][k - 1 - i].hinv(z, x[i], "first")
            return z

        for i, j, _, _ in _h_pass(V, self.pairs, solve):
            if i + j == self.M - 2:  # v_{M-1} is solved; no h-value of its pairs is read
                break

    # ------------------------------------------------------------------
    # conditional sampling

    def reversed(self):
        """Same model with the order reversed (pair table mirrored/transposed)."""
        m = self.M
        pairs = [[self.pairs[i][m - 2 - i - j].transpose()
                  for j in range(m - 1 - i)] for i in range(m - 1)]
        return DVineModel(self.order[::-1], pairs, self.marginals)

    def coalition_role(self, features):
        """'prefix' or 'suffix' if the feature set lines up with the order."""
        s = set(features)
        k = len(s)
        if 0 < k < self.M:
            if s == set(self.order[:k]):
                return "prefix"
            if s == set(self.order[-k:]):
                return "suffix"
        return None

    def conditional_sample(self, features, x_star, K, rng):
        """Draw K joint samples conditional on the given features.

        `features` must form a prefix or suffix of the order; `x_star` is
        the full M-vector on data scale (only the conditioning entries are
        read).  The conditioning u-values enter the inverse pass as given
        and only the other positions are solved from uniform draws.
        Returns a K x M data-scale table with the conditioning columns
        pinned at their x_star values.
        """
        role = self.coalition_role(features)
        if role is None:
            raise CoverageError(
                f"coalition {sorted(features)} is not a prefix or suffix "
                f"of order {self.order}")
        model = self if role == "prefix" else self.reversed()
        s = len(set(features))
        x_star = np.asarray(x_star, dtype=float)

        V = np.empty((K, model.M))
        V[:, :s] = [model.marginals[f].cdf(x_star[f]) for f in model.order[:s]]
        V[:, s:] = rng.uniform(size=(K, model.M - s))
        V = np.clip(V, EPS, 1 - EPS)
        model._solve(V, s)

        X = np.tile(x_star, (K, 1))
        for p in range(s, model.M):
            f = model.order[p]
            X[:, f] = model.marginals[f].quantile(V[:, p])
        return X

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self):
        return {
            "format": "dvine",
            "version": FORMAT_VERSION,
            "order": list(self.order),
            "pairs": [[pc.to_dict() for pc in row] for row in self.pairs],
        }

    @classmethod
    def from_dict(cls, d, marginals):
        """Model from `to_dict` output plus one marginal per feature."""
        if d.get("format") != "dvine" or d.get("version") != FORMAT_VERSION:
            raise InvalidInputError("unrecognized dvine serialization format")
        pairs = [[PairCopula.from_dict(pc) for pc in row] for row in d["pairs"]]
        return cls(d["order"], pairs, marginals)


def pseudo_observations(data, marginals):
    """Map a data table to copula scale through the fitted marginals."""
    data = np.asarray(data, dtype=float)
    return np.column_stack([marginals[j].cdf(data[:, j]) for j in range(data.shape[1])])


def fit_dvine(data, order, mode=None, marginals=None):
    """Fit a D-vine, each pair on the h-function transforms the pass carries to it.

    `mode` is ParametricMode (the default) or NonparametricMode.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise InvalidInputError("data must be an N x M table")
    n, m = data.shape
    if not np.all(np.isfinite(data)):
        raise InvalidInputError("data must be finite")
    order = tuple(int(o) for o in order)
    if sorted(order) != list(range(m)):
        raise InvalidInputError(f"order must be a permutation of 0..{m - 1}")
    if mode is None:
        mode = ParametricMode()
    if n < MIN_FIT_ROWS:
        raise InvalidInputError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")

    if marginals is None:
        marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    V = pseudo_observations(data, marginals)[:, order]
    pairs = [[None] * (m - 1 - i) for i in range(m - 1)]
    for i, j, x, y in _h_pass(V, pairs):
        pairs[i][j] = mode.fit_edge(np.column_stack([x, y]))
    return DVineModel(order, pairs, marginals)
