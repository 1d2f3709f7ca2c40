"""D-vine copula model.

A model is an order permutation, a triangular table of pair copulas
(pairs[i][j] links order positions j and j+i+1 given the positions in
between, 0-based) and one marginal model per original feature.  All
evaluations run on copula scale; marginals only enter at the data-scale
boundary (conditional sampling).  Every method takes an N x M table (a
single M-vector counts as one row) and returns one entry or row per
input row.  Serialization covers the order and the pair copulas only:
the vines of one cover plan share one copy of the marginals, which
`fit_vines` builds and `from_dict(d, marginals)` takes.

Under the simplified-vine assumption every contiguous block of the order
is itself a D-vine, so the ratio of the joint density to a block's own
density reduces to the pairs that straddle the block's ends
(`log_density_ratios`): one (len(blocks), n) array per order, from one
`step` call per straddling pair over its distinct overlaps with a block.

The h-function recursion has two walks, one per direction.  `_trees`
runs it forward, tree by tree, for the fit (one `mode.fit_level` call
per tree), both densities, the Rosenblatt transform, the straddling
pairs and x*'s pinned prefix.  `DVineModel._solve` inverts it position
by position, and reads each solved position's h-values off the h-inverse
chain that solved it and the carries its calls return: it makes no `step`.
Conditional sampling takes each coalition as the block (first, last) of
order positions the cover plan placed it at, a proper prefix or suffix,
and solves only the positions after it, from the caller's uniform draws.
The prefixes of one order share x*'s u-values, so one inverse pass
samples all of a call's prefixes: x*'s prefix is walked once, on one
row, and each coalition's rows join the inverse at their first free
position.  A suffix is a prefix of the reversed model, built once per
model and not serialised; a call's suffixes take one pass there.
"""
import numpy as np

from .bicop import EPS, PairCopula, fit_nonparametric, fit_parametric_stack, valid_grid_size
from .errors import CoverageError, InvalidInputError
from .marginals import EmpiricalMarginal

FORMAT_VERSION = 2
MIN_FIT_ROWS = 30           # the fewest training rows `fit_dvine` and `vineshap fit` take


class ParametricMode:
    def fit_level(self, X, Y):
        """One pair copula per row pair of X and Y (P x n each)."""
        return fit_parametric_stack(X, Y)


class NonparametricMode:
    def __init__(self, grid_size=64):
        self.grid_size = valid_grid_size(grid_size)

    def fit_level(self, X, Y):
        return [fit_nonparametric(np.column_stack([x, y]), grid_size=self.grid_size)
                for x, y in zip(X, Y)]


def _trees(V, pairs):
    """Yield each tree's (X, Y) over V, an (M, n) stack of order-position rows
    in [EPS, 1 - EPS]: pair j of tree i links X[j] = F(v_j | v_{j+1..j+i}) and
    Y[j] = F(v_{j+i+1} | v_{j+1..j+i}); tree 0's are V[:-1] and V[1:].  The next
    tree's X[j] is pair j's F(x | y), its Y[j] pair j + 1's F(y | x), from one
    `step` call per pair of pairs[i], read after tree i is yielded (the fit
    appends it then).  A row cut short makes only its pairs' calls; no call
    follows the last tree."""
    X, Y = V[:-1], V[1:]  # views: V is held through tree 0 alone
    del V
    for i in range(len(X)):
        if i:
            h = [c.step(x, y, j + 1 < len(X), j > 0)
                 for j, (c, x, y) in enumerate(zip(pairs[i - 1], X, Y))]
            X, Y = np.array([s for s, _, _ in h[:len(X) - 1]]), np.array([f for _, f, _ in h[1:]])
            del h  # copied into X and Y: not held through the caller's use of them
        yield X, Y


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
        self.marginals = marginals  # kept, not copied: the vines of a plan share one list
        self._reversed = None

    @property
    def M(self):
        return len(self.order)

    # ------------------------------------------------------------------
    # densities

    def _columns(self, a, width=None):
        """a as an (n, width) float array (width M by default) clipped to
        [EPS, 1 - EPS], the one clip on its way to the pair copulas;
        InvalidInputError if it is not finite."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        width = self.M if width is None else width
        if a.shape[1] != width:
            raise InvalidInputError(f"expected {width} columns, got {a.shape[1]}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("copula-scale input must be finite")
        return np.clip(a, EPS, 1 - EPS)

    def _log_density(self, V, start=0):
        """Log density of the sub-vine on positions start.. (V's columns), tree by tree."""
        pairs = [row[start:] for row in self.pairs]
        out = np.zeros(len(V))
        for row, (X, Y) in zip(pairs, _trees(V.T, pairs)):
            for c, x, y in zip(row, X, Y):
                out += c.step(x, y, log_density=True)[2]
        return out

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
        return self._log_density(self._columns(u_block, e - s + 1), s)

    def log_density_ratios(self, u, u_star, blocks):
        """log c(u_b, u*_S) - log c(u_b) per block b = (a, e) of order positions
        and row of u, up to a constant per block: one (len(blocks), n) array.

        S, the positions outside b, is pinned at u_star.  The tree walk over
        u, with u_star as one more row, gives each tree's arguments.  Only
        the pairs whose span straddles a block are evaluated (the others
        cancel or are constant).  Their arguments depend only on the block's
        overlap with the span: one `step` call per pair gives its log
        density, and the h-values the next tree reads, at all its distinct
        overlaps; each overlap's row is added to every block with that
        overlap.  An argument inside the block comes from the walk's rows of
        u, one outside it from u_star's row, any other from the h-values the
        last tree carried.
        """
        V = np.vstack([self._columns(u), self._columns(u_star)])[:, self.order]
        n, m = V.shape[0] - 1, V.shape[1]
        if any(not 0 <= a <= e < m for a, e in blocks):
            raise InvalidInputError(f"invalid block in {blocks} for M={m}")
        out = np.zeros((len(blocks), n))
        carried = ({}, {})  # x, y arguments of the next tree, by (pair j, overlap)
        for i, tree in enumerate(_trees(V.T, self.pairs)):
            prev, carried = carried, ({}, {})
            for j in range(m - 1 - i):

                def arg(side, lo, hi):  # x spans positions j..j+i, y spans j+1..j+i+1
                    if lo <= j + side and j + i + side <= hi:
                        return tree[side][j, :n]
                    if j + i + side < lo or hi < j + side:
                        return np.broadcast_to(tree[side][j, n], n)
                    return prev[side][j, max(lo, j + side), min(hi, j + i + side)]

                groups = {}  # overlap of the straddled block with span j..j+i+1 -> blocks
                for b, (a, e) in enumerate(blocks):
                    overlap = max(a, j), min(e, j + i + 1)
                    if overlap[0] <= overlap[1] and overlap != (j, j + i + 1):
                        groups.setdefault(overlap, []).append(b)
                if not groups:
                    continue
                x, y = (np.concatenate([arg(side, *o) for o in groups]) for side in (0, 1))
                wanted = [0 <= j - side < m - 2 - i for side in (0, 1)]  # read by (i+1, j-side)
                *hs, log_c = self.pairs[i][j].step(x, y, *wanted, log_density=True)
                for o, row in zip(groups, log_c.reshape(-1, n)):
                    for b in groups[o]:
                        out[b] += row
                for side, h in enumerate(hs):
                    if h is not None:
                        h = h.reshape(-1, n)
                        carried[side].update(((j - side, *o), row) for o, row in zip(groups, h))
        return out

    # ------------------------------------------------------------------
    # Rosenblatt transform and inverse

    def rosenblatt(self, u):
        """w_k = F(u_{pi_k} | u_{pi_1..pi_{k-1}}); output in position indexing."""
        V = self._columns(u)[:, self.order]
        W = V.copy()
        for i, (X, Y) in enumerate(_trees(V.T, self.pairs)):  # tree i's pair 0 ends at i + 1
            W[:, i + 1] = self.pairs[i][0].step(X[0], Y[0], first=True)[1]
        return W

    def inverse_rosenblatt(self, w):
        """Inverse of :meth:`rosenblatt`; returns u in original indexing."""
        V = self._columns(w)
        self._solve(V)
        return V[:, np.argsort(self.order)]

    def _solve(self, V, joins=None):
        """Solve each row of V (n x M, in [EPS, 1 - EPS]) in place, position by
        position, from the w-values it holds.  At position k, w_k = y_k goes
        down the chain y_{i+1} = F(y_i | x_i), one `inverse` call per pair
        (i, k-1-i), to y_0 = v_k.  Pair i's x_i = F(v_{k-1-i} | v_{k-i..k-1})
        was carried to k, and the same call returns F(x_i | y_i), carried on.

        `joins` stacks V's rows in blocks that enter at different positions:
        (k, n, x), in ascending k, lets the next n rows take part from
        position k on with the carried values x (k arrays that broadcast to
        n rows).  By default every row enters at position 1 with
        x = [V[:, 0]].
        """
        joins = list(joins or [(1, len(V), [V[:, 0]])])
        x = [V[:0, 0]] * joins[0][0]
        for k in range(joins[0][0], self.M):
            while joins and joins[0][0] == k:
                _, n, enter = joins.pop(0)
                x = [np.concatenate([a, np.broadcast_to(b, n)]) for a, b in zip(x, enter)]
            y, carried = V[:len(x[0]), k], [None] * k
            for i in range(k - 1, -1, -1):  # nothing reads the last position's carries
                y, carried[i] = self.pairs[i][k - 1 - i].inverse(y, x[i], k < self.M - 1)
            V[:len(y), k], x = y, [y] + carried

    # ------------------------------------------------------------------
    # conditional sampling

    def reversed(self):
        """Same model with the order reversed: the pair table mirrored, each
        pair the transpose its cond_on="first" calls already evaluate.
        Built once, on first use, and never serialised."""
        if self._reversed is None:
            m = self.M
            pairs = [[self.pairs[i][m - 2 - i - j]._swapped()
                      for j in range(m - 1 - i)] for i in range(m - 1)]
            self._reversed = DVineModel(self.order[::-1], pairs, self.marginals)
            self._reversed._reversed = self
        return self._reversed

    def conditional_sample(self, blocks, x_star, draws):
        """Joint samples conditional on each block's coalition, from one
        inverse pass per end of the order.

        Each block (first, last) of order positions must be a proper prefix
        (first == 0) or a proper suffix (last == M - 1) of the order; a call
        may mix the two, and a suffix is a prefix of the reversed model.
        `x_star` is the full M-vector on data scale (only the conditioning
        entries are read).  draws[c] holds block c's uniforms, K_c x
        (M - |S_c|), one column per free position in order sequence.
        Returns one K_c x M data-scale table per block, in input order, its
        conditioning columns pinned at their x_star values.
        """
        m = self.M
        x_star = np.asarray(x_star, dtype=float)
        if x_star.shape != (m,):
            raise InvalidInputError(f"x_star must have shape ({m},), got {x_star.shape}")
        bad = [b for b in blocks if not (0 == b[0] <= b[1] < m - 1 or 0 < b[0] <= b[1] == m - 1)]
        if bad:
            raise CoverageError(f"blocks {bad} are not proper prefixes or suffixes "
                                f"of order {self.order}")
        sizes = [last + 1 - first for first, last in blocks]
        if len(draws) != len(blocks) or any(
                np.ndim(d) != 2 or np.shape(d)[1] != m - s for d, s in zip(draws, sizes)):
            raise InvalidInputError("need one K x (M - |S|) table of draws per block")
        tables = {}
        for suffix in (False, True):
            rank = sorted((c for c, (first, _) in enumerate(blocks) if (first > 0) == suffix),
                          key=sizes.__getitem__)
            if rank:
                model = self.reversed() if suffix else self
                tables.update(zip(rank, model._sample_prefixes(
                    [sizes[c] for c in rank], x_star, [draws[c] for c in rank])))
        return [tables[c] for c in range(len(blocks))]

    def _sample_prefixes(self, sizes, x_star, draws):
        """`conditional_sample` of prefixes of ascending sizes, one table each.
        The blocks are stacked in that order, and the block of |S| = s joins
        the inverse at position s with the h-values x*'s pinned prefix
        carries there, from one tree walk on one row for every block.  Each
        pair's h-inverse runs once per position on every joined block's rows."""
        m, s = self.M, sizes[-1]
        u_star = np.clip([[self.marginals[f].cdf(x_star[f])] for f in self.order[:s + 1]],
                         EPS, 1 - EPS)
        # x*'s tree i carries X[k-1-i] to position k <= s: its first s-1-i pairs build them
        pinned = [X for X, _ in _trees(u_star, [self.pairs[i][:s - 1 - i] for i in range(s - 1)])]

        ends = np.cumsum([len(d) for d in draws])
        V = np.empty((ends[-1], m))
        for d, k, end in zip(draws, sizes, ends):
            V[end - len(d):end, k:] = np.clip(d, EPS, 1 - EPS)
        self._solve(V, [(k, len(d), [pinned[i][k - 1 - i] for i in range(k)])
                        for d, k in zip(draws, sizes)])

        X = np.tile(x_star, (len(V), 1))
        for p in range(sizes[0], m):
            rows = ends[np.searchsorted(sizes, p, "right") - 1]  # the blocks joined by p
            f = self.order[p]
            X[:rows, f] = self.marginals[f].quantile(V[:rows, p])
        return np.split(X, ends[:-1])

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


def fit_dvine(data, order, mode=None):
    """Fit one D-vine: the one-order case of `fit_vines`."""
    return fit_vines(data, [order], mode)[0]


def fit_vines(data, orders, mode=None):
    """One fitted D-vine per order, all on one list of empirical marginals and
    one table of clipped pseudo-observations, built once after the table is
    checked.  Each order is fitted on the `_trees` walk of its rows of that
    table, one `mode.fit_level(X, Y)` call per tree, whose pairs the walk reads
    to build the next tree.  `mode` is ParametricMode (default) or NonparametricMode."""
    if not orders:
        raise InvalidInputError("need at least one order to fit")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise InvalidInputError("data must be an N x M table")
    n, m = data.shape
    if m < 2:
        raise InvalidInputError(f"need at least 2 columns to fit a vine, got {m}")
    if not np.all(np.isfinite(data)):
        raise InvalidInputError("data must be finite")
    orders = [tuple(int(o) for o in order) for order in orders]
    if any(sorted(order) != list(range(m)) for order in orders):
        raise InvalidInputError(f"order must be a permutation of 0..{m - 1}")
    if n < MIN_FIT_ROWS:
        raise InvalidInputError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")
    mode = ParametricMode() if mode is None else mode
    marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
    U = np.clip([marginals[f].cdf(data[:, f]) for f in range(m)], EPS, 1 - EPS)
    models = []
    for order in orders:
        pairs = []
        for X, Y in _trees(U[list(order)], pairs):
            pairs.append(mode.fit_level(X, Y))
        models.append(DVineModel(order, pairs, marginals))
    return models
