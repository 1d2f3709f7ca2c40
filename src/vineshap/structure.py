"""Randomized greedy search for a small set of D-vine orders.

The conditional simulation method needs every conditioning coalition to
be a prefix or suffix of some order; the ratio method needs every
complement set to be a contiguous block.  Both are set-cover problems
over permutations, attacked with the batch-of-B randomized greedy loop.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

METHODS = ("condsim", "ratio")
DEFAULT_BATCH = 100


def set_of(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True)
class Assignment:
    """How one coalition is served: which order, and in what role.

    role is "prefix"/"suffix" (condsim; the coalition occupies the first
    or last `length` order positions) or "block" (ratio; the coalition is
    the contiguous order slice [start, end])."""
    order_index: int
    role: str
    start: int = 0
    end: int = 0


@dataclass
class CoverPlan:
    M: int
    method: str
    orders: list = field(default_factory=list)
    assignment: dict = field(default_factory=dict)  # frozenset -> Assignment

    def to_dict(self):
        return {
            "M": self.M,
            "method": self.method,
            "orders": [list(o) for o in self.orders],
            "assignment": [
                {"features": sorted(k), "order_index": a.order_index,
                 "role": a.role, "start": a.start, "end": a.end}
                for k, a in sorted(self.assignment.items(), key=lambda kv: sorted(kv[0]))
            ],
        }

    @classmethod
    def from_dict(cls, d):
        plan = cls(M=d["M"], method=d["method"],
                   orders=[tuple(o) for o in d["orders"]])
        for rec in d["assignment"]:
            plan.assignment[frozenset(rec["features"])] = Assignment(
                rec["order_index"], rec["role"], rec["start"], rec["end"])
        return plan


def required_sets(M, method):
    """Coalitions a method needs served, as frozensets of 0-based indices.

    condsim: every proper nonempty conditioning set S.  ratio: every
    complement set S-bar with at least 2 elements (1-element copula
    marginals are uniform and need no model).
    """
    if not 2 <= M <= 25:
        raise InvalidInputError(f"M must be in [2, 25], got {M}")
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    out = set()
    for mask in range(1, (1 << M) - 1):
        s = set_of(mask)
        if method == "condsim":
            out.add(s)
        else:
            sbar = frozenset(range(M)) - s
            if len(sbar) >= 2:
                out.add(sbar)
    return out


def covered_sets(order, method):
    """Sets served by one order, mapped to their role.

    condsim: the 2(M-1) prefixes and suffixes (deduplicated, full set
    excluded).  ratio: all contiguous blocks of length >= 2, including
    the full order.
    """
    order = tuple(order)
    M = len(order)
    out = {}
    if method == "condsim":
        for k in range(1, M):
            pre = frozenset(order[:k])
            out.setdefault(pre, ("prefix", 0, k - 1))
            suf = frozenset(order[M - k:])
            out.setdefault(suf, ("suffix", M - k, M - 1))
    elif method == "ratio":
        for s in range(M):
            for e in range(s + 1, M):
                out[frozenset(order[s:e + 1])] = ("block", s, e)
    else:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    return out


def greedy_cover(M, method, B=DEFAULT_BATCH, rng=None):
    """Greedy randomized cover: draw B permutations, keep the best, repeat.

    Ties are broken by lexicographically smallest permutation so a fixed
    seed yields a fixed plan.
    """
    if B < 1:
        raise InvalidInputError(f"B must be >= 1, got {B}")
    if rng is None:
        rng = np.random.default_rng()
    remaining = required_sets(M, method)
    plan = CoverPlan(M=M, method=method)
    if not remaining:
        # ratio at M=2: no marginals to cover, but one model is still
        # needed for the joint density
        plan.orders.append(tuple(range(M)))
    while remaining:
        best_order, best_cov, best_score = None, None, -1
        for _ in range(B):
            order = tuple(int(x) for x in rng.permutation(M))
            cov = covered_sets(order, method)
            score = sum(1 for s in cov if s in remaining)
            if score > best_score or (score == best_score and order < best_order):
                best_order, best_cov, best_score = order, cov, score
        if best_score == 0:
            # every permutation covers its own singleton prefixes / adjacent
            # blocks, so this only happens if the batch was unlucky; retry
            continue
        idx = len(plan.orders)
        plan.orders.append(best_order)
        for s, (role, start, end) in best_cov.items():
            if s in remaining:
                plan.assignment[s] = Assignment(idx, role, start, end)
                remaining.discard(s)
    return plan
