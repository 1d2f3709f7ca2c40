"""Randomized greedy search for a small set of D-vine orders.

The one place that says which orders serve a coalition: condsim needs
every conditioning set to be a prefix or suffix of some order, ratio
every complement set (one-feature ones too) to be a contiguous block.
Both are set-cover problems over permutations, attacked with the
batch-of-B randomized greedy loop.  A plan records only its orders: a
coalition is served by the first order that covers it.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_

import numpy as np

from .errors import InvalidInputError

METHODS = ("condsim", "ratio")
DEFAULT_BATCH = 100
MAX_FEATURES = 20           # exact enumeration visits 2^M coalitions


def set_of(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass
class CoverPlan:
    """D-vine orders for one method; `assignment` maps each required
    coalition that an order covers to the index of the first such order."""
    M: int
    method: str
    orders: list
    assignment: dict = field(init=False)  # frozenset -> order index

    def __post_init__(self):
        required = _required_masks(self.M, self.method)
        self.assignment = {}
        for index, order in enumerate(self.orders):
            for mask in _covered_masks(order, self.method) & required:
                self.assignment.setdefault(set_of(mask), index)


def _required_masks(M, method):
    if not 2 <= M <= MAX_FEATURES:
        raise InvalidInputError(f"M must be in [2, {MAX_FEATURES}], got {M}")
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    return set(range(1, (1 << M) - 1))


def required_sets(M, method):
    """Coalitions a method needs served, as frozensets of 0-based indices.

    condsim: every conditioning set S; ratio: every complement set S-bar.
    For both that is every proper nonempty subset of the M features.
    """
    return {set_of(mask) for mask in _required_masks(M, method)}


def _covered_masks(order, method):
    """`covered_sets` as bit masks (bit f for feature f)."""
    bits = [1 << f for f in order]
    if method == "condsim":
        return {*accumulate(bits[:-1], or_), *accumulate(bits[:0:-1], or_)}
    if method == "ratio":
        return {mask for s in range(len(bits)) for mask in accumulate(bits[s:], or_)}
    raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")


def covered_sets(order, method):
    """Sets served by one order.

    condsim: the 2(M-1) prefixes and suffixes (deduplicated, full set
    excluded).  ratio: all contiguous blocks, from the length-1 ones up
    to the full order.
    """
    return {set_of(mask) for mask in _covered_masks(order, method)}


def greedy_cover(M, method, B=DEFAULT_BATCH, rng=None):
    """Greedy randomized cover: draw B permutations, keep the best, repeat.

    Ties are broken by lexicographically smallest permutation so a fixed
    seed yields a fixed plan.  Coalitions are scored as bit masks.
    """
    if B < 1:
        raise InvalidInputError(f"B must be >= 1, got {B}")
    if rng is None:
        rng = np.random.default_rng()
    remaining = _required_masks(M, method)
    orders = []
    while remaining:
        best_order, best_cov, best_score = None, None, -1
        for _ in range(B):
            order = tuple(int(x) for x in rng.permutation(M))
            cov = _covered_masks(order, method) & remaining
            score = len(cov)
            if score > best_score or (score == best_score and order < best_order):
                best_order, best_cov, best_score = order, cov, score
        if best_score == 0:
            # every permutation covers its own singleton prefixes / adjacent
            # blocks, so this only happens if the batch was unlucky; retry
            continue
        orders.append(best_order)
        remaining -= best_cov
    return CoverPlan(M, method, orders)
