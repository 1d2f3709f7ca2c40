import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vineshap import (CoverPlan, InvalidInputError, covered_sets, greedy_cover,
                      required_sets)
from vineshap.structure import MAX_FEATURES, METHODS, set_of


def union_covered(plan):
    out = set()
    for order in plan.orders:
        out |= set(covered_sets(order, plan.method))
    return out


# ----------------------------------------------------------------------
# required sets

def test_required_condsim_m3():
    got = required_sets(3, "condsim")
    want = {frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]}
    assert got == want


def test_required_ratio_m3():
    # every complement S-bar, one-feature ones included
    got = required_sets(3, "ratio")
    want = {frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]}
    assert got == want


def test_required_condsim_m10_count():
    assert len(required_sets(10, "condsim")) == 2 ** 10 - 2


def test_required_rejects_bad_m():
    with pytest.raises(InvalidInputError):
        required_sets(1, "condsim")
    with pytest.raises(InvalidInputError):
        required_sets(26, "ratio")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: CoverPlan(3.5, "ratio", []), id="plan-3.5"),
    pytest.param(lambda: CoverPlan(True, "ratio", []), id="plan-True"),
    pytest.param(lambda: greedy_cover(4.0, "ratio"), id="cover-4.0"),
    pytest.param(lambda: greedy_cover("4", "condsim"), id="cover-str"),
    pytest.param(lambda: required_sets(np.float64(3), "condsim"), id="required-float64"),
    pytest.param(lambda: greedy_cover(4, "ratio", B=2.5), id="B-2.5"),
    pytest.param(lambda: greedy_cover(4, "ratio", B=True), id="B-True"),
    pytest.param(lambda: greedy_cover(4, "ratio", B=None), id="B-None"),
])
def test_m_and_b_must_be_integers(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


@pytest.mark.parametrize("method", METHODS)
def test_numpy_integer_m_and_b_give_the_int_plan(method):
    """np.int8(8) included: the full mask is formed as a Python int."""
    want = greedy_cover(8, method, B=5, rng=np.random.default_rng(1))
    for M, B in ((np.int8(8), np.int64(5)), (np.int64(8), np.uint8(5))):
        got = greedy_cover(M, method, B=B, rng=np.random.default_rng(1))
        assert (got.orders, got.assignment) == (want.orders, want.assignment)
    assert required_sets(np.int8(8), method) == required_sets(8, method)


def test_one_feature_cap():
    assert MAX_FEATURES == 20
    with pytest.raises(InvalidInputError):
        required_sets(21, "ratio")


# ----------------------------------------------------------------------
# covered sets

def test_covered_condsim_order_0123():
    got = set(covered_sets((0, 1, 2, 3), "condsim"))
    want = {frozenset(s) for s in
            [{0}, {0, 1}, {0, 1, 2}, {3}, {2, 3}, {1, 2, 3}]}
    assert got == want


def test_covered_ratio_order_0123():
    got = set(covered_sets((0, 1, 2, 3), "ratio"))
    want = {frozenset(s) for s in
            [{0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3}, {0, 1, 2}, {1, 2, 3},
             {0, 1, 2, 3}]}
    assert got == want


def test_covered_condsim_m2():
    assert set(covered_sets((0, 1), "condsim")) == {frozenset({0}), frozenset({1})}


# ----------------------------------------------------------------------
# greedy cover

@pytest.mark.parametrize("method", ["condsim", "ratio"])
def test_m2_single_order(method):
    plan = greedy_cover(2, method, rng=np.random.default_rng(0))
    assert len(plan.orders) == 1


def test_m2_ratio_plan_is_the_identity_order():
    assert greedy_cover(2, "ratio", rng=np.random.default_rng(0)).orders == [(0, 1)]


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_one_feature_ratio_complements_go_to_the_first_order(m):
    plan = greedy_cover(m, "ratio", rng=np.random.default_rng(m))
    assert all(plan.assignment[(1 << m) - 1 ^ 1 << j][0] == 0 for j in range(m))


def test_m3_condsim_exactly_two_orders():
    # one order covers at most 4 of the 6 required sets, so 2 are needed
    for seed in range(5):
        plan = greedy_cover(3, "condsim", rng=np.random.default_rng(seed))
        assert len(plan.orders) == 2


@pytest.mark.parametrize("method", ["condsim", "ratio"])
@pytest.mark.parametrize("m", range(2, 9))
def test_completeness(m, method):
    plan = greedy_cover(m, method, rng=np.random.default_rng(m))
    assert union_covered(plan) >= required_sets(m, method)
    assert {set_of(mask) for mask in plan.assignment} == required_sets(m, method)


def served_set(plan, mask):
    """The set a plan's order must cover to serve coalition `mask`: the
    coalition for condsim, its complement for ratio."""
    return set_of((1 << plan.M) - 1 ^ mask if plan.method == "ratio" else mask)


def test_assignment_points_at_covering_order():
    for method in ("condsim", "ratio"):
        plan = greedy_cover(5, method, rng=np.random.default_rng(1))
        for mask, (index, _, _) in plan.assignment.items():
            served = served_set(plan, mask)
            assert served in covered_sets(plan.orders[index], method)
            assert not any(served in covered_sets(order, method)
                           for order in plan.orders[:index])


@settings(max_examples=40, deadline=None)
@given(M=st.integers(2, 9), method=st.sampled_from(METHODS), seed=st.integers(0, 2 ** 32 - 1))
def test_assignment_holds_the_first_covering_order_and_the_block_it_fills(M, method, seed):
    plan = greedy_cover(M, method, B=20, rng=np.random.default_rng(seed))
    covered = [covered_sets(order, method) for order in plan.orders]
    for mask, (i, a, e) in plan.assignment.items():
        # the block is the coalition's for condsim, its complement's for ratio
        assert set(plan.orders[i][a:e + 1]) == (
            set_of(mask) if method == "condsim" else set(range(M)) - set_of(mask))
        if method == "condsim":  # a prefix or a suffix
            assert a == 0 or e == M - 1
        assert not any(served_set(plan, mask) in sets for sets in covered[:i])


def frozenset_covered(order, method):
    """`covered_sets` built from slices of the order."""
    M = len(order)
    if method == "condsim":
        return {frozenset(order[:k]) for k in range(1, M)} | {frozenset(order[k:])
                                                               for k in range(1, M)}
    return {frozenset(order[s:e + 1]) for s in range(M) for e in range(s, M)}


def frozenset_greedy_cover(M, method, B, rng):
    """The greedy loop scoring frozensets, as `greedy_cover` did before it
    scored bit masks."""
    remaining = required_sets(M, method)
    orders = []
    while remaining:
        best_order, best_cov, best_score = None, None, -1
        for _ in range(B):
            order = tuple(int(x) for x in rng.permutation(M))
            cov = frozenset_covered(order, method) & remaining
            if len(cov) > best_score or (len(cov) == best_score and order < best_order):
                best_order, best_cov, best_score = order, cov, len(cov)
        if best_score == 0:
            continue
        orders.append(best_order)
        remaining -= best_cov
    return orders


@pytest.mark.parametrize("method", ["condsim", "ratio"])
@pytest.mark.parametrize("m", range(2, 11))
def test_mask_scoring_gives_the_frozenset_loops_orders(m, method):
    for seed in range(10):  # B = 20 keeps the reference loop quick at M = 10
        plan = greedy_cover(m, method, B=20, rng=np.random.default_rng(seed))
        assert plan.orders == frozenset_greedy_cover(m, method, 20, np.random.default_rng(seed))
        for order in plan.orders:
            assert covered_sets(order, method) == frozenset_covered(order, method)


def test_determinism():
    a = greedy_cover(6, "ratio", B=50, rng=np.random.default_rng(9))
    b = greedy_cover(6, "ratio", B=50, rng=np.random.default_rng(9))
    assert a.orders == b.orders
    assert a.assignment == b.assignment


@pytest.mark.parametrize("method", ["condsim", "ratio"])
def test_plan_size_upper_bound(method):
    for m in range(2, 11):
        for seed in range(3):
            plan = greedy_cover(m, method, rng=np.random.default_rng(seed))
            assert len(plan.orders) < 2 ** (m - 1)


def test_b_must_be_positive():
    with pytest.raises(InvalidInputError):
        greedy_cover(3, "condsim", B=0)


def test_plan_serialization_roundtrip():
    # a bundle stores only the orders; the plan rebuilt from them is the same
    plan = greedy_cover(5, "ratio", rng=np.random.default_rng(2))
    assert CoverPlan(5, "ratio", plan.orders).assignment == plan.assignment
