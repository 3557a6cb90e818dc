"""Tests for the construction families and their closed-form predictors.

The stratified checks group codewords by coefficient weight and compare
every individual weight against the closed forms, so weight collisions
between strata cannot mask an error.
"""

import numpy as np
import pytest

from mincodes.analysis import (
    ab_condition,
    has_full_value_property,
    is_minimal_code,
)
from mincodes.codes import coeff_blocks, min_max_weight, weight_distribution
from mincodes.constructions import (
    cf_code,
    cg_code,
    comb0,
    extended,
    first,
    lift,
    predicted_dprime_weights,
    predicted_first_params,
    predicted_second_bound,
    predicted_ws,
    psi,
    second,
    tensor_product,
    weight_s,
)
from mincodes.errors import (
    BadParams,
    BudgetExceeded,
    FieldMismatch,
    PreconditionFailed,
)
from mincodes.field import build_field
from mincodes.matrix import GFMatrix
from mincodes.codes import from_generator


def make_code(q, rows):
    return from_generator(GFMatrix(build_field(q), np.array(rows)))


def weights_by_coeff_weight(code):
    """dict: coefficient weight -> set of codeword weights seen there."""
    out = {}
    for block in coeff_blocks(code):
        values = code.field.matmul(block, code.gen.data)
        cw = np.count_nonzero(block, axis=1)
        w = np.count_nonzero(values, axis=1)
        for s in np.unique(cw):
            out.setdefault(int(s), set()).update(
                int(x) for x in np.unique(w[cw == s])
            )
    return out


# -- first family --------------------------------------------------------------


def test_first_2_2_generator():
    code = first(2, 2)
    assert code.q == 2 and (code.n, code.k) == (3, 2)
    assert np.array_equal(code.gen.data, [[1, 0, 1], [0, 1, 1]])


def test_first_3_3_generator():
    code = first(3, 3)
    expected = [
        [1, 0, 0, 1, 1, 1, 1, 0, 0],
        [0, 1, 0, 1, 2, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 1, 2, 1, 2],
    ]
    assert np.array_equal(code.gen.data, expected)
    # fourth column pairs the first two rows with scalar 1
    assert tuple(code.gen.col(3).ravel()) == (1, 1, 0)


def test_first_bad_params():
    with pytest.raises(BadParams):
        first(1, 2)


def test_first_3_3_distribution():
    dist = weight_distribution(first(3, 3))
    assert dist.counts == {0: 1, 5: 6, 6: 8, 7: 12}


def test_first_4_3_extremes():
    assert min_max_weight(first(4, 3)) == (7, 12)


def test_predicted_ws_frozen():
    assert predicted_ws(1, 3, 3) == 5
    assert predicted_ws(2, 3, 3) == 7
    assert predicted_ws(3, 3, 3) == 6
    with pytest.raises(BadParams):
        predicted_ws(0, 3, 3)
    with pytest.raises(BadParams):
        predicted_ws(4, 3, 3)


def test_first_params_predictor():
    p = predicted_first_params(3, 3)
    assert (p.n, p.k, p.d) == (9, 3, 5)
    assert (p.w_min, p.w_max) == (5, 7)
    assert p.weights == (5, 7, 6)
    assert p.extremes_verified


def test_first_params_outside_verified_range():
    # at q < t-2 the closed forms for the individual w_s still hold, but
    # the extremes are no longer w_1 / w_{t-1}: here the true maximum is
    # w_3 = 9, not w_4 = 8.
    p = predicted_first_params(5, 2)
    assert not p.extremes_verified
    assert p.weights == (5, 8, 9, 8, 5)
    assert p.w_max == 8
    assert min_max_weight(first(5, 2)) == (5, 9)


def test_first_stratified_weights():
    for t, q in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2),
                 (4, 3)]:
        code = first(t, q)
        p = predicted_first_params(t, q)
        assert (code.n, code.k) == (p.n, p.k)
        strata = weights_by_coeff_weight(code)
        assert strata[0] == {0}
        for s in range(1, t + 1):
            assert strata[s] == {predicted_ws(s, t, q)}, (t, q, s)
        if p.extremes_verified:
            assert min_max_weight(code) == (p.w_min, p.w_max)


def test_first_step_identity():
    for t, q in [(2, 2), (3, 3), (4, 3), (5, 2), (5, 4)]:
        p = predicted_first_params(t, q)
        for s, step, closed in p.step_table:
            assert step == closed == -t + (t - s) * q + 2, (t, q, s)


def test_first_distribution_counts():
    # per-weight counts are sums of C(t,s)(q-1)^s over the strata landing
    # on that weight; at (4,4) strata s=2 and s=4 collide on weight 16.
    for t, q in [(3, 3), (4, 2), (4, 4)]:
        expected = {0: 1}
        for s in range(1, t + 1):
            w = predicted_ws(s, t, q)
            expected[w] = expected.get(w, 0) + comb0(t, s) * (q - 1) ** s
        assert weight_distribution(first(t, q)).counts == expected, (t, q)


def test_first_minimal():
    for t, q in [(2, 2), (3, 2), (3, 3), (2, 4)]:
        assert is_minimal_code(first(t, q)).is_minimal, (t, q)


def test_first_ab_condition():
    from fractions import Fraction

    rep = ab_condition(first(3, 3))
    assert rep.ratio == Fraction(5, 7)
    assert rep.threshold == Fraction(2, 3)
    assert rep.sufficient

    rep = ab_condition(first(4, 3))
    assert rep.ratio == Fraction(7, 12)
    assert not rep.sufficient
    assert is_minimal_code(first(4, 3)).is_minimal

    assert ab_condition(first(2, 2)).ratio == 1


# -- second family --------------------------------------------------------------


def test_second_k2_equals_first():
    for t, q in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 4)]:
        a, b = second(t, 2, q), first(t, q)
        assert a.field == b.field
        assert np.array_equal(a.gen.data, b.gen.data), (t, q)


def test_second_4_3_2_generator():
    code = second(4, 3, 2)
    expected = [
        [1, 0, 0, 0, 1, 1, 1, 0],
        [0, 1, 0, 0, 1, 1, 0, 1],
        [0, 0, 1, 0, 1, 0, 1, 1],
        [0, 0, 0, 1, 0, 1, 1, 1],
    ]
    assert np.array_equal(code.gen.data, expected)
    assert code.codeword([1, 0, 0, 0]).weight == 4


def test_second_params_and_distance_bound():
    for t, k, q in [(4, 3, 2), (4, 3, 3), (5, 3, 2), (5, 4, 2)]:
        code = second(t, k, q)
        bound = predicted_second_bound(t, k, q)
        assert (code.n, code.k) == (bound.n, bound.dim), (t, k, q)
        w_min, _ = min_max_weight(code)
        assert w_min <= bound.d_upper
        row = code.codeword([1] + [0] * (t - 1))
        assert row.weight == bound.d_upper


def test_second_binary_odd_k_not_minimal():
    # over GF(2) with odd k every added column has an odd number of ones,
    # so the all-ones coefficient vector yields a full-support codeword.
    for t, k in [(4, 3), (5, 3)]:
        code = second(t, k, 2)
        full = code.codeword([1] * t)
        assert full.weight == code.n
        report = is_minimal_code(code)
        assert not report.is_minimal
        assert report.witness is not None
        covered, covering = report.witness
        assert set(covered.support) <= set(covering.support)


def test_second_5_4_2_not_minimal():
    # binary parity can conspire even for even k: here the word from rows
    # {4,5} vanishes on exactly the three 4-subsets meeting it twice, and
    # its support sits strictly inside the word from rows {2,3,4,5}.
    code = second(5, 4, 2)
    small = code.codeword([0, 0, 0, 1, 1])
    big = code.codeword([0, 1, 1, 1, 1])
    assert small.support == (3, 4, 5, 6)
    assert big.support == (1, 2, 3, 4, 5, 6, 7, 8)
    assert not is_minimal_code(code).is_minimal


def test_second_minimal_instances():
    assert is_minimal_code(second(4, 3, 3)).is_minimal


def test_second_bad_params():
    for t, k in [(4, 1), (4, 4), (4, 5), (2, 2)]:
        with pytest.raises(BadParams):
            second(t, k, 2)


# -- weight-s family ------------------------------------------------------------


def test_weight_s_2_3_2_generator():
    code = weight_s(2, 3, 2)
    expected = [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    assert np.array_equal(code.gen.data, expected)


def test_weight_s_equals_second_over_gf2():
    # over GF(2) the weight-k columns are exactly the k-subset indicators
    for s, t in [(3, 5), (2, 4)]:
        a, b = weight_s(s, t, 2), second(t, s, 2)
        assert np.array_equal(a.gen.data, b.gen.data), (s, t)


def test_psi_frozen():
    assert psi(0, 3, 2, 2) == 0
    assert psi(1, 5, 2, 3) == 0
    assert psi(2, 3, 2, 2) == 1
    assert psi(3, 3, 2, 2) == 3
    assert psi(2, 4, 2, 3) == 2
    assert psi(4, 4, 2, 3) == 12
    assert psi(3, 4, 3, 2) == 3
    with pytest.raises(BadParams):
        psi(4, 3, 2, 2)


def test_predicted_dprime_weights_frozen():
    assert predicted_dprime_weights(3, 2, 2) == [(0, 0), (1, 3), (2, 4),
                                                 (3, 3)]
    assert [w for _, w in predicted_dprime_weights(4, 2, 3)][1:] == \
        [13, 20, 21, 16]
    assert [w for _, w in predicted_dprime_weights(4, 3, 2)][1:] == \
        [4, 4, 4, 8]
    assert [w for _, w in predicted_dprime_weights(5, 2, 2)][1:] == \
        [5, 8, 9, 8, 5]


def test_weight_s_stratified_weights():
    for t, s, q in [(3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 2)]:
        code = weight_s(s, t, q)
        assert code.n == t + comb0(t, s) * (q - 1) ** s
        predicted = dict(predicted_dprime_weights(t, s, q))
        strata = weights_by_coeff_weight(code)
        for r in range(t + 1):
            assert strata[r] == {predicted[r]}, (t, s, q, r)


def test_weight_s_minimality():
    for t, s, q in [(3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 2, 2)]:
        assert is_minimal_code(weight_s(s, t, q)).is_minimal, (t, s, q)
    # odd s over GF(2): all-ones coefficients give a full-support word
    code = weight_s(3, 4, 2)
    assert code.codeword([1, 1, 1, 1]).weight == code.n
    assert not is_minimal_code(code).is_minimal


def test_weight_s_minimum_location():
    # where the nonzero minimum weight actually sits, by coefficient
    # weight r: only (4,3,2) attains it at r = s (through a three-way tie)
    attained_at_s = {}
    for t, s, q in [(3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 2)]:
        ws = dict(predicted_dprime_weights(t, s, q))
        nonzero = {r: w for r, w in ws.items() if r >= 1}
        attained_at_s[(t, s, q)] = nonzero[s] == min(nonzero.values())
    assert attained_at_s == {
        (3, 2, 2): False,
        (4, 2, 2): False,
        (4, 2, 3): False,
        (4, 3, 2): True,
        (5, 2, 2): False,
    }


def test_weight_s_bad_params():
    with pytest.raises(BadParams):
        weight_s(0, 3, 2)
    with pytest.raises(BadParams):
        weight_s(4, 3, 2)


# -- extended family -------------------------------------------------------------


def test_extended_3_3():
    code = extended(3, 3)
    assert (code.n, code.k, code.q) == (10, 3, 3)
    assert tuple(code.gen.data[0]) == (1, 0, 0, 1, 1, 1, 1, 0, 0, 2)
    assert code.codeword([1, 0, 0]).weight == 6


def test_extended_binary_is_first():
    a, b = extended(3, 2), first(3, 2)
    assert np.array_equal(a.gen.data, b.gen.data)


def test_extended_offset_formula():
    # words built without the first row keep weight w_s; words using the
    # first row gain exactly the q-2 appended nonzero entries.
    for t, q in [(3, 3), (2, 4), (3, 4)]:
        code = extended(t, q)
        for block in coeff_blocks(code):
            values = code.field.matmul(block, code.gen.data)
            for u, v in zip(block, values):
                s = int(np.count_nonzero(u))
                if s == 0:
                    continue
                expect = predicted_ws(s, t, q) + (q - 2 if u[0] else 0)
                assert int(np.count_nonzero(v)) == expect, (t, q, u)


def test_extended_full_value_and_minimal():
    for t, q in [(3, 3), (3, 4), (4, 3)]:
        code = extended(t, q)
        assert code.n == comb0(t, 2) * (q - 1) + t + q - 2
        assert has_full_value_property(code).holds, (t, q)
        assert is_minimal_code(code).is_minimal, (t, q)


def test_first_lacks_full_value_for_q_at_least_3():
    # scalar multiples of the first row only ever see values {0, alpha}
    report = has_full_value_property(first(3, 3))
    assert not report.holds
    assert report.witness.coeffs == (1, 0, 0)
    assert report.witness_values == (0, 1)


# -- lift -----------------------------------------------------------------------


def test_lift_frozen_example():
    base = make_code(2, [[1, 0]])
    lifted = lift(base, 1)
    assert (lifted.n, lifted.k) == (4, 2)
    assert np.array_equal(lifted.gen.data, [[0, 0, 1, 1], [1, 0, 1, 0]])
    supports = {c.support for c in
                [lifted.codeword(u) for u in [(0, 1), (1, 0), (1, 1)]]}
    assert supports == {(2, 3), (0, 2), (0, 3)}


def test_lift_parameters():
    assert (lift(first(2, 2), 1).n, lift(first(2, 2), 1).k) == (6, 3)
    assert (lift(first(2, 2), 2).n, lift(first(2, 2), 2).k) == (9, 4)
    lifted = lift(extended(3, 3), 1)
    assert (lifted.n, lifted.k) == (20, 4)


def test_lift_minimality():
    # single-step lifts stay minimal; two-step blocks break it because the
    # sum of two all-ones rows strictly contains either row's support
    assert is_minimal_code(lift(first(2, 2), 1)).is_minimal
    assert is_minimal_code(lift(extended(3, 3), 1)).is_minimal
    report = is_minimal_code(lift(first(2, 2), 2))
    assert not report.is_minimal


def test_lift_full_value_only_binary():
    assert has_full_value_property(lift(first(2, 2), 1)).holds
    # over GF(3) the word with a single all-ones block sees only {0, 1}
    report = has_full_value_property(lift(extended(3, 3), 1))
    assert not report.holds
    assert set(report.witness_values) == {0, 1}


def test_lift_composes_over_gf2():
    inner = lift(first(2, 2), 1)
    outer = lift(inner, 1)
    assert (outer.n, outer.k) == (12, 4)
    assert is_minimal_code(outer).is_minimal
    assert has_full_value_property(outer).holds


def test_lift_preconditions():
    identity = make_code(2, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionFailed):
        lift(identity, 1)  # not minimal
    with pytest.raises(PreconditionFailed):
        lift(first(3, 3), 1)  # minimal but missing a value
    with pytest.raises(PreconditionFailed):
        lift(lift(extended(3, 3), 1), 1)  # inner lift lost the property
    with pytest.raises(BadParams):
        lift(first(2, 2), 0)


# -- tensor product --------------------------------------------------------------


def test_tensor_product_params_and_minimality():
    t22 = tensor_product(first(2, 2), first(2, 2))
    assert (t22.n, t22.k) == (9, 4)
    assert min_max_weight(t22)[0] == 4
    assert is_minimal_code(t22).is_minimal

    t23 = tensor_product(first(2, 3), first(2, 3))
    assert (t23.n, t23.k, t23.q) == (16, 4, 3)
    assert min_max_weight(t23)[0] == 9
    assert is_minimal_code(t23).is_minimal


def test_tensor_distance_multiplies():
    a, b = first(2, 3), first(3, 3)
    prod = tensor_product(a, b)
    assert (prod.n, prod.k) == (a.n * b.n, a.k * b.k)
    assert min_max_weight(prod)[0] == \
        min_max_weight(a)[0] * min_max_weight(b)[0]


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor_product(first(2, 2), first(2, 3))


# -- evaluation codes -------------------------------------------------------------


def test_cf_code_4_2_3():
    code = cf_code(4, 2, 3, (1, 2))
    assert (code.n, code.k, code.q) == (80, 5, 3)
    # first point x = (0,0,0,1): f = alpha_1 = 1, then the coordinates
    assert tuple(code.gen.col(0).ravel()) == (1, 0, 0, 0, 1)
    # x = (0,0,1,1) has weight 2: f = alpha_2 = 2
    assert tuple(code.gen.col(3).ravel()) == (2, 0, 0, 1, 1)
    assert is_minimal_code(code).is_minimal


def test_cf_code_bad_params():
    with pytest.raises(BadParams):
        cf_code(4, 2, 2, (1, 1))  # even q
    with pytest.raises(BadParams):
        cf_code(3, 2, 3, (1, 2))  # n too small
    with pytest.raises(BadParams):
        cf_code(4, 3, 3, (1, 2, 1))  # k > n-2
    with pytest.raises(BadParams):
        cf_code(4, 2, 3, (1,))  # wrong alpha count
    with pytest.raises(BadParams):
        cf_code(4, 2, 3, (1, 0))  # zero alpha
    with pytest.raises(BudgetExceeded,
                       match="needs 80 points, budget is 10"):
        cf_code(4, 2, 3, (1, 2), budget=10)


@pytest.mark.parametrize("alphas", [(1.5, 2), "12", 12],
                         ids=["float", "str", "bare-int"])
def test_cf_code_rejects_non_integer_alphas(alphas):
    with pytest.raises(BadParams, match="alphas must be a sequence"):
        cf_code(4, 2, 3, alphas)


def test_cg_code_2_2_2():
    code = cg_code(2, 2, 2)
    assert (code.n, code.k, code.q) == (15, 5, 2)
    g_row = (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0)
    assert tuple(code.gen.data[0]) == g_row
    assert tuple(code.gen.data[1]) == (0,) * 7 + (1,) * 8
    assert is_minimal_code(code).is_minimal
    assert has_full_value_property(code).holds


def test_cg_code_2_2_3():
    code = cg_code(2, 2, 3)
    assert (code.n, code.k, code.q) == (80, 5, 3)
    assert is_minimal_code(code).is_minimal


def test_cg_code_bad_params():
    with pytest.raises(BadParams):
        cg_code(1, 2, 2)
    with pytest.raises(BadParams):
        cg_code(2, 1, 2)
    with pytest.raises(BudgetExceeded):
        cg_code(2, 2, 3, budget=10)


# -- predictor validation ----------------------------------------------------------


def test_predictor_bad_params():
    with pytest.raises(BadParams):
        predicted_first_params(1, 3)
    with pytest.raises(BadParams):
        predicted_second_bound(3, 3, 2)
    with pytest.raises(BadParams):
        predicted_dprime_weights(3, 0, 2)
