"""Code enumeration, weight distributions, duals."""

import itertools

import numpy as np
import pytest

from unittest import mock

from mincodes import (BadParams, BudgetExceeded, RankDeficient, TrivialDual,
                      build_field, codes)
from mincodes.codes import (
    LinearCode,
    dual_code,
    enumerate_codewords,
    from_generator,
    min_max_weight,
    random_code,
    weight_distribution,
)
from mincodes.matrix import GFMatrix


def make_code(q, rows):
    return from_generator(GFMatrix(build_field(q), rows))


def brute_distribution(q, rows):
    """Independent oracle: plain python enumeration over all messages."""
    f = build_field(q)
    k = len(rows)
    n = len(rows[0])
    counts = {}
    for u in itertools.product(range(q), repeat=k):
        word = [0] * n
        for ui, row in zip(u, rows):
            for j, g in enumerate(row):
                word[j] = f.add(word[j], f.mul(ui, g))
        w = sum(1 for x in word if x)
        counts[w] = counts.get(w, 0) + 1
    return counts


HAMMING73 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def test_simplex_32():
    c = make_code(2, [[1, 0, 1], [0, 1, 1]])
    words = [w.values for w in enumerate_codewords(c)]
    assert words == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert min_max_weight(c) == (2, 2)


def test_enumeration_order_is_base_q_counter():
    c = make_code(3, [[1, 0], [0, 1]])
    coeffs = [w.coeffs for w in enumerate_codewords(c)]
    assert coeffs == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_codeword_properties():
    c = make_code(3, [[1, 2, 0, 1]])
    w = c.codeword([2])
    assert w.values == (2, 1, 0, 2)
    assert w.weight == 3
    assert w.support == (0, 1, 3)
    assert not w.is_zero()
    assert c.codeword([0]).is_zero()


def test_hamming_7_4_distribution():
    c = make_code(2, HAMMING73)
    dist = weight_distribution(c)
    assert dist.counts == {0: 1, 3: 7, 4: 7, 7: 1}
    assert dist.counts == brute_distribution(2, HAMMING73)
    assert min_max_weight(c) == (3, 7)
    assert dist.total() == 16


@pytest.mark.parametrize("q,rows", [
    (3, [[1, 2, 0, 1], [0, 1, 1, 2]]),
    (4, [[1, 2, 3, 0], [0, 1, 1, 1]]),
    (5, [[1, 0, 4], [0, 2, 3]]),
])
def test_distribution_matches_plain_python_oracle(q, rows):
    dist = weight_distribution(make_code(q, rows))
    assert dist.counts == brute_distribution(q, rows)


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficient):
        make_code(2, [[1, 1], [1, 1]])
    with pytest.raises(RankDeficient):
        make_code(3, [[0, 0, 0]])


def test_empty_generator_rejected():
    with pytest.raises(BadParams, match="at least one generator row"):
        LinearCode(GFMatrix(build_field(2), np.zeros((0, 3), dtype=np.int64)))


@pytest.mark.parametrize("n, k", [(0, 1), (2, 3), (3, 0)],
                         ids=["empty", "k-above-n", "k-zero"])
def test_random_code_rejects_bad_shape(n, k):
    # rejected before any draw is made
    with mock.patch("random.Random", side_effect=AssertionError("drew")):
        with pytest.raises(BadParams, match="1 <= k <= n"):
            random_code(n, k, 2, seed=1)


def test_random_code_row_reduces_each_draw_once():
    with mock.patch.object(codes, "rref", wraps=codes.rref) as spy:
        code = random_code(24, 12, 2, seed=1)
    assert (code.n, code.k, code.q) == (24, 12, 2)
    assert spy.call_count == 1


def test_random_code_retries_a_rank_deficient_draw():
    # over GF(2) with n = k = 3, most draws are singular or have a zero
    # column; every seed still ends in a full-rank code
    for seed in range(20):
        code = random_code(3, 3, 2, seed=seed)
        assert not code.zero_columns


def test_zero_columns_recorded_not_rejected():
    c = make_code(2, [[1, 0, 1], [0, 0, 1]])
    assert c.zero_columns == (1,)
    assert make_code(2, [[1, 1]]).zero_columns == ()


def test_budget_guard():
    c = make_code(2, HAMMING73)
    with pytest.raises(BudgetExceeded) as err:
        weight_distribution(c, budget=15)
    assert err.value.needed == 16
    assert err.value.budget == 15
    # generator is lazy: creating it is fine, consuming it raises
    it = enumerate_codewords(c, budget=15)
    with pytest.raises(BudgetExceeded):
        next(it)


def test_dual_code():
    c = make_code(2, [[1, 0, 1], [0, 1, 1]])
    d = dual_code(c)
    assert (d.n, d.k) == (3, 1)
    assert d.gen.data.tolist() == [[1, 1, 1]]
    # duality: every pair of words is orthogonal
    f = build_field(2)
    prod = f.matmul(c.gen.data, d.gen.data.T)
    assert not prod.any()


def test_dual_of_dual_is_original_row_space():
    c = make_code(3, [[1, 2, 0, 1], [0, 1, 1, 2]])
    dd = dual_code(dual_code(c))
    words = {w.values for w in enumerate_codewords(c)}
    words_dd = {w.values for w in enumerate_codewords(dd)}
    assert words == words_dd


def test_trivial_dual():
    with pytest.raises(TrivialDual):
        dual_code(make_code(2, [[1, 0], [0, 1]]))


def test_chunking_consistent():
    # force several chunks through a small chunk size
    from mincodes.codes import coeff_blocks
    c = make_code(3, [[1, 0, 2], [0, 1, 1], [0, 0, 1]])
    blocks = list(coeff_blocks(c, chunk=5))
    stacked = np.vstack(blocks)
    assert stacked.shape == (27, 3)
    assert len(np.unique(stacked, axis=0)) == 27
