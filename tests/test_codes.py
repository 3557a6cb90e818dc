"""Code enumeration, weight distributions, duals."""

import hashlib
import itertools

import numpy as np
import pytest

from unittest import mock

from mincodes import (BadParams, BudgetExceeded, DimensionMismatch,
                      RankDeficient, SssScheme, TrivialDual, build_field,
                      codes)
from mincodes.codes import (
    Codeword,
    LinearCode,
    codeword_blocks,
    dual_code,
    min_max_weight,
    random_code,
    weight_distribution,
)
from mincodes.constructions import first
from mincodes.matrix import GFMatrix


def make_code(q, rows):
    return LinearCode(GFMatrix(build_field(q), rows))


def all_words(code):
    """Every codeword, in canonical order, from the block generator."""
    for coeffs, values in codeword_blocks(code):
        for u, v in zip(coeffs.tolist(), values.tolist()):
            yield Codeword(tuple(u), tuple(v))


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
                word[j] = int(f.add_table[word[j], f.mul_table[ui, g]])
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
    words = [w.values for w in all_words(c)]
    assert words == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert min_max_weight(c) == (2, 2)


def test_enumeration_order_is_base_q_counter():
    c = make_code(3, [[1, 0], [0, 1]])
    coeffs = [w.coeffs for w in all_words(c)]
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


def test_codeword_rejects_a_float_coefficient():
    with pytest.raises(BadParams, match="entries must be integers"):
        first(3, 3).codeword([1.9, 0, 0])


def test_codeword_rejects_a_prime_field_coefficient_outside_the_field():
    with pytest.raises(BadParams, match=r"entries outside \[0, 3\)"):
        first(3, 3).codeword([4, 0, 0])


def test_codeword_rejects_an_extension_field_coefficient_outside_the_field():
    with pytest.raises(BadParams, match=r"entries outside \[0, 4\)"):
        first(3, 4).codeword([9, 0, 0])


def test_codeword_rejects_the_wrong_number_of_coefficients():
    with pytest.raises(DimensionMismatch, match="of length 3, got shape"):
        first(3, 4).codeword([1, 0])
    with pytest.raises(DimensionMismatch, match="ragged"):
        first(3, 3).codeword([[1, 0], [0]])


def test_hamming_7_4_distribution():
    c = make_code(2, HAMMING73)
    dist = weight_distribution(c)
    assert dist.counts == {0: 1, 3: 7, 4: 7, 7: 1}
    assert dist.counts == brute_distribution(2, HAMMING73)
    assert min_max_weight(c) == (3, 7)
    assert sum(dist.counts.values()) == 16


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


@pytest.mark.parametrize("n, k, q, seed, bad", [
    (5.0, 3, 3, 1, "n"), (5, 3.0, 3, 1, "k"), (5, 3, "3", 1, "q"),
    (5, 3, 3, "abc", "seed"), (5, 3, 3, 1.5, "seed"), (5, 3, 3, None, "seed"),
], ids=["float-n", "float-k", "str-q", "str-seed", "float-seed", "no-seed"])
def test_random_code_takes_only_integers(n, k, q, seed, bad):
    with pytest.raises(BadParams, match=f"^{bad} must be an integer, got "):
        random_code(n, k, q, seed=seed)


@pytest.mark.parametrize("call, message", [
    (lambda: build_field(4.0), "field order must be an integer, got 4.0"),
    (lambda: random_code(5, 3, 3, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: weight_distribution(make_code(2, [[1, 1]]), budget=2.5),
     "budget must be an integer, got 2.5"),
    (lambda: SssScheme(make_code(2, [[1, 1]]), secret_column="1"),
     "secret column must be an integer, got '1'"),
], ids=["field-order", "random-code", "budget", "secret-column"])
def test_a_scalar_check_asks_for_one_integer(call, message):
    # one value, so not worded as a sequence
    with pytest.raises(BadParams) as err:
        call()
    assert str(err.value) == message


def test_random_code_takes_numpy_integers():
    code = random_code(np.int64(5), np.int8(3), np.uint8(3), seed=np.int64(1))
    assert code.gen == random_code(5, 3, 3, seed=1).gen


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


def test_random_code_gives_up_after_its_draws():
    # with no tries left, not one draw is made
    with mock.patch.object(codes, "_MAX_TRIES", 0), \
            pytest.raises(RankDeficient, match=r"^no full-rank "
                          r"zero-column-free \[5,3\]_3 matrix in 0 draws "
                          r"from seed 1$"):
        random_code(5, 3, 3, seed=1)


@pytest.mark.parametrize("n, k, q, seed, digest", [
    (24, 12, 2, 1, "8caeb36568c80b0e"),
    (90, 13, 2, 1, "7046c78606c45b98"),
    (24, 9, 3, 1, "90c9ac49f4c8c781"),
    (5, 3, 3, 7, "778c9bf5e3c0ca64"),
    (30, 2, 2, 7, "1870d683fbca884f"),
    (30, 2, 2, 8, "8fe52ad03877a3d4"),
])
def test_random_code_keeps_its_whole_matrix_draws(n, k, q, seed, digest):
    # codes a whole-matrix draw finds, pinned by the hash of the generator
    data = random_code(n, k, q, seed=seed).gen.data
    assert hashlib.sha256(data.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n, k", [(20, 1), (30, 2)])
def test_random_code_draws_nonzero_columns_when_whole_draws_miss(n, k):
    # over GF(2) a whole-matrix draw of these shapes almost always has a
    # zero column, so most seeds fall back to drawing column by column
    for seed in range(10):
        code = random_code(n, k, 2, seed=seed)
        assert (code.n, code.k, code.zero_columns) == (n, k, ())
        assert code.gen == random_code(n, k, 2, seed=seed).gen
    # the all-ones row is the one zero-column-free [20,1]_2 code
    assert random_code(20, 1, 2, seed=0).gen.data.tolist() == [[1] * 20]


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
    it = codeword_blocks(c, budget=15)
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
    words = {w.values for w in all_words(c)}
    words_dd = {w.values for w in all_words(dd)}
    assert words == words_dd


def test_trivial_dual():
    with pytest.raises(TrivialDual):
        dual_code(make_code(2, [[1, 0], [0, 1]]))


def test_chunking_consistent():
    # force several blocks through a small _CHUNK: a tail of one row, so
    # nine blocks of q = 3 rows, each that of its word block
    from mincodes.codes import coeff_blocks
    c = make_code(3, [[1, 0, 2], [0, 1, 1], [0, 0, 1]])
    with mock.patch.object(codes, "_CHUNK", 5):
        blocks = list(coeff_blocks(c))
        words = list(codeword_blocks(c))
    assert [len(b) for b in blocks] == [3] * 9
    assert all(np.array_equal(b, u) for b, (u, _) in zip(blocks, words))
    stacked = np.vstack(blocks)
    assert stacked.shape == (27, 3)
    assert len(np.unique(stacked, axis=0)) == 27
