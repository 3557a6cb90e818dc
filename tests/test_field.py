"""Field arithmetic: canonical moduli, tables, axioms."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincodes import (BadParams, DimensionMismatch, MinCodesError,
                      NotPrimePower, build_field, first)
from mincodes import field

# Hand-computed multiplication table for GF(4) = GF(2)[x]/(x^2+x+1),
# encodings 2 = x, 3 = x+1:
#   x*x = x^2 = x+1, x*(x+1) = x^2+x = 1, (x+1)^2 = x^2+1 = x.
GF4_MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 2): 3, (2, 3): 1,
    (3, 3): 2,
}


@pytest.mark.parametrize("bad", [-4, 0, 1, 6, 10, 12, 100])
def test_not_prime_power_rejected(bad):
    with pytest.raises(NotPrimePower):
        build_field(bad)


@pytest.mark.parametrize("bad", [4.0, "4", None], ids=["float", "str", "none"])
def test_field_order_must_be_an_integer(bad):
    # the cache takes 4.0 for 4, so the check must hold before and after
    # GF(4) is cached
    field._canonical_field.cache_clear()
    with pytest.raises(BadParams, match="field order"):
        build_field(bad)
    assert build_field(4).q == 4
    with pytest.raises(BadParams, match="field order"):
        build_field(bad)
    assert build_field(np.int64(4)) is build_field(4)


_prime_power = field._prime_power


def _factor_only_to_256(q):
    # factoring a large q alone takes minutes, so a guard that came too
    # late fails here at once instead of hanging
    if q > 256:
        raise AssertionError(f"q = {q} reached _prime_power past the limit")
    return _prime_power(q)


@pytest.mark.parametrize("build", [
    lambda: build_field(257),
    lambda: build_field(2**61 - 1),
    lambda: build_field(10**30),
    lambda: first(2, 1031),
], ids=["257", "2^61-1", "10^30", "first(2,1031)"])
def test_field_order_above_256_is_refused_first(monkeypatch, build):
    monkeypatch.setattr(field, "_prime_power", _factor_only_to_256)
    before = field._canonical_field.cache_info()
    with pytest.raises(BadParams, match="field order must be at most 256"):
        build()
    after = field._canonical_field.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(
    st.integers(),
    st.floats(),
    st.integers(-300, 300).map(float),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
))
def test_build_field_raises_only_package_errors(q):
    try:
        with mock.patch.object(field, "_prime_power", _factor_only_to_256):
            f = build_field(q)
    except MinCodesError:
        return
    assert 2 <= f.q == q <= 256


def test_prime_power_orders_accepted():
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 251, 256]:
        f = build_field(q)
        assert f.q == q
        assert f.p ** f.m == q


def test_canonical_moduli():
    # smallest-encoding monic irreducible, little-endian coefficients
    assert build_field(4).modulus == (1, 1, 1)        # x^2+x+1
    assert build_field(8).modulus == (1, 1, 0, 1)     # x^3+x+1
    assert build_field(9).modulus == (1, 0, 1)        # x^2+1
    assert build_field(16).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert build_field(32).modulus == (1, 0, 1, 0, 0, 1)  # x^5+x^2+1
    assert build_field(64).modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6+x+1
    # the largest order build_field takes
    assert build_field(256).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert build_field(25).modulus == (2, 0, 1)        # x^2+2
    assert build_field(27).modulus == (1, 2, 0, 1)     # x^3+2x+1
    assert build_field(49).modulus == (1, 0, 1)        # x^2+1


PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                      29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def schoolbook_mul(a, b, p, modulus):
    """a*b of two encodings: multiply the digit polynomials term by term,
    then cancel each coefficient above the top with the monic modulus."""
    m = len(modulus) - 1
    da = [a // p**i % p for i in range(m)]
    db = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] += da[i] * db[j]
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top]
        for i, f_i in enumerate(modulus):
            prod[top - m + i] -= c * f_i
    return sum(c % p * p**i for i, c in enumerate(prod[:m]))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_tables_match_schoolbook_arithmetic(q):
    f = build_field(q)
    p, m = f.p, f.m
    assert p**m == q and f.modulus[-1] == 1 and len(f.modulus) == m + 1
    digits = [[a // p**i % p for i in range(m)] for a in range(q)]

    def encode(ds):
        return sum(c % p * p**i for i, c in enumerate(ds))

    mul = [[schoolbook_mul(a, b, p, f.modulus) for b in range(q)]
           for a in range(q)]
    assert f.mul_table.tolist() == mul
    assert f.add_table.tolist() == [
        [encode(x + y for x, y in zip(digits[a], digits[b])) for b in range(q)]
        for a in range(q)]
    assert f.add_table[:, f.neg_table].tolist() == [
        [encode(x - y for x, y in zip(digits[a], digits[b])) for b in range(q)]
        for a in range(q)]
    assert f.neg_table.tolist() == [encode(-x for x in digits[a])
                                    for a in range(q)]
    for a in range(1, q):
        assert mul[a].count(1) == 1
        assert int(f.inv_table[a]) == mul[a].index(1)


def power(f, a, e):
    """a**e in f for e >= 0, by repeated multiplication in the table."""
    out = 1
    for _ in range(e):
        out = int(f.mul_table[out, a])
    return out


def test_gf4_table_matches_hand_oracle():
    f = build_field(4)
    for (a, b), want in GF4_MUL.items():
        assert f.mul_table[a, b] == want
        assert f.mul_table[b, a] == want
    assert f.mul_table[2, 2] == 3


def test_prime_field_is_modular_arithmetic():
    f = build_field(13)
    for a in range(13):
        for b in range(13):
            assert f.add_table[a, b] == (a + b) % 13
            assert f.mul_table[a, b] == (a * b) % 13
            assert f.add_table[a, f.neg_table[b]] == (a - b) % 13


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    f = build_field(q)
    add, mul = f.add_table.astype(int), f.mul_table.astype(int)
    els = range(q)
    for a in els:
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert add[a, f.neg_table[a]] == 0
        if a:
            assert mul[a, f.inv_table[a]] == 1
        for b in els:
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in els:
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_frobenius(q):
    f = build_field(q)
    for a in range(q):
        for b in range(q):
            assert power(f, int(f.add_table[a, b]), f.p) == int(
                f.add_table[power(f, a, f.p), power(f, b, f.p)])


def test_fermat():
    for q in [3, 4, 5, 9]:
        f = build_field(q)
        for a in range(1, q):
            assert power(f, a, q - 1) == 1


def test_primitive_element():
    def xi(q):
        return build_field(q).powers_of_xi()[0]
    assert build_field(2).powers_of_xi() == []  # xi = 1 has no power to list
    assert xi(3) == 2
    assert xi(4) == 2
    assert xi(5) == 2
    assert xi(7) == 3  # 2 has order 3 mod 7
    assert xi(9) == 4  # 2 has order 2, 3 (=x) has order 4
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]:
        f = build_field(q)
        assert sorted(f.powers_of_xi() + [1]) == list(range(1, q))


def test_powers_of_xi():
    assert build_field(2).powers_of_xi() == []
    assert build_field(3).powers_of_xi() == [2]
    assert build_field(5).powers_of_xi() == [2, 4, 3]


def test_xi_is_the_least_encoding_of_full_order():
    # the order of every unit of every field, by repeated multiplication
    # in mul_table: order[a] counts the powers a, a^2, ... up to the first 1
    for q in [q for q in range(2, 257) if field._prime_power(q)]:
        f = build_field(q)
        units = np.arange(1, q)
        acc, order = units.copy(), np.ones(q - 1, dtype=np.int64)
        while (live := acc != 1).any():
            acc[live] = f.mul_table[acc[live], units[live]]
            order += live
        xi = int(units[order == q - 1][0])
        expected = [xi]
        while len(expected) < q - 2:
            expected.append(int(f.mul_table[expected[-1], xi]))
        assert f.powers_of_xi() == expected[:q - 2]


def test_matmul_matches_scalar_loops():
    for q in [2, 3, 4, 9]:
        f = build_field(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=(3, 4))
        b = rng.integers(0, q, size=(4, 5))
        got = f.matmul(a, b)
        for i in range(3):
            for j in range(5):
                acc = 0
                for l in range(4):
                    acc = f.add_table[acc, f.mul_table[a[i, l], b[l, j]]]
                assert int(got[i, j]) == acc


@pytest.mark.parametrize("q", [2, 4, 256, 3, 9, 243])
def test_sum_folds_the_add_table_along_each_axis(q):
    f = build_field(q)
    x = np.random.default_rng(q).integers(0, q, size=(3, 4, 5))
    x = x.astype(f.dtype)
    for axis in range(3):
        want = np.zeros(np.delete(x.shape, axis), dtype=f.dtype)
        for part in np.moveaxis(x, axis, 0):
            want = f.add_table[want, part]
        got = f.sum(x, axis)
        assert got.dtype == f.dtype and np.array_equal(got, want)
    empty = f.sum(np.zeros((2, 0, 3), dtype=f.dtype), 1)
    assert empty.dtype == f.dtype and empty.tolist() == [[0] * 3] * 2


def test_tall_matmul_keeps_no_product_cube():
    # 20000 x 8 x 30 is far above the gather cap, so the loop over k holds
    # a few (r, c) arrays at a time, never the r*k*c products (8 times
    # the output)
    f = build_field(16)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 16, size=(20000, 8)).astype(f.dtype)
    b = rng.integers(0, 16, size=(8, 30)).astype(f.dtype)
    assert a.size * b.shape[1] > 1000 * field._GATHER
    tracemalloc.start()
    try:
        out = f.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes


def test_matmul_gf4_hand_case():
    f = build_field(4)
    out = f.matmul(np.array([[2, 3]]), np.array([[1], [2]]))
    # 2*1 + 3*2 = 2 + 1 = 3
    assert out.tolist() == [[3]]


def test_field_identity_and_cache():
    assert build_field(4) is build_field(4)
    assert build_field(4) == build_field(4)
    assert build_field(4) != build_field(5)
    assert len({build_field(4), build_field(4), build_field(8)}) == 2
    # a cleared cache makes a second instance of one order; it is the
    # same field by value
    old = build_field(4)
    field._canonical_field.cache_clear()
    new = build_field(4)
    assert new is not old and new == old and hash(new) == hash(old)
    assert new != build_field(8)


def test_every_canonical_modulus_is_monic_and_irreducible():
    # GF trusts its one caller's modulus; this holds it to that for every
    # order build_field takes: monic of degree m, and no zero divisors in
    # the full multiplication table
    for q in range(2, 257):
        if field._prime_power(q) is None:
            continue
        f = build_field(q)
        assert len(f.modulus) == f.m + 1 and f.modulus[-1] == 1
        assert f.mul_table[1:, 1:].all()


def test_bad_matmul_shapes_rejected():
    f = build_field(3)
    with pytest.raises(DimensionMismatch):
        f.matmul(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int))
    with pytest.raises(DimensionMismatch):
        f.matmul(np.zeros(3, dtype=int), np.zeros((3, 1), dtype=int))
