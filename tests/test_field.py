"""Field arithmetic: canonical moduli, tables, axioms."""

import numpy as np
import pytest

from mincodes import (BadParams, DimensionMismatch, DivisionByZero,
                      NotPrimePower, build_field)
from mincodes.field import GF

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


def test_prime_power_orders_accepted():
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]:
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
    assert f.sub_table.tolist() == [
        [encode(x - y for x, y in zip(digits[a], digits[b])) for b in range(q)]
        for a in range(q)]
    assert f.neg_table.tolist() == [encode(-x for x in digits[a])
                                    for a in range(q)]
    for a in range(1, q):
        assert mul[a].count(1) == 1
        assert int(f.inv_table[a]) == mul[a].index(1)


def test_gf4_table_matches_hand_oracle():
    f = build_field(4)
    for (a, b), want in GF4_MUL.items():
        assert f.mul(a, b) == want
        assert f.mul(b, a) == want
    assert f.mul(2, 2) == 3


def test_prime_field_is_modular_arithmetic():
    f = build_field(13)
    for a in range(13):
        for b in range(13):
            assert f.add(a, b) == (a + b) % 13
            assert f.mul(a, b) == (a * b) % 13
            assert f.sub(a, b) == (a - b) % 13


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    f = build_field(q)
    els = f.elements()
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_frobenius(q):
    f = build_field(q)
    for a in range(q):
        for b in range(q):
            assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


def test_division():
    f = build_field(9)
    for a in range(9):
        for b in range(1, 9):
            assert f.mul(f.div(a, b), b) == a
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)


def test_pow():
    for q in [3, 4, 5, 9]:
        f = build_field(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1  # Fermat
            assert f.pow(a, -1) == f.inv(a)
            assert f.pow(a, 3) == f.mul(a, f.mul(a, a))
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0


def test_primitive_element():
    assert build_field(2).xi == 1
    assert build_field(3).xi == 2
    assert build_field(4).xi == 2
    assert build_field(5).xi == 2
    assert build_field(7).xi == 3  # 2 has order 3 mod 7
    assert build_field(9).xi == 4  # 2 has order 2, 3 (=x) has order 4
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]:
        f = build_field(q)
        assert sorted(f.powers_of_xi() + [1]) == f.units()


def test_powers_of_xi():
    assert build_field(2).powers_of_xi() == []
    assert build_field(3).powers_of_xi() == [2]
    assert build_field(5).powers_of_xi() == [2, 4, 3]


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
                    acc = f.add(acc, f.mul(int(a[i, l]), int(b[l, j])))
                assert int(got[i, j]) == acc


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


def test_bad_encodings_rejected():
    f = build_field(4)
    with pytest.raises(BadParams):
        f.add(1, 4)
    with pytest.raises(BadParams):
        f.neg(-1)


@pytest.mark.parametrize("p, m, modulus", [
    (2, 2, (0, 0, 1)),     # x^2 = x * x
    (3, 2, (1, 0, 1, 0)),  # wrong length
    (3, 2, (1, 0, 2)),     # not monic
    (5, 2, (1, 0, 1)),     # x^2 + 1 = (x + 2)(x + 3) over GF(5)
])
def test_direct_construction_rejects_bad_moduli(p, m, modulus):
    with pytest.raises(BadParams):
        GF(p, m, modulus)


def test_bad_matmul_shapes_rejected():
    f = build_field(3)
    with pytest.raises(DimensionMismatch):
        f.matmul(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int))
    with pytest.raises(DimensionMismatch):
        f.matmul(np.zeros(3, dtype=int), np.zeros((3, 1), dtype=int))
