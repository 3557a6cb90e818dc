"""Arithmetic in GF(p^m) with integer-encoded elements.

An element c_0 + c_1*x + ... + c_{m-1}*x^{m-1} (each 0 <= c_i < p) is encoded
as the integer c_0 + c_1*p + ... + c_{m-1}*p^{m-1}.  Encodings 0 and 1 are the
additive and multiplicative identities, and for prime fields the encoding is
the residue itself.

Fields are built with :func:`build_field`, which picks a canonical modulus so
that two runs (or two machines) always agree on the arithmetic: the monic
irreducible polynomial of degree m over GF(p) whose coefficient vector has the
smallest base-p integer encoding.  The reported primitive element ``xi`` is
the smallest encoding that generates the multiplicative group.

Arithmetic is table-driven: for desk-scale fields (q <= 64 is the intended
range) the q x q tables are tiny, and indexing them with numpy arrays gives
vectorized arithmetic for free.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadParams, DimensionMismatch, DivisionByZero, NotPrimePower


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q == p**m and p prime, or None."""
    if q < 2:
        return None
    n = q
    p = None
    f = 2
    while f * f <= n:
        if n % f == 0:
            p = f
            break
        f += 1
    if p is None:
        return q, 1
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        return None
    return p, m


def _enc_digits(enc: int, p: int, width: int) -> list[int]:
    """Base-p digits of enc, little-endian, padded to width."""
    out = []
    for _ in range(width):
        enc, r = divmod(enc, p)
        out.append(r)
    return out


def _digits_enc(digits: list[int], p: int) -> int:
    enc = 0
    for c in reversed(digits):
        enc = enc * p + c
    return enc


def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over GF(p); den must be monic-normalizable."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        factor = num[-1] * inv_lead % p
        shift = len(num) - 1 - dd
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        num.pop()
    return _poly_trim(num)


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_rem(prod, mod, p)


def _monic_polys(p: int, degree: int):
    """All monic polynomials of the given degree, ascending encoding."""
    for j in range(p**degree):
        yield _enc_digits(j, p, degree) + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    if poly[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_rem(poly, g, p):
                return False
    return True


def _smallest_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # x itself: GF(p)[x]/(x) = GF(p)
    for j in range(p**m):
        cand = _enc_digits(j, p, m) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """Finite field GF(p**m) with integer-encoded elements.

    Use :func:`build_field` instead of constructing directly; it caches one
    canonical instance per order.  Scalar operations (``add``, ``mul``, ...)
    take and return plain ints.  The ``*_table`` arrays can be fancy-indexed
    with numpy integer arrays for vectorized arithmetic, and :meth:`matmul`
    multiplies matrices of encodings.

    Attributes:
        p: field characteristic.
        m: extension degree.
        q: field order p**m.
        modulus: little-endian coefficients of the reduction polynomial.
        xi: smallest encoding of a multiplicative generator.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = q = p**m
        self.modulus = tuple(modulus)
        dtype = np.min_scalar_type(q - 1)

        if m == 1:
            vals = np.arange(q, dtype=np.int64)
            add = (vals[:, None] + vals[None, :]) % p
            mul = (vals[:, None] * vals[None, :]) % p
            neg = (-vals) % p
        else:
            digits = np.array(
                [_enc_digits(e, p, m) for e in range(q)], dtype=np.int64
            )
            weights = p ** np.arange(m, dtype=np.int64)
            add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
            neg = ((-digits) % p) @ weights
            mod = list(self.modulus)
            mul = np.zeros((q, q), dtype=np.int64)
            polys = [_poly_trim(_enc_digits(e, p, m)) for e in range(q)]
            for a in range(1, q):
                for b in range(a, q):
                    r = _poly_mul_mod(polys[a], polys[b], mod, p)
                    mul[a, b] = mul[b, a] = _digits_enc(r, p)

        self.add_table = add.astype(dtype)
        self.mul_table = mul.astype(dtype)
        self.neg_table = neg.astype(dtype)
        self.sub_table = self.add_table[:, self.neg_table]
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
        self.inv_table = inv.astype(dtype)
        for t in (self.add_table, self.mul_table, self.neg_table,
                  self.sub_table, self.inv_table):
            t.setflags(write=False)

        self.xi = self._find_generator()

    # -- scalar arithmetic ------------------------------------------------

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise BadParams(f"{a} is not an element encoding of {self}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.sub_table[a, b])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e; negative e inverts first (a must be nonzero then)."""
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self.mul_table[result, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return result

    # -- element listings --------------------------------------------------

    def elements(self) -> list[int]:
        """All q encodings: 0 first, then ascending."""
        return list(range(self.q))

    def units(self) -> list[int]:
        return list(range(1, self.q))

    def powers_of_xi(self) -> list[int]:
        """[xi^1, ..., xi^(q-2)]: the units other than 1, in power order.

        Empty for q = 2 (there is no unit besides 1).
        """
        out = []
        acc = 1
        for _ in range(self.q - 2):
            acc = int(self.mul_table[acc, self.xi])
            out.append(acc)
        return out

    def _order(self, a: int) -> int:
        acc, n = a, 1
        while acc != 1:
            acc = int(self.mul_table[acc, a])
            n += 1
        return n

    def _find_generator(self) -> int:
        for a in range(1, self.q):
            if self._order(a) == self.q - 1:
                return a
        raise AssertionError("no generator found")  # unreachable

    # -- vectorized arithmetic ----------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of encoding arrays over this field.

        a has shape (r, k), b has shape (k, c); returns shape (r, c).
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"bad matmul shapes {a.shape} x {b.shape}")
        if self.m == 1:
            out = (a.astype(np.int64) @ b.astype(np.int64)) % self.p
            return out.astype(self.add_table.dtype)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.add_table.dtype)
        for i in range(a.shape[1]):
            term = self.mul_table[a[:, i][:, None], b[i][None, :]]
            out = self.add_table[out, term]
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def build_field(q: int) -> GF:
    """Build (and cache) the canonical field of order q.

    Raises:
        NotPrimePower: if q is not a prime power >= 2.
    """
    pm = _prime_power(q)
    if pm is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, m = pm
    return GF(p, m, _smallest_modulus(p, m))
