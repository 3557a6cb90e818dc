"""Arithmetic in GF(p^m) with integer-encoded elements.

An element c_0 + c_1*x + ... + c_{m-1}*x^{m-1} (each 0 <= c_i < p) is encoded
as the integer c_0 + c_1*p + ... + c_{m-1}*p^{m-1}.  Encodings 0 and 1 are the
additive and multiplicative identities, and for prime fields the encoding is
the residue itself.

Fields come only from :func:`build_field` (the package does not export
:class:`GF`), which picks a canonical modulus so that two runs (or two
machines) agree on the arithmetic: the monic irreducible polynomial of
degree m over GF(p) whose coefficient vector has the smallest base-p
encoding.  The primitive element ``xi`` is the smallest encoding that
generates the multiplicative group.

Arithmetic is table-driven: :func:`build_field` refuses q > 256, the
largest order whose encodings fit in one byte, so the q x q tables stay
small, and indexing them with numpy arrays gives vectorized arithmetic for
free.  Prime and extension fields build their tables the same way, as
GF(p)[x]/(f) with f = x for m = 1: addition and negation act digit by
digit, and multiplication by x is a linear map on the digits (shift up one
place, fold the top digit back in as -f), so the digits of x^i * b are
computed for every b at once and a * b is the sum of a's digits times
them, mod p.

Sums follow one rule, in :meth:`GF.add` and :meth:`GF.sum`: the XOR of the
encodings in characteristic 2, an ``add_table`` lookup otherwise.  A
matrix product over a prime field runs in int64 and reduces mod p.  Over
an extension field it takes its products from ``mul_table`` in one of two
regimes, by size.  Up to ``_GATHER`` = 4096 products r*k*c, one gather
makes the (r, k, c) array of them all and one :meth:`GF.sum` adds it over
k.  Above the cap, a loop over k adds one (r, c) term per step, an
elementwise ``mul_table`` gather, so no temporary is larger than the
output.

The canonical modulus is found with the same tables.  The monic degree-m
polynomials are tried in ascending encoding, and the first f whose quotient
ring has no zero divisors is kept.  A finite commutative ring is a field
exactly when it has no zero divisors, and GF(p)[x]/(f) is a field exactly
when f is irreducible, so this is the smallest irreducible f.  A reducible f
has a monic factor g of degree at most m/2, and g times the cofactor is 0;
since g's encoding is below p^(m//2+1), only those rows of the candidate's
multiplication table need to be checked.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadParams, DimensionMismatch, NotPrimePower, _int

# most products r*k*c that GF.matmul gathers at once in an extension field
_GATHER = 4096


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q == p**m and p prime, or None; p is q's least
    factor above 1, found by trial division (q <= 256 here)."""
    if q < 2:
        return None
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = 0
    while q % p == 0:
        q, m = q // p, m + 1
    return (p, m) if q == 1 else None


def _digits(p: int, m: int) -> np.ndarray:
    """Base-p digits, little-endian, of every encoding below p**m: (p**m, m)."""
    return np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m) % p


def _mul_table(p: int, modulus, digits: np.ndarray, rows: int) -> np.ndarray:
    """mul[a, b] in GF(p)[x]/(modulus) for the encodings a < rows, every b.

    Multiplying by x shifts an element's digits up one place and folds the
    digit that leaves the top back in as -modulus (which is monic); as a
    matrix on digit rows that is ``times_x``.  Applying it i times gives the
    digits of x^i * b for all b at once, and a * b is the sum over i of a's
    digit i times x^i * b, mod p.
    """
    m = digits.shape[1]
    times_x = np.eye(m, k=1, dtype=np.int64)
    times_x[-1] -= np.asarray(modulus[:m], dtype=np.int64)
    shifted = [digits]
    for _ in range(m - 1):
        shifted.append(shifted[-1] @ times_x % p)
    prod = np.einsum("ai,ibj->abj", digits[:rows], np.stack(shifted)) % p
    return prod @ p ** np.arange(m)


def _smallest_modulus(p: int, m: int) -> tuple[int, ...]:
    """The first monic degree-m polynomial, by ascending encoding, whose
    quotient ring has no zero divisors (see the module docstring)."""
    digits = _digits(p, m)
    rows = p ** (m // 2 + 1)
    for low in digits:
        cand = (*low.tolist(), 1)
        if _mul_table(p, cand, digits, rows)[1:, 1:].all():
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """Finite field GF(p**m) with integer-encoded elements.

    The type :func:`build_field` returns, made only there from the
    canonical modulus (monic and irreducible), so no argument is checked;
    equality and hashing go by (p, m, modulus).  The ``*_table`` arrays
    can be fancy-indexed with ints or numpy integer arrays for scalar or
    vectorized arithmetic.  Sums go through :meth:`add` and :meth:`sum`,
    the only methods that pick XOR (characteristic 2) or ``add_table``,
    and :meth:`matmul` multiplies matrices of encodings.

    Attributes:
        p: field characteristic.
        m: extension degree.
        q: field order p**m.
        modulus: little-endian coefficients of the reduction polynomial.
        xi: smallest encoding of a multiplicative generator.
        dtype: numpy dtype of the tables and of every encoding array that
            the methods return.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = q = p**m
        self.modulus = modulus
        dtype = np.min_scalar_type(q - 1)

        digits = _digits(p, m)
        weights = p ** np.arange(m)
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        neg = (-digits % p) @ weights
        mul = _mul_table(p, modulus, digits, q)

        self.dtype = dtype
        self.add_table = add.astype(dtype)
        self.mul_table = mul.astype(dtype)
        self.neg_table = neg.astype(dtype)
        # row 0 holds no 1, so argmax leaves inv_table[0] = 0
        self.inv_table = np.argmax(mul == 1, axis=1).astype(dtype)
        for t in (self.add_table, self.mul_table, self.neg_table,
                  self.inv_table):
            t.setflags(write=False)

        self.xi = self._find_generator()

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

    def add(self, a, b) -> np.ndarray:
        """Elementwise sum of broadcastable encoding arrays: the XOR of the
        encodings in characteristic 2 (digits add without carry), else
        an ``add_table`` lookup."""
        return np.bitwise_xor(a, b) if self.p == 2 else self.add_table[a, b]

    def sum(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of an encoding array along the nonnegative ``axis``,
        by the rule of :meth:`add`: one XOR reduction in characteristic 2,
        else a fold of ``add_table`` from zeros (so an empty axis sums to
        0)."""
        if self.p == 2:
            return np.bitwise_xor.reduce(x, axis=axis)
        head = (slice(None),) * axis
        out = np.zeros(x.shape[:axis] + x.shape[axis + 1:], dtype=self.dtype)
        for i in range(x.shape[axis]):
            out = self.add_table[out, x[head + (i,)]]
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of encoding arrays over this field.

        a has shape (r, k), b has shape (k, c); returns shape (r, c) in
        :attr:`dtype`.  Prime fields multiply in int64 and reduce mod p.
        Extension fields go by size: up to ``_GATHER`` products r*k*c, one
        gather of them all from ``mul_table`` and one :meth:`sum` over k;
        above it, a loop over k that adds one (r, c) term per step, so no
        temporary holds more than r*c entries.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"bad matmul shapes {a.shape} x {b.shape}")
        (r, k), c = a.shape, b.shape[1]
        if self.m == 1:
            out = (a.astype(np.int64) @ b.astype(np.int64)) % self.p
            return out.astype(self.dtype)
        if r * k * c <= _GATHER:
            return self.sum(self.mul_table[a[:, :, None], b[None]], axis=1)
        out = np.zeros((r, c), dtype=self.dtype)
        for i in range(k):
            out = self.add(out, self.mul_table[a[:, i, None], b[i]])
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


def build_field(q: int) -> GF:
    """Build (and cache) the canonical field of order q.

    q is checked to be an integer at most 256 before the cache is consulted
    (it would take 4.0 for 4) and before any factoring or table: the tables
    grow as q^2, and every check in this package enumerates over the field.

    Raises:
        BadParams: if q is not an integer (numpy integers pass) or q > 256.
        NotPrimePower: if q is not a prime power >= 2.
    """
    q = _int(q, "field order")
    if q > 256:
        raise BadParams(f"field order must be at most 256, got {q}")
    return _canonical_field(q)


@functools.lru_cache(maxsize=None)
def _canonical_field(q: int) -> GF:
    pm = _prime_power(q)
    if pm is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, m = pm
    return GF(p, m, _smallest_modulus(p, m))
