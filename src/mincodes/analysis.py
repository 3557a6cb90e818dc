"""Verification of minimality and related codeword properties.

A nonzero codeword c is minimal when every codeword whose support is
contained in Supp(c) is a scalar multiple of c; a code is minimal when all
its nonzero codewords are.  Support containment is invariant under scaling,
so all checks run on one representative per scalar class (the codeword whose
first nonzero coefficient is 1).

Minimality is decided class by class by rank: c = uG is minimal exactly
when the columns of G on which c vanishes span a space of dimension k-1,
the hyperplane orthogonal to u.  This is the cutting blocking set
characterization (Alfarano, Borello and Neri, "A geometric characterization
of minimal codes and their asymptotic performance"; Tang, Qiu, Liao and
Zhou, "Full characterization of minimal linear codes as cutting blocking
sets").  The ranks come from the batched GF(p) kernel
``matrix.column_ranks``, one block of classes at a time, so memory is
linear: one block of zero columns, plus n bits of support per class kept
for the witness.  Each block is ranked first on a slice, the first
k-1+_SLICE zero columns of every class.  Any set of a class's zero
columns has rank at most k-1, so rank k-1 on the slice proves the class
minimal, and a class whose zero set fits in the slice is decided
exactly.  Only the remaining classes, of rank below k-1 on the slice and
with more zero columns than it, are ranked again on all of them.

A non-minimal code takes the full rank pass and then scans every class in
canonical order against the non-minimal ones; a class that covers another
is non-minimal, so this finds the same first covered pair as a scan of
all pairs.  That scan is a float32 GEMM (BLAS sgemm); its zero test is
exact because every term is nonnegative.

The sufficient (not necessary) weight-ratio test: a code is minimal whenever
w_min / w_max > (q-1)/q.  The comparison is exact, by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import DEFAULT_BUDGET, Codeword, LinearCode, WeightDistribution, \
    _class_coeffs, projective_blocks, weight_distribution
from .errors import BadParams, DimensionMismatch, NotInCode
from .matrix import GFMatrix, column_ranks, in_span, rank

_ROW_BLOCK = 1024
_SLICE = 2  # zero columns past k-1 in the first rank call; by measurement


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the exhaustive minimality check.

    is_minimal comes from the rank test on every scalar class.  witness,
    present iff is_minimal is false, is a pair (covered, covering) of
    non-proportional codewords with Supp(covered) subseteq Supp(covering);
    it is the first violation in canonical scan order.  pairs_checked
    counts the ordered pairs of distinct classes that a scan of all pairs,
    _ROW_BLOCK covered rows at a time, would examine: classes*(classes-1)
    for a minimal code, otherwise the end of the block holding the covered
    class times classes-1.
    """

    is_minimal: bool
    witness: tuple[Codeword, Codeword] | None
    classes: int
    pairs_checked: int

    def as_dict(self) -> dict:
        d = {
            "is_minimal": self.is_minimal,
            "classes": self.classes,
            "pairs_checked": self.pairs_checked,
            "witness": None,
        }
        if self.witness is not None:
            cov, ing = self.witness
            d["witness"] = {
                "covered": list(cov.values),
                "covering": list(ing.values),
            }
        return d


@dataclass(frozen=True)
class AbReport:
    """Exact weight-ratio sufficiency report."""

    q: int
    w_min: int
    w_max: int
    ratio: Fraction
    threshold: Fraction
    sufficient: bool

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "w_min": self.w_min,
            "w_max": self.w_max,
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "threshold":
                f"{self.threshold.numerator}/{self.threshold.denominator}",
            "sufficient": self.sufficient,
        }


@dataclass(frozen=True)
class FullValueReport:
    """Whether every nonzero codeword takes all q field values."""

    holds: bool
    witness: Codeword | None
    witness_values: tuple[int, ...] | None

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness.values),
            "witness_values":
                None if self.witness_values is None else list(self.witness_values),
        }


def covers(c1: Codeword, c2: Codeword) -> bool:
    """True iff Supp(c1) is contained in Supp(c2)."""
    if len(c1.values) != len(c2.values):
        raise DimensionMismatch("codewords have different lengths")
    a = np.asarray(c1.values, dtype=np.int64) != 0
    b = np.asarray(c2.values, dtype=np.int64) != 0
    return bool(np.all(b[a]))


def _as_word(values_row, coeffs_row) -> Codeword:
    return Codeword(tuple(coeffs_row.tolist()), tuple(values_row.tolist()))


def _rank_blocks(code: LinearCode, budget: int):
    """Yield (coeffs, values, minimal) per block of projective_blocks.

    Class i is minimal iff the columns of G where values[i] vanishes have
    rank k-1 (they lie in the hyperplane orthogonal to coeffs[i], so the
    rank is at most k-1).  Each block gathers every row's zero columns
    once, left-aligned and padded with the zero column n, and ranks the
    first k-1+_SLICE of them for every row in one ``matrix.column_ranks``
    call.  Rank k-1 on that slice proves the class minimal, since no
    superset can exceed k-1.  A class whose zero set fits in the slice is
    then decided exactly; only the others of rank below k-1 are ranked
    again on all their zero columns, in a second call as wide as the
    widest of them.
    """
    n, k = code.n, code.k
    rank = column_ranks(code.field, code.gen.data)
    position, pad = np.arange(n, dtype=np.int32), np.int32(n)
    for u, v in projective_blocks(code, budget):
        supp = v != 0
        zeros = n - supp.sum(axis=1)
        # zero coordinates sort first; the others land at n or past it,
        # where the kernel reads the zero column
        idx = np.sort(position + supp * pad, axis=1)
        width = max(1, min(k - 1 + _SLICE, int(zeros.max())))
        minimal = rank(idx[:, :width]) == k - 1
        again = ~minimal & (zeros > width)
        if again.any():
            minimal[again] = rank(
                idx[again, :zeros[again].max()]) == k - 1
        yield u, v, minimal


def _first_cover(packed: np.ndarray, bad: np.ndarray, n: int):
    """(i, j): the first class i in canonical order whose support lies
    inside the support of a non-minimal class j != i, and the first such j.

    packed holds every class's support as packed bits; bad lists the
    non-minimal classes, ascending.  Both sides go _ROW_BLOCK at a time.
    """
    def block(rows):
        return np.unpackbits(rows, axis=1, count=n).astype(np.float32)

    for start in range(0, len(packed), _ROW_BLOCK):
        rows = block(packed[start:start + _ROW_BLOCK])
        first = None
        for cstart in range(0, len(bad), _ROW_BLOCK):
            cols = bad[cstart:cstart + _ROW_BLOCK]
            # counts coords nonzero in the row but zero in the column, as a
            # float32 GEMM; every term is 0 or 1, and a float sum of
            # nonnegative terms is 0 exactly when every term is, so the
            # zero test is exact at any n and in any summation order.
            covered = (rows @ (1 - block(packed[cols])).T) == 0
            own = (cols >= start) & (cols < start + len(rows))
            covered[cols[own] - start, np.nonzero(own)[0]] = False
            hits = np.argwhere(covered)
            if hits.size and (first is None or hits[0, 0] < first[0]):
                first = (int(hits[0, 0]), int(cols[hits[0, 1]]))
        if first is not None:
            return start + first[0], first[1]
    raise AssertionError("a non-minimal class covers another")  # unreachable


def is_minimal_code(code: LinearCode,
                    budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Exhaustively decide minimality of the whole code.

    Decides every scalar class by the rank of its zero columns; a
    non-minimal code then gets its canonical witness from a scan of every
    class against the non-minimal ones.
    """
    supports, minimal = [], []
    for _, v, ok in _rank_blocks(code, budget):
        supports.append(np.packbits(v != 0, axis=1))
        minimal.append(ok)
    minimal = np.concatenate(minimal)
    classes = len(minimal)
    if minimal.all():
        return MinimalityReport(True, None, classes, classes * (classes - 1))
    i, j = _first_cover(np.vstack(supports), np.nonzero(~minimal)[0], code.n)
    u = np.array([_class_coeffs(code.q, code.k, x) for x in (i, j)])
    v = code.field.matmul(u, code.gen.data)
    stop = min(i - i % _ROW_BLOCK + _ROW_BLOCK, classes)
    return MinimalityReport(
        is_minimal=False,
        witness=(_as_word(v[0], u[0]), _as_word(v[1], u[1])),
        classes=classes,
        pairs_checked=stop * (classes - 1),
    )


def minimal_codewords(code: LinearCode,
                      budget: int = DEFAULT_BUDGET) -> list[Codeword]:
    """All minimal codewords, one representative per scalar class.

    Representatives are normalized to first nonzero coefficient 1 and listed
    in canonical coefficient order; the complete set of minimal codewords is
    exactly their nonzero scalar multiples (see scalar_class).
    """
    return [Codeword(tuple(c), tuple(x))
            for u, v, ok in _rank_blocks(code, budget)
            for c, x in zip(u[ok].tolist(), v[ok].tolist())]


def scalar_class(code: LinearCode, word: Codeword) -> list[Codeword]:
    """The q-1 nonzero scalar multiples of word, in ascending scalar order."""
    f = code.field
    u = np.asarray(word.coeffs, dtype=np.int64)
    v = np.asarray(word.values, dtype=np.int64)
    return [
        _as_word(f.mul_table[lam, v], f.mul_table[lam, u])
        for lam in range(1, f.q)
    ]


def _coeffs_for(code: LinearCode, values) -> np.ndarray:
    x = in_span(code.field, values, code.gen.data)
    if x is None:
        raise NotInCode(f"vector is not a codeword of {code}")
    return x


def is_minimal_codeword(code: LinearCode, word) -> bool:
    """Decide minimality of one codeword (a Codeword or a value vector):
    the columns of G where it vanishes must have rank k-1."""
    values = np.asarray(
        word.values if isinstance(word, Codeword) else word, dtype=np.int64
    )
    if values.shape != (code.n,):
        raise DimensionMismatch(f"expected a length-{code.n} vector")
    if not values.any():
        raise BadParams("the zero codeword is excluded from minimality")
    _coeffs_for(code, values)  # raises NotInCode
    zero_cols = GFMatrix(code.field, code.gen.data[:, values == 0])
    return rank(zero_cols) == code.k - 1


def ab_report(dist: WeightDistribution) -> AbReport:
    """The weight-ratio check on a computed distribution: sufficient iff
    q*w_min > (q-1)*w_max."""
    w_min, w_max = dist.min_nonzero(), dist.max_weight()
    q = dist.q
    return AbReport(
        q=q,
        w_min=w_min,
        w_max=w_max,
        ratio=Fraction(w_min, w_max),
        threshold=Fraction(q - 1, q),
        sufficient=q * w_min > (q - 1) * w_max,
    )


def ab_condition(code: LinearCode, budget: int = DEFAULT_BUDGET) -> AbReport:
    """Exact Ashikhmin-Barg style check: sufficient iff q*w_min > (q-1)*w_max."""
    return ab_report(weight_distribution(code, budget))


def has_full_value_property(code: LinearCode,
                            budget: int = DEFAULT_BUDGET) -> FullValueReport:
    """Check that every nonzero codeword realizes all q field values."""
    q = code.q
    # scaling permutes the field values, so one word per class decides
    for ublock, vblock in projective_blocks(code, budget):
        ok = np.ones(len(vblock), dtype=bool)
        for val in range(q):
            ok &= (vblock == val).any(axis=1)
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            word = _as_word(vblock[i], ublock[i])
            present = tuple(sorted(set(word.values)))
            return FullValueReport(False, word, present)
    return FullValueReport(True, None, None)

