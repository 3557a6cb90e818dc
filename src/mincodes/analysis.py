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
linear: one block of zero columns, plus n bits of support and one byte
of verdict per class.  Each block is ranked first on a slice, the first
k-1+_SLICE zero columns of every class.  Any set of a class's zero
columns has rank at most k-1, so rank k-1 on the slice proves the class
minimal, and a class whose zero set fits in the slice is decided
exactly.  Only the remaining classes, of rank below k-1 on the slice and
with more zero columns than it, are ranked again on all of them.

A non-minimal code takes the full rank pass and then scans the classes in
canonical order against the non-minimal ones, in blocks of 1, 2, 4, ... up
to _ROW_BLOCK classes, up to the first block that holds a covered class;
a class that covers another is non-minimal, so this finds the same first
covered pair as a scan of all pairs.  That scan is a float32 GEMM (BLAS
sgemm); its zero test is exact because every term is nonnegative.

Every whole-code fact comes from that rank pass, run only by ``_walk``,
which also counts the classes by coefficient and codeword weight and
finds the first class that misses a field value.  The generator is
read-only, so the results, each class's verdict among them, are kept in
the code's memo and read by every whole-code check after its budget
check; ``minimal_codewords`` and the ``sss`` dual path read the verdict.

The sufficient (not necessary) weight-ratio test: a code is minimal whenever
w_min / w_max > (q-1)/q.  The comparison is exact, by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import DEFAULT_BUDGET, Codeword, LinearCode, WeightDistribution, \
    _check_budget, _class_coeffs, projective_blocks, weight_distribution
from .errors import BadParams, NotInCode
from .matrix import GFMatrix, _vector, column_ranks, in_span, rank

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


def _as_word(values_row, coeffs_row) -> Codeword:
    return Codeword(tuple(coeffs_row.tolist()), tuple(values_row.tolist()))


def _sorted_zeros(supp: np.ndarray) -> np.ndarray:
    """Each row's zero columns first, ascending, by sorting keys: the
    other coordinates land at n or past it, where ``column_ranks`` reads
    the zero column."""
    n = supp.shape[1]
    return np.sort(np.arange(n, dtype=np.int32) + supp * np.int32(n), axis=1)


def _first_zeros(supp: np.ndarray, width: int) -> np.ndarray:
    """Each row's first width zero columns, ascending, by width rounds of
    argmin on a copy of the support mask; a row with fewer zeros is padded
    with the zero column n."""
    supp = supp.copy()
    rows = np.arange(len(supp))
    out = np.empty((len(supp), width), dtype=np.int32)
    for r in range(width):
        j = supp.argmin(axis=1)
        out[:, r] = np.where(supp[rows, j], supp.shape[1], j)
        supp[rows, j] = True
    return out


def _first_cover(packed: np.ndarray, bad: np.ndarray, n: int):
    """(i, j): the first class i in canonical order whose support lies
    inside the support of a non-minimal class j != i, and the first such j.

    packed holds every class's support as packed bits; bad lists the
    non-minimal classes, ascending.  Covered rows go in blocks of 1, 2,
    4, ... up to _ROW_BLOCK, so a cover among the first classes is found
    without testing the rest; the non-minimal side goes _ROW_BLOCK at a
    time.
    """
    def block(rows):
        return np.unpackbits(rows, axis=1, count=n).astype(np.float32)

    start, size = 0, 1
    while start < len(packed):
        rows = block(packed[start:start + size])
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
        start, size = start + size, min(2 * size, _ROW_BLOCK)
    raise AssertionError("a non-minimal class covers another")  # unreachable


def _full_value_failure(u: np.ndarray, v: np.ndarray, q: int):
    """The report for the block's first class that misses a field value,
    or None when every class takes all q values."""
    ok = np.ones(len(v), dtype=bool)
    for val in range(q):
        ok &= (v == val).any(axis=1)
    if ok.all():
        return None
    i = int(np.nonzero(~ok)[0][0])
    word = _as_word(v[i], u[i])
    return FullValueReport(False, word, tuple(sorted(set(word.values))))


def _walk(code: LinearCode, budget: int) -> dict:
    """The code's memo, after the budget check; nothing else reads or
    writes it.  The first call walks the classes and keeps ``minimality``,
    ``minimal`` (the rank test's verdict, one bool per class in canonical
    order), ``full_value`` (scaling permutes the field values, so one word
    per class decides it) and ``strata``, a (k+1, n+1) array of class
    counts by coefficient weight s and codeword weight.

    Each block's slice (see the module docstring), padded with the zero
    column n, is gathered by width rounds of argmin when 2**width <= n,
    that is when those passes over each row are fewer than the log2(n)
    of a sort; otherwise by sorting every row's keys, zero columns first,
    and after argmin rounds only the rows ranked again are sorted."""
    _check_budget(code, budget)
    memo = code._memo
    if memo:
        return memo
    n, k = code.n, code.k
    rank = column_ranks(code.field, code.gen.data)
    supports, masks = [], []
    strata = np.zeros((k + 1) * (n + 1), dtype=np.int64)
    full_value = FullValueReport(True, None, None)
    for u, v in projective_blocks(code, budget):
        supp = v != 0
        w = supp.sum(axis=1)
        zeros = n - w
        width = max(1, min(k - 1 + _SLICE, int(zeros.max())))
        by_sort = 2**width > n
        idx = _sorted_zeros(supp) if by_sort else _first_zeros(supp, width)
        ok = rank(idx[:, :width]) == k - 1
        again = ~ok & (zeros > width)
        if again.any():
            rest = idx[again] if by_sort else _sorted_zeros(supp[again])
            ok[again] = rank(rest[:, :zeros[again].max()]) == k - 1
        masks.append(ok)
        supports.append(np.packbits(supp, axis=1))
        s = np.count_nonzero(u, axis=1)
        strata += np.bincount(s * (n + 1) + w, minlength=strata.size)
        if full_value.holds:
            full_value = _full_value_failure(u, v, code.q) or full_value
    minimal = np.concatenate(masks)
    classes = len(minimal)
    if minimal.all():
        report = MinimalityReport(True, None, classes, classes * (classes - 1))
    else:
        i, j = _first_cover(np.vstack(supports), np.nonzero(~minimal)[0], n)
        u = _class_coeffs(code.q, k, np.array([i, j]))
        v = code.field.matmul(u, code.gen.data)
        stop = min(i - i % _ROW_BLOCK + _ROW_BLOCK, classes)
        report = MinimalityReport(
            is_minimal=False,
            witness=(_as_word(v[0], u[0]), _as_word(v[1], u[1])),
            classes=classes,
            pairs_checked=stop * (classes - 1),
        )
    memo.update(minimality=report, minimal=minimal, full_value=full_value,
                strata=strata.reshape(k + 1, n + 1))
    return memo


def _minimal_rows(code: LinearCode, budget: int):
    """(coeffs, values) arrays of the minimal classes in canonical order:
    the walk's mask decoded by ``_class_coeffs``, times G in one matmul."""
    u = _class_coeffs(code.q, code.k,
                      np.flatnonzero(_walk(code, budget)["minimal"]))
    return u, code.field.matmul(u, code.gen.data)


def is_minimal_code(code: LinearCode,
                    budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Exhaustively decide minimality of the whole code.

    Decides every scalar class by the rank of its zero columns; a
    non-minimal code then gets its canonical witness from a scan of the
    classes against the non-minimal ones.
    """
    return _walk(code, budget)["minimality"]


def weight_strata(code: LinearCode,
                  budget: int = DEFAULT_BUDGET) -> dict[int, dict[int, int]]:
    """Codeword counts by weight for each coefficient weight s = 0..k:
    {s: {weight: count}} over the words that combine exactly s generator
    rows, so s = 0 holds only the zero word, {0: 1}."""
    strata = _walk(code, budget)["strata"] * (code.q - 1)
    strata[0, 0] = 1  # the zero word
    return {s: {int(w): int(c) for w, c in enumerate(row) if c}
            for s, row in enumerate(strata)}


def minimal_codewords(code: LinearCode,
                      budget: int = DEFAULT_BUDGET) -> list[Codeword]:
    """All minimal codewords, one representative per scalar class.

    Representatives are normalized to first nonzero coefficient 1 and listed
    in canonical coefficient order; the complete set of minimal codewords is
    exactly their nonzero scalar multiples.
    """
    u, v = _minimal_rows(code, budget)
    return [Codeword(tuple(c), tuple(x))
            for c, x in zip(u.tolist(), v.tolist())]


def is_minimal_codeword(code: LinearCode, word) -> bool:
    """Decide minimality of one codeword (a Codeword or a value vector):
    the columns of G where it vanishes must have rank k-1."""
    values = _vector(code.field,
                     word.values if isinstance(word, Codeword) else word,
                     code.n)
    if not values.any():
        raise BadParams("the zero codeword is excluded from minimality")
    if in_span(code.field, values, code.gen.data) is None:
        raise NotInCode(f"vector is not a codeword of {code}")
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
    return _walk(code, budget)["full_value"]
