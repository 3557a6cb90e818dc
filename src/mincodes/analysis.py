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
sets").  Two counting facts decide many classes before any rank:

* a class with fewer than k-1 zero columns is not minimal, since those
  columns cannot span a space of dimension k-1;
* a class c with (q-1)*wt(c) < q*w_min is minimal, the per-class form of
  Ashikhmin and Barg ("Minimal vectors in linear codes", IEEE Trans. IT
  1998): if Supp(c') subseteq Supp(c) with c' not a multiple of c, the
  q-1 words c - lam*c' (lam != 0) are nonzero and their weights sum to
  (q-1)*wt(c) - wt(c'), so (q-1)*wt(c) >= (q-1)*w_min + wt(c') >= q*w_min.

The ranks of the other classes come from the batched GF(p) kernel
``matrix.column_ranks``, one block of classes at a time, so memory is
linear: one block of zero columns, plus one byte of verdict per class.
Each block is ranked first on a slice, the first k-1+_SLICE zero columns
of every class.  Any set of a class's zero columns has rank at most k-1,
so rank k-1 on the slice proves the class minimal, and a class whose zero
set fits in the slice is decided exactly.  Only the remaining classes, of
rank below k-1 on the slice and with more zero columns than it, are
ranked again on all of them.

Every whole-code fact comes from that pass, run only by ``_walk`` (in
one walk of the classes, bar the case its docstring names), which also
counts the words by coefficient and codeword weight and finds the first
class that misses a field value; only the words a report shows are
decoded from class indices (``_class_rows``).  The generator is
read-only, so the results, each class's verdict among them, are kept in
the code's memo and read by every whole-code check after its budget
check; ``minimal_codewords`` and the ``sss`` dual path read the verdict.

A non-minimal code's witness is found when ``is_minimal_code`` is first
asked, and kept: classes in canonical order, in blocks of 1, 2, 4, ... up
to _ROW_BLOCK, are tested against the non-minimal ones (a class that
covers another is one) up to the first block with a covered class.  Each
block's words are decoded from class indices (``_class_rows``), and the
test is a float32 GEMM, exact because every term is nonnegative.  Each
decode first spends the rows decoded so far against the budget.

The sufficient (not necessary) weight-ratio test: a code is minimal whenever
w_min / w_max > (q-1)/q, the second counting fact for every class at once.
The comparison is exact, by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes
from .codes import DEFAULT_BUDGET, Codeword, LinearCode, _class_coeffs, \
    min_max_weight, projective_blocks
from .errors import BadParams, NotInCode, _spend
from .matrix import GFMatrix, _vector, column_ranks, in_span, rank

_ROW_BLOCK = 1024
_SLICE = 2  # zero columns past k-1 in the first rank call; by measurement


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the exhaustive minimality check.

    is_minimal comes from the walk's verdict on every scalar class: the
    two counting facts of the module docstring where they decide it (fewer
    than k-1 zeros: not minimal; (q-1)*wt < q*w_min: minimal), the rank
    of its zero columns otherwise.  witness,
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


def _class_rows(code: LinearCode, index: np.ndarray):
    """(coeffs, values) of the classes at an integer array of canonical
    indices: ``_class_coeffs``, then one matmul with G."""
    u = _class_coeffs(code.q, code.k, index)
    return u, code.field.matmul(u, code.gen.data)


def _words(code: LinearCode, index: np.ndarray) -> list[Codeword]:
    """The codewords of the classes at an integer array of indices."""
    u, v = _class_rows(code, index)
    return [Codeword(tuple(c), tuple(x))
            for c, x in zip(u.tolist(), v.tolist())]


def _first_cover(code: LinearCode, bad: np.ndarray, classes: int,
                 budget: int):
    """(i, j): the first class i in canonical order whose support lies
    inside the support of a non-minimal class j != i, and the first such j.

    The supports are decoded from class indices as float32 0/1 blocks;
    bad lists the non-minimal classes, ascending.  Covered rows go in
    blocks of 1, 2, 4, ... up to _ROW_BLOCK, so a cover among the first
    classes is found without testing the rest, and the non-minimal side
    _ROW_BLOCK at a time.  Every decode first spends the rows decoded so
    far, its own included, as "witness rows" against budget."""
    decoded = 0

    def rows(index):
        nonlocal decoded
        decoded += len(index)
        _spend(decoded, budget, "witness rows")
        return (_class_rows(code, index)[1] != 0).astype(np.float32)

    start, size = 0, 1
    while start < classes:
        block = rows(np.arange(start, min(start + size, classes)))
        first = None
        for cstart in range(0, len(bad), _ROW_BLOCK):
            cols = bad[cstart:cstart + _ROW_BLOCK]
            # coords nonzero in the row but zero in the column, as a float32
            # GEMM of 0/1 terms: a float sum of nonnegative terms is 0
            # exactly when every term is, at any n and in any order
            covered = (block @ (1 - rows(cols)).T) == 0
            own = (cols >= start) & (cols < start + len(block))
            covered[cols[own] - start, np.nonzero(own)[0]] = False
            hits = np.argwhere(covered)
            if hits.size and (first is None or hits[0, 0] < first[0]):
                first = (int(hits[0, 0]), int(cols[hits[0, 1]]))
        if first is not None:
            return start + first[0], first[1]
        start, size = start + size, min(2 * size, _ROW_BLOCK)
    raise AssertionError("a non-minimal class covers another")  # unreachable


def _walk(code: LinearCode, budget: int) -> dict:
    """The code's memo, after the budget check.  The first call walks the
    classes and keeps ``minimal`` (the verdict, by counting or by rank, one
    bool per class in canonical order), ``full_value`` (the index of the
    first class that misses a field value, or None: a class takes 0 iff its
    weight is below n) and ``strata``, a (k+1, n+1) array of word counts
    (the zero word included) by coefficient weight s and codeword weight;
    ``is_minimal_code`` adds ``minimality`` when it is first asked.

    Counting decides a block's classes first (see the module docstring):
    fewer than k-1 zeros, not minimal; (q-1)*wt < q*M, minimal, where M is
    the least class weight walked so far, this block included.  Only the
    rest go to the rank kernel, gathered as a subset.  M never falls below
    w_min, so only a block whose M exceeds the final w_min can hold a
    class taken as minimal that w_min does not prove: a second walk, up to
    the last such block, ranks its classes with q*w_min <= (q-1)*wt < q*M.

    Each block's slice (see the module docstring), padded with the zero
    column n, is gathered by width rounds of argmin when 2**width <= n,
    that is when those passes over each row are fewer than the log2(n)
    of a sort; otherwise by sorting every row's keys, zero columns first,
    and after argmin rounds only the rows ranked again are sorted."""
    _spend(code.size, budget, "words")
    memo = code._memo
    if memo:
        return memo
    n, k, q = code.n, code.k, code.q
    rank = column_ranks(code.field, code.gen.data)

    def ranked(supp, zeros):
        width = max(1, min(k - 1 + _SLICE, int(zeros.max())))
        by_sort = 2**width > n
        idx = _sorted_zeros(supp) if by_sort else _first_zeros(supp, width)
        ok = rank(idx[:, :width]) == k - 1
        again = ~ok & (zeros > width)
        if again.any():
            rest = idx[again] if by_sort else _sorted_zeros(supp[again])
            ok[again] = rank(rest[:, :zeros[again].max()]) == k - 1
        return ok

    masks, least, m = [], [], n
    strata = np.zeros((k + 1) * (n + 1), dtype=np.int64)
    missing = None
    for s, v in projective_blocks(code, budget):
        supp = v != 0
        w = supp.sum(axis=1)
        zeros = n - w
        m = min(m, int(w.min()))
        least.append(m)
        ok = (q - 1) * w < q * m
        todo = ~ok & (zeros >= k - 1)
        if todo.any():
            ok[todo] = ranked(supp[todo], zeros[todo])
        strata += np.bincount(s * (n + 1) + w, minlength=strata.size)
        if missing is None:
            full = zeros > 0
            for value in range(1, q):
                full &= (v == value).any(axis=1)
            if not full.all():
                missing = sum(map(len, masks)) + int(full.argmin())
        masks.append(ok)
    # the blocks whose running minimum exceeds w_min = m, a prefix, rank on
    # a second walk the classes they took as light that m does not prove
    stale = sum(bound > m for bound in least)
    if stale:
        for b, (_, v) in zip(range(stale), projective_blocks(code, budget)):
            supp = v != 0
            w = supp.sum(axis=1)
            redo = (q * m <= (q - 1) * w) & ((q - 1) * w < q * least[b])
            if redo.any():
                masks[b][redo] = ranked(supp[redo], n - w[redo])
    strata *= q - 1  # a class stands for its q-1 words
    strata[0] = 1  # the zero word, at s = 0 and weight 0
    memo.update(minimal=np.concatenate(masks), full_value=missing,
                strata=strata.reshape(k + 1, n + 1))
    return memo


def _minimal_rows(code: LinearCode, budget: int, column: int):
    """The values of the minimal classes that are nonzero at the 0-based
    column, in canonical order, in blocks of at most max(1,
    ``codes._ENTRIES`` // n) classes, the walk's entry bound, so a caller
    can reduce each block before the next is decoded.  Each block's
    coefficients give the column by one (rows x 1) matmul, and only the
    rows nonzero there are decoded at full width."""
    index = np.flatnonzero(_walk(code, budget)["minimal"])
    step = max(1, codes._ENTRIES // code.n)
    gen = code.gen.data
    for start in range(0, len(index), step):
        u = _class_coeffs(code.q, code.k, index[start:start + step])
        hit = code.field.matmul(u, gen[:, column:column + 1])[:, 0] != 0
        yield code.field.matmul(u[hit], gen)


def is_minimal_code(code: LinearCode,
                    budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Exhaustively decide minimality of the whole code.

    Decides every scalar class by the rank of its zero columns; a
    non-minimal code's canonical witness comes from a scan of the classes
    against the non-minimal ones, run on the first request and kept.
    """
    memo = _walk(code, budget)
    if "minimality" in memo:
        return memo["minimality"]
    minimal = memo["minimal"]
    classes = stop = len(minimal)
    witness = None
    if not minimal.all():
        i, j = _first_cover(code, np.flatnonzero(~minimal), classes, budget)
        witness = tuple(_words(code, np.array([i, j])))
        stop = min(i - i % _ROW_BLOCK + _ROW_BLOCK, classes)
    memo["minimality"] = MinimalityReport(witness is None, witness, classes,
                                          stop * (classes - 1))
    return memo["minimality"]


def weight_strata(code: LinearCode,
                  budget: int = DEFAULT_BUDGET) -> dict[int, dict[int, int]]:
    """Codeword counts by weight for each coefficient weight s = 0..k:
    {s: {weight: count}} over the words that combine exactly s generator
    rows, as the walk keeps them; s = 0 holds only the zero word, {0: 1}."""
    return {s: {int(w): int(c) for w, c in enumerate(row) if c}
            for s, row in enumerate(_walk(code, budget)["strata"])}


def minimal_codewords(code: LinearCode,
                      budget: int = DEFAULT_BUDGET) -> list[Codeword]:
    """All minimal codewords, one representative per scalar class.

    Representatives are normalized to first nonzero coefficient 1 and listed
    in canonical coefficient order; the complete set of minimal codewords is
    exactly their nonzero scalar multiples.
    """
    return _words(code, np.flatnonzero(_walk(code, budget)["minimal"]))


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


def ab_condition(code: LinearCode, budget: int = DEFAULT_BUDGET) -> AbReport:
    """Exact Ashikhmin-Barg style check: sufficient iff q*w_min > (q-1)*w_max,
    on the weights of the kept walk."""
    w_min, w_max = min_max_weight(code, budget)
    q = code.q
    return AbReport(q, w_min, w_max, Fraction(w_min, w_max),
                    Fraction(q - 1, q), q * w_min > (q - 1) * w_max)


def has_full_value_property(code: LinearCode,
                            budget: int = DEFAULT_BUDGET) -> FullValueReport:
    """Check that every nonzero codeword realizes all q field values (one
    word per class decides it, since scaling permutes the values)."""
    missing = _walk(code, budget)["full_value"]
    if missing is None:
        return FullValueReport(True, None, None)
    word, = _words(code, np.array([missing]))
    return FullValueReport(False, word, tuple(sorted(set(word.values))))
