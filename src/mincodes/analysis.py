"""Verification of minimality and related codeword properties.

A nonzero codeword c is minimal when every codeword whose support is
contained in Supp(c) is a scalar multiple of c; a code is minimal when all
its nonzero codewords are.  Support containment is invariant under scaling,
so all checks run on one representative per scalar class (the codeword whose
first nonzero coefficient is 1), which cuts the pairwise work by (q-1)^2
without changing any verdict.  The pairwise cover scan runs as a float32
GEMM (BLAS sgemm); its zero test is exact because every term is
nonnegative.

The sufficient (not necessary) weight-ratio test: a code is minimal whenever
w_min / w_max > (q-1)/q.  The comparison is exact, by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import DEFAULT_BUDGET, Codeword, LinearCode, projective_blocks, \
    weight_distribution
from .errors import BadParams, DimensionMismatch, NotInCode
from .matrix import in_span

_ROW_BLOCK = 1024


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the exhaustive pairwise minimality check.

    witness, present iff is_minimal is false, is a pair (covered, covering)
    of non-proportional codewords with Supp(covered) subseteq Supp(covering);
    it is the first violation in canonical scan order.
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


def _projective_arrays(code: LinearCode, budget: int):
    coeffs, values = [], []
    for u, v in projective_blocks(code, budget):
        coeffs.append(u)
        values.append(v)
    return np.vstack(coeffs), np.vstack(values)


def _as_word(values_row, coeffs_row) -> Codeword:
    return Codeword(
        tuple(int(c) for c in coeffs_row),
        tuple(int(v) for v in values_row),
    )


def _covered_blocks(supp: np.ndarray):
    """Yield (start, covered) per _ROW_BLOCK classes, where covered[i, j]
    is true when Supp(start+i) lies inside Supp(j) for j != start+i."""
    rows = supp.astype(np.float32)
    comp = (~supp).astype(np.float32)
    classes = len(supp)
    for start in range(0, classes, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, classes)
        # counts coords nonzero in start+i but zero in j, as a float32 GEMM;
        # every term is 0 or 1, and a float sum of nonnegative terms is 0
        # exactly when every term is 0, so the zero test is exact at any n
        # and in any summation order.  The product dies here, so only the
        # boolean mask is held across the yield.
        covered = (rows[start:stop] @ comp.T) == 0
        iota = np.arange(start, stop)
        covered[iota - start, iota] = False  # ignore self-containment
        yield start, covered


def is_minimal_code(code: LinearCode,
                    budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Exhaustively decide minimality of the whole code.

    Checks support containment over all ordered pairs of distinct scalar
    classes; equivalent to the definition over all nonzero codewords.
    """
    u, v = _projective_arrays(code, budget)
    classes = len(v)
    pairs = 0
    for start, covered in _covered_blocks(v != 0):
        pairs += len(covered) * (classes - 1)
        hits = np.argwhere(covered)
        if hits.size:
            i, j = (int(x) for x in hits[0])
            i += start
            return MinimalityReport(
                is_minimal=False,
                witness=(_as_word(v[i], u[i]), _as_word(v[j], u[j])),
                classes=classes,
                pairs_checked=pairs,
            )
    return MinimalityReport(True, None, classes, pairs)


def minimal_codewords(code: LinearCode,
                      budget: int = DEFAULT_BUDGET) -> list[Codeword]:
    """All minimal codewords, one representative per scalar class.

    Representatives are normalized to first nonzero coefficient 1 and listed
    in canonical coefficient order; the complete set of minimal codewords is
    exactly their nonzero scalar multiples (see scalar_class).
    """
    u, v = _projective_arrays(code, budget)
    minimal = np.ones(len(v), dtype=bool)
    for _, covered in _covered_blocks(v != 0):
        # class j is not minimal when another class's support sits inside it
        minimal &= ~covered.any(axis=0)
    return [_as_word(v[j], u[j]) for j in np.nonzero(minimal)[0]]


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


def is_minimal_codeword(code: LinearCode, word,
                        budget: int = DEFAULT_BUDGET) -> bool:
    """Decide minimality of one codeword (a Codeword or a value vector)."""
    values = np.asarray(
        word.values if isinstance(word, Codeword) else word, dtype=np.int64
    )
    if values.shape != (code.n,):
        raise DimensionMismatch(f"expected a length-{code.n} vector")
    if not values.any():
        raise BadParams("the zero codeword is excluded from minimality")
    coeffs = _coeffs_for(code, values)
    f = code.field
    lead = int(coeffs[np.nonzero(coeffs)[0][0]])
    norm_v = f.mul_table[int(f.inv_table[lead]), values]
    wsupp = values != 0
    for _, v in projective_blocks(code, budget):
        inside = ~((v != 0) & ~wsupp[None, :]).any(axis=1)
        same = (v == norm_v[None, :]).all(axis=1)
        if (inside & ~same).any():
            return False
    return True


def ab_condition(code: LinearCode, budget: int = DEFAULT_BUDGET) -> AbReport:
    """Exact Ashikhmin-Barg style check: sufficient iff q*w_min > (q-1)*w_max."""
    dist = weight_distribution(code, budget)
    w_min, w_max = dist.min_nonzero(), dist.max_weight()
    q = code.q
    return AbReport(
        q=q,
        w_min=w_min,
        w_max=w_max,
        ratio=Fraction(w_min, w_max),
        threshold=Fraction(q - 1, q),
        sufficient=q * w_min > (q - 1) * w_max,
    )


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

