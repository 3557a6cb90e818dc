"""Dense matrices over GF(q): echelon forms, spans, Kronecker products.

All entries are integer encodings (see :mod:`mincodes.field`).  Matrices are
immutable; operations return new objects.  Row reduction uses the first
nonzero entry in column order as the pivot, so every derived object
(rref, rank, nullspace basis, span coefficients) is deterministic.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .errors import BadParams, DimensionMismatch, FieldMismatch
from .field import GF, build_field


class GFMatrix:
    """An immutable rows x cols matrix of field-element encodings."""

    def __init__(self, field: GF, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise BadParams(f"entries outside [0, {field.q})")
        self.field = field
        self.data = arr.astype(field.add_table.dtype)
        self.data.setflags(write=False)

    @classmethod
    def identity(cls, field: GF, n: int) -> "GFMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.data[i]

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        if self.field != other.field:
            raise FieldMismatch("cannot concatenate over different fields")
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        return GFMatrix(self.field, np.hstack([self.data, other.data]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFMatrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.field, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"GFMatrix(q={self.field.q}, {self.rows}x{self.cols})"


def _rref_array(field: GF, data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of data; return (rref, pivot column list)."""
    m = data.astype(np.int64).copy()
    add, mul, neg, inv = (
        field.add_table, field.mul_table, field.neg_table, field.inv_table,
    )
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = mul[m[r], int(inv[m[r, c]])]
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = neg[m[others, c]]
            m[others] = add[m[others], mul[factors[:, None], m[r][None, :]]]
        pivots.append(c)
        r += 1
    return m, pivots


def rref(matrix: GFMatrix) -> tuple[GFMatrix, int]:
    """Reduced row-echelon form and rank."""
    red, pivots = _rref_array(matrix.field, matrix.data)
    return GFMatrix(matrix.field, red), len(pivots)


def rank(matrix: GFMatrix) -> int:
    return rref(matrix)[1]


def in_span(field: GF, target, vectors) -> np.ndarray | None:
    """Solve target = sum_j x_j * vectors[j], or return None.

    vectors is an iterable of 1-D encoding vectors (iterating a 2-D array
    yields its rows, so ``M.data`` passes the rows of M).  The returned
    coefficient vector is the deterministic solution with every free
    variable set to zero.
    """
    vecs = [np.asarray(v, dtype=np.int64) for v in vectors]
    t = np.asarray(target, dtype=np.int64)
    if t.ndim != 1:
        raise DimensionMismatch(f"target must be 1-D, got shape {t.shape}")
    if not vecs:
        return np.zeros(0, dtype=np.int64) if not t.any() else None
    if any(v.shape != t.shape for v in vecs):
        raise DimensionMismatch("span vectors must match the target length")
    a = np.column_stack(vecs)
    aug = np.hstack([a, t[:, None]])
    red, pivots = _rref_array(field, aug)
    ncols = a.shape[1]
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, -1]
    return x


def in_span_batch(field: GF, stacks: np.ndarray) -> np.ndarray:
    """For each matrix of an (M, k, s+1) stack, whether its last column
    lies in the span of its first s columns.

    The same decision as ``in_span``, made for all M matrices at once by
    one elimination with the field tables: at each column every matrix
    picks its own pivot among its rows not yet used as a pivot and clears
    that column in its other unused rows.  The last column is in the span
    exactly when it is zero in every unused row at the end.
    """
    a = np.array(stacks, dtype=field.add_table.dtype)
    if a.ndim != 3:
        raise DimensionMismatch(f"expected (M, k, s+1) stacks, got {a.shape}")
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    batch = np.arange(a.shape[0])
    used = np.zeros(a.shape[:2], dtype=bool)
    for c in range(a.shape[2] - 1):
        if c >= a.shape[1] and used.all():
            break  # every matrix has rank k: each target is in the span
        cand = (a[:, :, c] != 0) & ~used
        p = cand.argmax(axis=1)
        found = cand[batch, p]
        used[batch[found], p[found]] = True
        # without a pivot, every unused row is zero at c: nothing changes
        row = mul[a[batch, p, c + 1:], inv[a[batch, p, c]][:, None]]
        factor = np.where(used, 0, a[:, :, c])
        a[:, :, c + 1:] = sub[a[:, :, c + 1:],
                              mul[factor[:, :, None], row[:, None, :]]]
    return ~((a[:, :, -1] != 0) & ~used).any(axis=1)


def nullspace(matrix: GFMatrix) -> GFMatrix:
    """Basis of the right nullspace, one vector per row.

    Rows are ordered by ascending free column of the rref, the standard
    back-substitution basis.  A full-column-rank matrix yields a 0 x cols
    result.
    """
    field = matrix.field
    red, pivots = _rref_array(field, matrix.data)
    free = [c for c in range(matrix.cols) if c not in pivots]
    basis = np.zeros((len(free), matrix.cols), dtype=np.int64)
    neg = field.neg_table
    for i, fcol in enumerate(free):
        basis[i, fcol] = 1
        for rrow, pcol in enumerate(pivots):
            basis[i, pcol] = neg[red[rrow, fcol]]
    return GFMatrix(field, basis)


def kronecker(a: GFMatrix, b: GFMatrix) -> GFMatrix:
    """Kronecker product: block (i,j) is a[i,j] * b."""
    if a.field != b.field:
        raise FieldMismatch("Kronecker factors over different fields")
    mul = a.field.mul_table
    prod = mul[
        a.data[:, None, :, None].astype(np.int64),
        b.data[None, :, None, :].astype(np.int64),
    ]
    out = prod.reshape(a.rows * b.rows, a.cols * b.cols)
    return GFMatrix(a.field, out)


# -- text format -------------------------------------------------------------
#
# Line comments start with '#'.  The first three tokens are q, rows, cols;
# the next rows*cols tokens are the entries in row-major order.  Any
# whitespace (including newlines) separates tokens.


def dumps_matrix(matrix: GFMatrix, comment: str | None = None) -> str:
    out = io.StringIO()
    if comment:
        for line in comment.splitlines():
            out.write(f"# {line}\n")
    out.write(f"{matrix.field.q} {matrix.rows} {matrix.cols}\n")
    for i in range(matrix.rows):
        out.write(" ".join(str(int(v)) for v in matrix.data[i]))
        out.write("\n")
    return out.getvalue()


def loads_matrix(text: str) -> GFMatrix:
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if len(tokens) < 3:
        raise BadParams("matrix text needs a 'q rows cols' header")
    try:
        q, nrows, ncols = (int(t) for t in tokens[:3])
        entries = [int(t) for t in tokens[3:]]
    except ValueError as e:
        raise BadParams(f"matrix text has a non-integer token: {e}") from None
    if nrows < 1 or ncols < 1:
        raise BadParams(f"bad shape {nrows}x{ncols}")
    if len(entries) != nrows * ncols:
        raise BadParams(
            f"expected {nrows * ncols} entries, found {len(entries)}"
        )
    field = build_field(q)  # NotPrimePower propagates
    arr = np.array(entries, dtype=np.int64).reshape(nrows, ncols)
    return GFMatrix(field, arr)


def write_matrix(matrix: GFMatrix, path: str | os.PathLike,
                 comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_matrix(matrix, comment))


def read_matrix(path: str | os.PathLike) -> GFMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return loads_matrix(fh.read())
