"""Dense matrices over GF(q): echelon forms, spans, Kronecker products.

All entries are integer encodings (see :mod:`mincodes.field`).  Matrices are
immutable; operations return new objects.  Row reduction uses the first
nonzero entry in column order as the pivot, so every derived object
(rref, rank, nullspace basis, span coefficients) is deterministic.

Many column sets of one generator are ranked at once by ``column_ranks``,
the package's one batched elimination kernel.  It works over the prime
field GF(p): each column becomes its m multiples by x^0..x^(m-1), written
as k*m base-p digits, and the GF(p) rank of those is m times the GF(q)
rank.  In characteristic 2 with k*m <= 64 each multiple is packed into one
unsigned integer and eliminated by XOR; every other case, p = 2 past 64
digits included, is eliminated mod p in the smallest unsigned dtype that
holds (p-1)(1+k*m(p-1)), a bound on every unreduced entry.
"""

from __future__ import annotations

import functools
import io
import os

import numpy as np

from .errors import BadParams, DimensionMismatch, FieldMismatch, _list
from .field import GF, build_field


class GFMatrix:
    """An immutable rows x cols matrix of field-element encodings."""

    def __init__(self, field: GF, data):
        arr = _asarray(data)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got shape {arr.shape}")
        if arr.dtype.kind not in "biu":
            raise BadParams(f"entries must be integers, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise BadParams(f"entries outside [0, {field.q})")
        self.field = field
        self.data = arr.astype(field.add_table.dtype)
        self.data.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

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


def _asarray(data) -> np.ndarray:
    """np.asarray(data); ragged nested input is a DimensionMismatch."""
    try:
        return np.asarray(data)
    except ValueError as e:
        raise DimensionMismatch(f"ragged input: {e}") from None


def _vector(field: GF, values, length: int | None = None) -> np.ndarray:
    """values as a 1-D array of encodings, its entries checked as GFMatrix
    checks them; a shape other than (length,) is a DimensionMismatch."""
    arr = _asarray(values)
    if arr.ndim != 1 or (length is not None and len(arr) != length):
        want = "1-D" if length is None else f"of length {length}"
        raise DimensionMismatch(f"expected a vector {want}, got shape "
                                f"{arr.shape}")
    return GFMatrix(field, arr[None]).data[0]


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
    t = _vector(field, target)
    vecs = [_vector(field, v, len(t))
            for v in _list(vectors, "vectors", "vectors")]
    if not vecs:
        return np.zeros(0, dtype=np.int64) if not t.any() else None
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


def _prime_columns(field: GF, gen: np.ndarray) -> np.ndarray:
    """The columns of gen over the prime field, for the rank kernel.

    Entry (c, i, j) is base-p digit c of x^i times column j (x^i is encoded
    as p^i), over k*m digits; column n is the zero column that pads the
    gathers.
    """
    k, n = gen.shape
    p, m = field.p, field.m
    place = p ** np.arange(m)
    scaled = field.mul_table[place[:, None, None], gen]
    digits = scaled[..., None] // place % p
    out = np.zeros((k * m, m, n + 1), dtype=gen.dtype)
    out[..., :n] = digits.transpose(1, 3, 0, 2).reshape(k * m, m, n)
    return out


def _xor_rank(a: np.ndarray, bits: int) -> np.ndarray:
    """GF(2) rank of each column of a, a (V, M) stack of V bit-packed
    vectors per matrix, eliminated in place, top bit first.

    Once bit b is done no vector has a bit above b set, so at bit b the
    largest vector holds it if any does and serves as the pivot, and
    a >> b is 1 exactly on the vectors that hold it.
    """
    pivots = np.empty((bits, a.shape[1]), dtype=a.dtype)
    step = np.empty_like(a)
    for b in range(bits - 1, -1, -1):
        pivots[b] = pv = a.max(axis=0)
        if b:  # bit 0 is the last: nothing reads a after it
            np.right_shift(a, b, out=step)
            step *= pv
            a ^= step
    return (pivots >> np.arange(bits, dtype=a.dtype)[:, None]).sum(axis=0)


def _mod_rank(a: np.ndarray, scale: np.ndarray, p: int) -> np.ndarray:
    """GF(p) rank of each matrix of a (K, V, M) stack of V vectors of K
    digits per matrix, eliminated in place: at digit c every matrix takes a
    vector with a nonzero digit c as the pivot and clears digit c from all
    its vectors, the pivot included.

    scale[l, y] is -y/l, so adding a digit times the scaled pivot clears
    it.  Entries stay nonnegative and are reduced mod p only where they
    are read; a step adds at most (p-1)^2.
    """
    dims, _, matrices = a.shape
    batch = np.arange(matrices)
    leads = np.empty((dims, matrices), dtype=a.dtype)
    step = np.empty_like(a[1:])
    for c in range(dims):
        col = a[c] % p
        leads[c] = lead = col.max(axis=0)
        if c + 1 < dims:
            pivot = scale[lead, a[c + 1:, col.argmax(axis=0), batch] % p]
            a[c + 1:] += np.multiply(col, pivot[:, None, :], out=step[c:])
    return (leads != 0).sum(axis=0)


def column_ranks(field: GF, gen: np.ndarray):
    """rank(idx): the GF(q) rank of each row's set of columns of gen.

    idx is an (M, w) array of column indices, w >= 1.  An index n or above
    (gen has n columns) reads the zero column, so sets of different sizes,
    the empty set included, share one array padded with n.  All M sets are
    eliminated together over GF(p), as the module docstring describes.
    """
    p, m = field.p, field.m
    cols = _prime_columns(field, gen)
    dims = len(cols)
    if p == 2 and dims <= 64:
        dtype = np.min_scalar_type((1 << dims) - 1)
        place = 1 << np.arange(dims, dtype=dtype)
        cols = np.bitwise_or.reduce(cols * place[:, None, None], axis=0,
                                    dtype=dtype)
        kernel = functools.partial(_xor_rank, bits=dims)
    else:
        cols = cols.astype(np.min_scalar_type((p - 1) * (1 + dims * (p - 1))))
        gf = build_field(p)
        scale = gf.neg_table[gf.mul_table[gf.inv_table]].astype(cols.dtype)
        kernel = functools.partial(_mod_rank, scale=scale, p=p)

    def rank(idx) -> np.ndarray:
        a = np.take(cols, np.transpose(idx), axis=-1, mode="clip")
        return kernel(a.reshape(a.shape[:-3] + (-1, len(idx)))) // m

    return rank


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
    if not isinstance(comment, (str, type(None))):
        raise BadParams(f"a comment must be a str or None, got {comment!r}")
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
    if not isinstance(text, str):
        raise BadParams(f"matrix text must be a str, got {text!r}")
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if len(tokens) < 3:
        raise BadParams("matrix text needs a 'q rows cols' header")
    try:
        q, nrows, ncols = (int(t) for t in tokens[:3])
        entries = np.array([int(t) for t in tokens[3:]], dtype=np.int64)
    except ValueError as e:
        raise BadParams(f"matrix text has a non-integer token: {e}") from None
    except OverflowError:
        raise BadParams("matrix has an entry outside the 64-bit range") from None
    if nrows < 1 or ncols < 1:
        raise BadParams(f"bad shape {nrows}x{ncols}")
    if len(entries) != nrows * ncols:
        raise BadParams(
            f"expected {nrows * ncols} entries, found {len(entries)}"
        )
    # NotPrimePower and the field-order limit propagate
    return GFMatrix(build_field(q), entries.reshape(nrows, ncols))


def _path(path: str | os.PathLike) -> str | os.PathLike:
    """path, if a str or os.PathLike: open() takes an int or a bool as a
    file descriptor, which it would write to and close."""
    if isinstance(path, (str, os.PathLike)):
        return path
    raise BadParams(f"a file path must be a str or os.PathLike, got {path!r}")


def write_matrix(matrix: GFMatrix, path: str | os.PathLike,
                 comment: str | None = None) -> None:
    # the text is built and checked first: opening the file truncates it
    text = dumps_matrix(matrix, comment)
    if not text.isascii():
        raise BadParams(f"matrix files are ASCII; comment {comment!r} is not")
    with open(_path(path), "w", encoding="ascii") as fh:
        fh.write(text)


def _read_text(path: str | os.PathLike) -> str:
    """A matrix file's text; a file that is not ASCII is a BadParams."""
    try:
        with open(_path(path), "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise BadParams(f"matrix file {path} is not ASCII text: {e}") from None
