"""Linear algebra over GF(q): rref, spans, nullspaces, Kronecker, text I/O."""

import os

import numpy as np
import pytest

from mincodes import (
    BadParams,
    DimensionMismatch,
    FieldMismatch,
    NotPrimePower,
    build_field,
)
from mincodes.matrix import (
    GFMatrix,
    _read_text,
    _rref_array,
    dumps_matrix,
    in_span,
    kronecker,
    loads_matrix,
    nullspace,
    rank,
    rref,
    write_matrix,
)


def gfm(q, rows):
    return GFMatrix(build_field(q), rows)


def test_equal_matrices_hash_equal():
    f = build_field(3)
    a = GFMatrix(f, [[1, 2], [0, 1]])
    b = GFMatrix(f, np.array([[1, 2], [0, 1]], dtype=np.int8))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, GFMatrix(f, [[1, 2, 0, 1]])}) == 2
    assert repr(a) == "GFMatrix(q=3, 2x2)"


def test_identity_rref_fixed_point():
    m = gfm(3, np.eye(3, dtype=np.int64))
    red, rk = rref(m)
    assert rk == 3
    assert red == m


def test_rref_gf2_hand_case():
    m = gfm(2, [[1, 1, 1], [0, 1, 1]])
    red, rk = rref(m)
    assert rk == 2
    assert red.data.tolist() == [[1, 0, 0], [0, 1, 1]]


def test_rref_scales_pivots_to_one():
    m = gfm(5, [[2, 1], [4, 2]])
    red, rk = rref(m)
    assert rk == 1
    assert red.data.tolist() == [[1, 3], [0, 0]]  # 2^-1 = 3 mod 5


def test_rref_rank_matches_row_space_size():
    # rank r  <=>  row space has q^r distinct vectors
    f = build_field(3)
    m = gfm(3, [[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 1, 1]])
    _, rk = rref(m)
    words = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                u = np.array([[a, b, c]])
                words.add(tuple(f.matmul(u, m.data)[0].tolist()))
    assert len(words) == 3**rk


def test_in_span_hand_case():
    f = build_field(2)
    x = in_span(f, [1, 0], [[1, 1], [0, 1]])
    assert x.tolist() == [1, 1]  # (1,1)+(0,1) = (1,0)


def test_in_span_absent():
    f = build_field(2)
    assert in_span(f, [1, 0, 0], [[1, 1, 0], [0, 0, 1]]) is None


def test_in_span_returns_zero_free_solution():
    f = build_field(3)
    vecs = [[1, 0], [2, 0], [0, 1]]  # first two are dependent
    x = in_span(f, [2, 2], vecs)
    assert x.tolist() == [2, 0, 2]
    # and the coefficients really reproduce the target
    acc = np.zeros(2, dtype=int)
    for c, v in zip(x, vecs):
        acc = f.add_table[acc, f.mul_table[c, np.array(v)]]
    assert acc.tolist() == [2, 2]


def test_in_span_empty_family():
    f = build_field(3)
    assert in_span(f, [0, 0], []).tolist() == []
    assert in_span(f, [1, 0], []) is None


def test_in_span_rejects_a_ragged_target():
    with pytest.raises(DimensionMismatch, match="ragged"):
        in_span(build_field(2), [[1, 0], [1]], [[1, 0], [0, 1]])


def test_in_span_rejects_a_target_outside_the_field():
    f = build_field(3)
    with pytest.raises(BadParams, match=r"entries outside \[0, 3\)"):
        in_span(f, [7] * 9, [[1] * 9, [0, 1] * 4 + [0]])


@pytest.mark.parametrize("vectors, error", [
    ([[1.5, 0]], BadParams),
    ([[1, 0], [3, 0]], BadParams),
    ([[1, 0, 0]], DimensionMismatch),
    ([[1, 0], [1]], DimensionMismatch),
    (3, BadParams),
    (None, BadParams),
], ids=["float", "outside", "length", "ragged", "int", "none"])
def test_in_span_checks_each_vector(vectors, error):
    with pytest.raises(error):
        in_span(build_field(3), [1, 0], vectors)


def test_nullspace_hand_case():
    m = gfm(2, [[1, 1, 1]])
    ns = nullspace(m)
    assert ns.data.tolist() == [[1, 1, 0], [1, 0, 1]]


def test_nullspace_orthogonality_and_rank():
    for q in [2, 3, 4, 5]:
        f = build_field(q)
        rng = np.random.default_rng(q)
        m = GFMatrix(f, rng.integers(0, q, size=(3, 7)))
        ns = nullspace(m)
        _, rk = rref(m)
        assert ns.rows == 7 - rk
        prod = f.matmul(m.data, ns.data.T)
        assert not prod.any()
        _, ns_rank = rref(ns)
        assert ns_rank == ns.rows


def loop_nullspace(m):
    """The back-substitution basis one entry at a time, as an oracle."""
    red, pivots = _rref_array(m.field, m.data)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    for i, fcol in enumerate(free):
        basis[i, fcol] = 1
        for rrow, pcol in enumerate(pivots):
            basis[i, pcol] = m.field.neg_table[red[rrow, fcol]]
    return basis


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_nullspace_matches_the_entrywise_basis(q):
    rng = np.random.default_rng(q)
    shapes = [(1, 1), (1, 6), (3, 7), (4, 4), (5, 3), (6, 9)]
    for rows, cols in shapes:
        for sparse in (False, True):
            data = rng.integers(0, q, size=(rows, cols))
            if sparse:  # repeated and zero columns leave more free columns
                data[:, ::2] = 0
            m = gfm(q, data)
            assert nullspace(m).data.tolist() == loop_nullspace(m).tolist()


def test_nullspace_full_rank_empty():
    ns = nullspace(gfm(3, np.eye(2, dtype=np.int64)))
    assert ns.rows == 0 and ns.cols == 2


def test_kronecker_hand_case_gf3():
    a = gfm(3, [[1, 1], [0, 1]])
    b = gfm(3, [[1, 2]])
    k = kronecker(a, b)
    assert k.data.tolist() == [[1, 2, 1, 2], [0, 0, 1, 2]]


def test_kronecker_extension_field_uses_field_mul():
    f = build_field(4)
    a = GFMatrix(f, [[2]])
    b = GFMatrix(f, [[2, 3]])
    k = kronecker(a, b)
    assert k.data.tolist() == [[3, 1]]  # 2*2=3, 2*3=1 in GF(4)


def test_kronecker_field_mismatch():
    with pytest.raises(FieldMismatch):
        kronecker(gfm(2, [[1]]), gfm(3, [[1]]))


def test_matrix_validation():
    with pytest.raises(BadParams):
        gfm(3, [[0, 3]])
    with pytest.raises(DimensionMismatch):
        gfm(3, [1, 2])
    with pytest.raises(DimensionMismatch, match="ragged"):
        gfm(2, [[1, 0], [1]])


@pytest.mark.parametrize("q, rows", [
    (2, [[0.5, 1]]),
    (3, [[2.9, 0]]),
    (3, [[-0.5, 0]]),
    (3, [["1", "0"]]),
    (3, [[float("nan"), 0]]),
    (3, [[2**70, 0]]),
], ids=["half", "truncated", "negative-half", "str", "nan", "huge"])
def test_matrix_rejects_non_integer_entries(q, rows):
    with pytest.raises(BadParams, match="entries must be integers"):
        gfm(q, rows)


def test_matrix_immutable():
    m = gfm(3, [[1, 2]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 0


@pytest.mark.parametrize("path", [3.5, None, b"m.txt"],
                         ids=["float", "none", "bytes"])
def test_matrix_files_take_only_str_or_pathlike(path):
    with pytest.raises(BadParams, match="str or os.PathLike"):
        write_matrix(gfm(2, [[1]]), path)
    with pytest.raises(BadParams, match="str or os.PathLike"):
        _read_text(path)


def test_an_int_path_is_not_taken_as_a_file_descriptor(tmp_path):
    # the fd of a file opened here, never one of 0-2 or True: open() would
    # write to it and close it
    with open(tmp_path / "held.txt", "w") as held:
        fd = held.fileno()
        with pytest.raises(BadParams, match="str or os.PathLike"):
            write_matrix(gfm(2, [[1]]), fd)
        with pytest.raises(BadParams, match="str or os.PathLike"):
            _read_text(fd)
        os.fstat(fd)  # still open
    assert (tmp_path / "held.txt").read_text() == ""


def test_text_roundtrip(tmp_path):
    m = gfm(4, [[0, 1, 2], [3, 2, 1]])
    path = tmp_path / "m.txt"
    write_matrix(m, path, comment="demo matrix")
    text = path.read_text()
    assert loads_matrix(text) == m
    assert text.startswith("# demo matrix\n4 2 3\n")


def test_text_whitespace_and_comment_tolerance():
    m = loads_matrix("# c\n 3   2 2 \n1 2\n\n0 # trailing\n1\n")
    assert m.field.q == 3
    assert m.data.tolist() == [[1, 2], [0, 1]]


def test_text_errors():
    with pytest.raises(BadParams):
        loads_matrix("3 2 2\n1 2 0\n")  # wrong entry count
    with pytest.raises(BadParams):
        loads_matrix("3 2 2\n1 2 0 x\n")
    with pytest.raises(BadParams):
        loads_matrix("3 1 1\n7\n")  # entry out of range
    with pytest.raises(NotPrimePower):
        loads_matrix("6 1 1\n1\n")
    with pytest.raises(BadParams):
        loads_matrix("")
    with pytest.raises(BadParams, match="bad shape 0x2"):
        loads_matrix("3 0 2\n")
    for text in (3, None, b"3 1 1\n1\n"):
        with pytest.raises(BadParams, match="matrix text must be a str"):
            loads_matrix(text)
    for comment in (3, b"c", ["c"]):
        with pytest.raises(BadParams, match="comment must be a str or None"):
            dumps_matrix(gfm(2, [[1]]), comment=comment)


def test_a_refused_write_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(gfm(3, [[1, 2]]), path, comment="kept")
    before = path.read_bytes()
    for comment, match in ((3, "comment must be a str or None"),
                           ("\u00e9", "matrix files are ASCII")):
        with pytest.raises(BadParams, match=match):
            write_matrix(gfm(3, [[2, 1]]), path, comment=comment)
        assert path.read_bytes() == before


def test_dumps_deterministic():
    m = gfm(3, [[1, 2], [0, 1]])
    assert dumps_matrix(m) == dumps_matrix(m) == "3 2 2\n1 2\n0 1\n"
