"""Minimality and value-coverage checks against a plain-python oracle."""

import contextlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from mincodes import analysis, cli, codes
from mincodes import BadParams, BudgetExceeded, DimensionMismatch, NotInCode, \
    build_field
from mincodes.analysis import (
    ab_condition,
    has_full_value_property,
    is_minimal_code,
    is_minimal_codeword,
    minimal_codewords,
    weight_strata,
)
from mincodes.codes import DEFAULT_BUDGET, Codeword, LinearCode, \
    min_max_weight, random_code, weight_distribution
from mincodes.constructions import first, second
from mincodes.matrix import GFMatrix, write_matrix


def make_code(q, rows):
    return LinearCode(GFMatrix(build_field(q), rows))


# -- oracle: direct definition over all nonzero codewords --------------------

def _all_nonzero_words(q, rows):
    f = build_field(q)
    k, n = len(rows), len(rows[0])
    words = []
    for u in itertools.product(range(q), repeat=k):
        w = [0] * n
        for ui, row in zip(u, rows):
            for j, g in enumerate(row):
                w[j] = int(f.add_table[w[j], f.mul_table[ui, g]])
        if any(w):
            words.append(tuple(w))
    return f, words


def _proportional(f, a, b):
    return any(
        all(f.mul_table[lam, x] == y for x, y in zip(a, b))
        for lam in range(1, f.q)
    )


def _supp_inside(a, b):
    return all(y != 0 for x, y in zip(a, b) if x != 0)


def oracle_minimal_words(q, rows):
    f, words = _all_nonzero_words(q, rows)
    out = set()
    for b in words:
        if not any(
            a != b and not _proportional(f, a, b) and _supp_inside(a, b)
            for a in words
        ):
            out.add(b)
    return set(words), out


CASES = [
    (2, [[1, 0, 1], [0, 1, 1]]),                      # simplex, minimal
    (2, [[1, 0], [0, 1]]),                            # full code, not minimal
    (2, [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
         [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]),  # Hamming, not minimal
    (2, [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]]),
    (3, [[1, 0, 1, 2], [0, 1, 1, 1]]),
    (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),           # full code, not minimal
    (4, [[1, 0, 2], [0, 1, 3]]),
    (5, [[1, 0, 1, 4], [0, 1, 2, 3]]),
]


@pytest.mark.parametrize("q,rows", CASES)
def test_is_minimal_code_matches_oracle(q, rows):
    code = make_code(q, rows)
    nz, minimal_set = oracle_minimal_words(q, rows)
    report = is_minimal_code(code)
    assert report.is_minimal == (minimal_set == nz)
    assert report.classes == (q ** len(rows) - 1) // (q - 1)
    if not report.is_minimal:
        covered, covering = report.witness
        assert _supp_inside(covered.values, covering.values)
        assert not _proportional(
            code.field, covered.values, covering.values
        )


@pytest.mark.parametrize("q,rows", CASES)
def test_minimal_codewords_match_oracle(q, rows):
    code = make_code(q, rows)
    _, minimal_set = oracle_minimal_words(q, rows)
    reps = minimal_codewords(code)
    expanded = set()
    for rep in reps:
        assert rep.coeffs[[i for i, c in enumerate(rep.coeffs) if c][0]] == 1
        for lam in range(1, q):
            multiple = code.field.mul_table[lam, list(rep.values)]
            expanded.add(tuple(multiple.tolist()))
    assert expanded == minimal_set


@pytest.mark.parametrize("q,rows", CASES)
def test_is_minimal_codeword_agrees(q, rows):
    code = make_code(q, rows)
    rep_values = {w.values for w in minimal_codewords(code)}
    from mincodes.analysis import projective_blocks
    for ublock, vblock in projective_blocks(code):
        for u, v in zip(ublock, vblock):
            word = Codeword(tuple(map(int, u)), tuple(map(int, v)))
            assert is_minimal_codeword(code, word) == (word.values in rep_values)


def test_minimal_code_returns_every_class():
    # in a minimal code, expanding all classes gives every nonzero codeword
    code = make_code(2, [[1, 0, 1], [0, 1, 1]])
    assert is_minimal_code(code).is_minimal
    reps = minimal_codewords(code)
    assert {r.values for r in reps} == {(1, 0, 1), (0, 1, 1), (1, 1, 0)}


def test_dual_of_simplex_single_class():
    code = make_code(2, [[1, 1, 1]])
    assert [w.values for w in minimal_codewords(code)] == [(1, 1, 1)]


def test_witness_is_deterministic():
    code = make_code(2, [[1, 0], [0, 1]])
    r1 = is_minimal_code(code)
    r2 = is_minimal_code(code)
    assert not r1.is_minimal
    assert r1.witness == r2.witness
    assert r1.pairs_checked == r2.pairs_checked


def test_not_in_code_and_bad_word():
    code = make_code(2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(NotInCode):
        is_minimal_codeword(code, [1, 0, 0])
    with pytest.raises(BadParams):
        is_minimal_codeword(code, [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        is_minimal_codeword(code, [1, 0])
    with pytest.raises(DimensionMismatch, match="ragged"):
        is_minimal_codeword(code, [[1, 0], [1]])


def test_is_minimal_codeword_rejects_a_float_word():
    code = first(3, 3)
    word = np.array(code.codeword([1, 0, 0]).values) + 0.7
    with pytest.raises(BadParams, match="entries must be integers"):
        is_minimal_codeword(code, word)


def test_is_minimal_codeword_rejects_an_entry_outside_the_field():
    code = first(3, 3)
    word = [5] + list(code.codeword([1, 0, 0]).values[1:])
    with pytest.raises(BadParams, match=r"entries outside \[0, 3\)"):
        is_minimal_codeword(code, word)


def test_ab_condition_exact():
    simplex = make_code(2, [[1, 0, 1], [0, 1, 1]])
    r = ab_condition(simplex)
    assert (r.w_min, r.w_max) == (2, 2)
    assert r.ratio == Fraction(1)
    assert r.threshold == Fraction(1, 2)
    assert r.sufficient

    hamming = make_code(2, CASES[2][1])
    r = ab_condition(hamming)
    assert (r.w_min, r.w_max) == (3, 7)
    assert r.ratio == Fraction(3, 7)
    assert not r.sufficient  # 2*3 = 6 < 7


@pytest.mark.parametrize("q,rows", CASES)
def test_ab_sufficient_implies_minimal(q, rows):
    code = make_code(q, rows)
    if ab_condition(code).sufficient:
        assert is_minimal_code(code).is_minimal


def test_full_value_property():
    # [2,1]_2 with generator (1,0): single nonzero word (1,0) has values {0,1}
    assert has_full_value_property(make_code(2, [[1, 0]])).holds
    # I_2 over GF(2): the word (1,1) misses the value 0
    r = has_full_value_property(make_code(2, [[1, 0], [0, 1]]))
    assert not r.holds
    assert r.witness.values == (1, 1)
    assert r.witness_values == (1,)
    # repetition code ⟨(1,1,1)⟩ misses 0 on its only nonzero word
    assert not has_full_value_property(make_code(2, [[1, 1, 1]])).holds


def test_full_value_property_gf3():
    # [3,1]_3 with generator (1,2,0): values {1,2,0} -> holds
    assert has_full_value_property(make_code(3, [[1, 2, 0]])).holds
    # [2,1]_3 with generator (1,2): word (1,2) misses 0; (2,1) misses 0 too
    r = has_full_value_property(make_code(3, [[1, 2]]))
    assert not r.holds


def test_budget_propagates():
    code = make_code(2, CASES[2][1])
    with pytest.raises(BudgetExceeded):
        is_minimal_code(code, budget=3)


@pytest.mark.parametrize("check, budget, error", [
    (is_minimal_code, "x", BadParams),
    (min_max_weight, None, BadParams),
    (weight_distribution, 2.5, BadParams),
    # a bool is an int to operator.index, as everywhere in the package, so
    # True is a budget of one word
    (has_full_value_property, True, BudgetExceeded),
])
def test_budget_is_checked_as_an_integer(check, budget, error):
    code = first(3, 3)
    for memoised in (False, True):
        if memoised:
            is_minimal_code(code)
        with mock.patch.object(codes, "_span", side_effect=AssertionError):
            with pytest.raises(error):
                check(code, budget=budget)


@contextlib.contextmanager
def counted_walks():
    """Count the calls of projective_blocks, wherever the whole-code
    checks bind it, and of column_ranks."""
    counts = Counter()

    def spy(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    with mock.patch.object(codes, "projective_blocks",
                           spy("walks", codes.projective_blocks)), \
            mock.patch.object(analysis, "projective_blocks",
                              spy("walks", analysis.projective_blocks)), \
            mock.patch.object(analysis, "column_ranks",
                              spy("column_ranks", analysis.column_ranks)):
        yield counts


@pytest.mark.parametrize("build", [lambda: first(3, 3),
                                   lambda: second(4, 3, 2)],
                         ids=["first(3,3)", "second(4,3,2)"])
def test_analyze_walks_the_classes_once(build, tmp_path, capsys):
    path = tmp_path / "code.txt"
    write_matrix(build().gen, path)
    for extra in ([], ["--json"]):
        with counted_walks() as counts:
            cli.main(["analyze", "--in", str(path)] + extra)
        assert counts == {"walks": 1, "column_ranks": 1}
    capsys.readouterr()


def test_memoised_checks_walk_nothing():
    code = second(4, 3, 2)
    report = is_minimal_code(code)
    with counted_walks() as counts:
        assert is_minimal_code(code) is report
        weight_distribution(code)
        weight_strata(code)
        has_full_value_property(code)
        ab_condition(code)
        min_max_weight(code)
        minimal_codewords(code)
    assert counts == {}
    with pytest.raises(BudgetExceeded):
        is_minimal_code(code, budget=code.size - 1)


WHOLE_CODE_CALLS = (is_minimal_code, weight_strata, weight_distribution,
                    has_full_value_property, min_max_weight, ab_condition,
                    minimal_codewords)


@pytest.mark.parametrize("first_call", WHOLE_CODE_CALLS,
                         ids=lambda f: f.__name__)
def test_any_first_call_walks_the_classes_once(first_call):
    # whichever whole-code call comes first, it pays the one rank pass and
    # the other six read its results
    code = second(4, 3, 2)
    rest = [f for f in WHOLE_CODE_CALLS if f is not first_call]
    with counted_walks() as counts:
        for check in [first_call] + rest[::-1] + rest:
            check(code)
    assert counts == {"walks": 1, "column_ranks": 1}


def test_minimality_survives_appended_columns():
    # supermatrix closure: adjoining arbitrary columns to the generator of
    # a verified-minimal code can only grow supports, never break coverage
    import random

    from mincodes.constructions import first

    base = first(3, 3)
    rng = random.Random(11)
    for _ in range(3):
        extra = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        data = [list(row) + extra[i] for i, row in enumerate(base.gen.data.tolist())]
        bigger = make_code(3, data)
        assert is_minimal_code(bigger).is_minimal


@pytest.mark.parametrize("n, k, minimal", [(90, 13, True), (40, 14, False)])
def test_is_minimal_code_peak_memory(n, k, minimal):
    # tracemalloc sees numpy's buffers; a scan of all pairs of classes
    # peaked at 55.8 MiB ([90,13]_2) and 88.0 MiB ([40,14]_2, 832
    # non-minimal classes) on these two codes
    code = random_code(n, k, 2, seed=1)
    tracemalloc.start()
    try:
        report = is_minimal_code(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_minimal is minimal
    assert peak <= 32 * 2**20


def kernel_calls(code):
    """(mask, blocks): the walk's rank mask and, per block of
    projective_blocks, the (rows, width) of every call to the closure
    ``column_ranks`` returned."""
    blocks = []
    real_ranks, real_walk = analysis.column_ranks, analysis.projective_blocks

    def spy(field, gen):
        rank = real_ranks(field, gen)

        def counted(idx):
            blocks[-1].append(np.shape(idx))
            return rank(idx)
        return counted

    def walk(*args, **kwargs):
        for block in real_walk(*args, **kwargs):
            blocks.append([])
            yield block

    with mock.patch.object(analysis, "column_ranks", spy), \
            mock.patch.object(analysis, "projective_blocks", walk):
        mask = analysis._walk(code, DEFAULT_BUDGET)["minimal"]
    return mask, blocks


def test_slice_decides_every_class_of_first_3_64():
    # each class's first k+1 = 4 zero columns already have rank k-1
    from mincodes.constructions import first

    mask, calls = kernel_calls(first(3, 64))
    assert mask.all()
    assert calls == [[(65, 4)], [(4096, 4)]]


def test_second_pass_ranks_only_the_undecided_classes():
    # columns e1 (five times), e2, e3 over GF(2); classes in canonical
    # order u = 001, 010, 011, 100, 101, 110, 111.  The first three vanish
    # on more than k+1 = 4 columns whose first four are all e1, so they
    # are ranked again at full width: 001 and 010 reach rank 2 there,
    # 011 (zero on e1 only) stays non-minimal.  100, 101, 110 and 111
    # vanish on at most two columns, so the slice already decides them.
    code = make_code(2, [[1, 1, 1, 1, 1, 0, 0],
                         [0, 0, 0, 0, 0, 1, 0],
                         [0, 0, 0, 0, 0, 0, 1]])
    mask, calls = kernel_calls(code)
    assert mask.tolist() == [True, True, False, True, False, False, False]
    assert calls == [[(7, 4), (3, 6)]]
    assert not is_minimal_code(code).is_minimal
