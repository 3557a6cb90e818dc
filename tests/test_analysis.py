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
    PreconditionFailed, build_field
from mincodes.analysis import (
    ab_condition,
    has_full_value_property,
    is_minimal_code,
    is_minimal_codeword,
    minimal_codewords,
    weight_strata,
)
from mincodes.codes import DEFAULT_BUDGET, LinearCode, min_max_weight, \
    random_code, weight_distribution
from mincodes.constructions import extended, first, lift, second
from mincodes.matrix import GFMatrix, write_matrix
from mincodes.sss import SssScheme, minimal_authorized_sets


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
    # every class, from its coefficient row decoded by index
    classes = (code.size - 1) // (q - 1)
    for u in codes._class_coeffs(q, code.k, np.arange(classes)):
        word = code.codeword(u)
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


def test_analyze_builds_one_weight_distribution(tmp_path, capsys):
    # d and the weight ratio come from the walk's counts, not from a
    # second WeightDistribution
    path = tmp_path / "code.txt"
    write_matrix(first(3, 3).gen, path)
    built = []
    real = codes.WeightDistribution

    def counted(*args):
        built.append(args)
        return real(*args)

    with mock.patch.object(codes, "WeightDistribution", counted):
        cli.main(["analyze", "--in", str(path), "--json"])
    assert len(built) == 1
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


@contextlib.contextmanager
def counted_decodes():
    """Count the calls of codes._class_coeffs, wherever it is bound, and
    the coefficient rows they decode."""
    counts = Counter()
    real = codes._class_coeffs

    def decode(q, k, index):
        counts["calls"] += 1
        counts["rows"] += len(index)
        return real(q, k, index)

    with mock.patch.object(codes, "_class_coeffs", decode), \
            mock.patch.object(analysis, "_class_coeffs", decode):
        yield counts


def test_the_walk_decodes_no_coefficient_row():
    # extended(3,3) is minimal and full-valued, so no report shows a word
    code = extended(3, 3)
    with counted_decodes() as counts:
        assert is_minimal_code(code).is_minimal
        weight_distribution(code)
        weight_strata(code)
        assert has_full_value_property(code).holds
    assert counts == {}


def test_a_full_value_witness_decodes_one_row():
    # [4,2]_3: the first class, (0,1,1,2), takes every value; the second,
    # (1,0,1,1), misses 2
    code = make_code(3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    with counted_decodes() as counts:
        report = has_full_value_property(code)
    assert counts == {"calls": 1, "rows": 1}
    assert report.witness.coeffs == (1, 0)
    assert report.witness.values == (1, 0, 1, 1)
    assert report.witness_values == (0, 1)


@pytest.mark.parametrize("build", [
    lambda: second(5, 4, 2),  # covered class 0: one block
    lambda: random_code(40, 14, 2, seed=1),  # class 10: blocks 1, 2, 4, 8
], ids=["second(5,4,2)", "random[40,14]_2"])
def test_the_witness_scan_spends_the_rows_it_decodes(build):
    code = build()
    bad = np.flatnonzero(~analysis._walk(code, DEFAULT_BUDGET)["minimal"])
    classes = (code.size - 1) // (code.q - 1)
    with counted_decodes() as counts:
        want = analysis._first_cover(code, bad, classes, DEFAULT_BUDGET)
    rows = counts["rows"]
    assert rows < code.size
    assert analysis._first_cover(code, bad, classes, rows) == want
    with pytest.raises(BudgetExceeded, match="witness rows") as exc:
        analysis._first_cover(code, bad, classes, rows - 1)
    assert (exc.value.needed, exc.value.unit) == (rows, "witness rows")


@contextlib.contextmanager
def counted_scans():
    """Count the calls of the witness scan, analysis._first_cover."""
    counts = Counter()
    real = analysis._first_cover

    def scan(*args, **kwargs):
        counts["scans"] += 1
        return real(*args, **kwargs)

    with mock.patch.object(analysis, "_first_cover", scan):
        yield counts


def dual_access(code):
    scheme = SssScheme(code)
    minimal_authorized_sets(scheme, method="dual")
    return scheme.dual


@pytest.mark.parametrize("call", [
    minimal_codewords, weight_distribution, weight_strata, ab_condition,
    has_full_value_property, min_max_weight, dual_access,
], ids=lambda f: f.__name__)
def test_only_is_minimal_code_scans_for_a_witness(call):
    # the dual of first(3,3), which the dual access walks, is non-minimal
    code = first(3, 3) if call is dual_access else second(4, 3, 2)
    with counted_scans() as counts:
        result = call(code)
        call(code)
    assert counts == {}
    walked = result if call is dual_access else code
    assert "minimality" not in walked._memo
    with counted_scans() as counts:
        reports = {is_minimal_code(walked) for _ in range(3)}
    assert counts == {"scans": 1}
    assert len(reports) == 1 and not reports.pop().is_minimal


def test_lift_reads_its_preconditions_from_the_walk():
    # a refused base pays for the walk's verdicts only: no witness scan
    code = second(4, 3, 2)
    with counted_scans() as counts:
        with pytest.raises(PreconditionFailed,
                           match="^lift base code is not minimal$"):
            lift(code, 1)
        with pytest.raises(PreconditionFailed, match="^lift base code has a "
                           "codeword that misses some field value$"):
            lift(first(3, 3), 1)
    assert counts == {}
    assert "minimality" not in code._memo


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
    # the classes of least weight w_min = 127 are minimal by counting,
    # (q-1)*127 < q*127: two in the first block, one in the second; every
    # other class vanishes on at most 2 or 3 columns, so the slice is that
    # wide, and those columns already have rank k-1
    from mincodes.constructions import first

    mask, calls = kernel_calls(first(3, 64))
    assert mask.all()
    assert calls == [[(63, 2)], [(4095, 3)]]


def test_second_pass_ranks_only_the_undecided_classes():
    # columns e1 (five times), e2, e3 over GF(2); classes in canonical
    # order u = 001, 010, 011, 100, 101, 110, 111.  001 and 010 have weight
    # w_min = 1, so counting proves them minimal; 101, 110 and 111 vanish
    # on fewer than k-1 = 2 columns, so counting refutes them.  011 and
    # 100 go to the slice of k+1 = 4 columns: 100 (zero on e2 and e3)
    # reaches rank 2 there, and 011, which vanishes on the five e1 columns,
    # is ranked again at full width and stays non-minimal.
    code = make_code(2, [[1, 1, 1, 1, 1, 0, 0],
                         [0, 0, 0, 0, 0, 1, 0],
                         [0, 0, 0, 0, 0, 0, 1]])
    mask, calls = kernel_calls(code)
    assert mask.tolist() == [True, True, False, True, False, False, False]
    assert calls == [[(2, 4), (1, 5)]]
    assert not is_minimal_code(code).is_minimal


def test_counting_spares_the_rank_kernel():
    # on [90,13]_2, (q-1)*wt < q*w_min proves 8086 of the 8191 classes
    # minimal, so the slice sees the other 105 at most
    mask, calls = kernel_calls(random_code(90, 13, 2, seed=1))
    assert mask.all()
    assert len(calls) == 1 and calls[0][0][0] <= 105
    # on [24,9]_3, a class with fewer than k-1 = 8 zeros is not minimal by
    # counting, so no row that the kernel sees has fewer than 8 zero columns
    code = random_code(24, 9, 3, seed=1)
    seen = []
    real = analysis.column_ranks

    def spy(field, gen):
        rank = real(field, gen)

        def counted(idx):
            seen.append(np.count_nonzero(idx < code.n, axis=1).min())
            return rank(idx)
        return counted

    with mock.patch.object(analysis, "column_ranks", spy):
        assert not is_minimal_code(code).is_minimal
    assert seen and min(seen) >= code.k - 1


def stale_code():
    """A [4,3]_2 code whose first block, at ``_CHUNK`` = 4, is 001, 010 and
    011 (words 1111, 1010 and 0101), of least weight 2, and whose second
    block holds words of weight 1: 010 and 011, light at 2 but not at 1,
    must be ranked on a second walk, which finds 0101 non-minimal."""
    return make_code(2, [[1, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])


def test_a_stale_block_walks_the_classes_twice():
    # a running minimum above w_min costs a second walk up to the last
    # stale block, ranked with the first walk's kernel
    with mock.patch.object(codes, "_CHUNK", 4):
        with counted_walks() as counts:
            assert not is_minimal_code(stale_code()).is_minimal
        assert counts == {"walks": 2, "column_ranks": 1}
        mask, calls = kernel_calls(stale_code())
    assert mask.tolist() == [False, True, False, False, True, True, False]
    # counting decides every class on the first walk: 001, 100 and 111
    # have one zero, and 101 and 110 weight 1; the second walk ranks block
    # one's 010 and 011, and stops there
    assert calls == [[], [], [(2, 2)]]


def test_second_walk_at_the_default_block_sizes():
    # random [16,6]_7 (seed 1) walks its 9 blocks twice without a patched
    # _CHUNK: the first block's least weight is 10 and w_min is 6, so 6
    # blocks are stale and their 44 classes with 7*6 <= 6*wt < 7*M are
    # ranked again; one of them is not minimal
    code = random_code(16, 6, 7, seed=1)
    walks, real = [], analysis.projective_blocks

    def walk(*args, **kwargs):
        walks.append([])
        for block in real(*args, **kwargs):
            walks[-1].append(block[1])
            yield block

    with mock.patch.object(analysis, "projective_blocks", walk):
        mask = analysis._walk(code, DEFAULT_BUDGET)["minimal"]
    assert len(walks) == 2 and len(walks[0]) == 9
    q, sizes = code.q, [len(v) for v in walks[0]]
    least = np.minimum.accumulate([np.count_nonzero(v, axis=1).min()
                                   for v in walks[0]])
    assert least[0] == 10 and least[-1] == 6
    assert len(walks[1]) == np.count_nonzero(least > 6) == 6
    values = np.concatenate(walks[0])
    w = np.count_nonzero(values, axis=1)
    bound = np.repeat(least, sizes)
    again = np.flatnonzero((q * 6 <= (q - 1) * w) & ((q - 1) * w < q * bound))
    verdicts = [is_minimal_codeword(code, values[i]) for i in again]
    assert len(again) == 44 and verdicts.count(False) == 1
    assert mask[again].tolist() == verdicts
