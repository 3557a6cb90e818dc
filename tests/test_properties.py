"""Property tests: the block generators and the scans built on them agree
with direct per-word oracles on random small codes.

Codes are drawn over q in {2, 3, 4, 5, 8, 9} with k <= 4 (5 for the
generator checks) and n <= 7, and every enumeration runs with a small
``codes._CHUNK`` drawn per example, so block boundaries fall anywhere in
the canonical order.  Both generators are checked byte for byte against
the filter-then-``GF.matmul`` enumeration they replaced, and for their
block sizes and budget check, and the canonical class order decoded by
``codes._class_coeffs``, on arrays of indices, against
``projective_blocks``.  The rank test of
minimality is checked against the pairwise cover scan it replaced (kept
here as the oracle, and itself checked on random support matrices up to
300 columns wide) on codes with k = 1, with zero columns and with a class
that has no zero coordinate, and on every code of the default sweep
corpus, and ``is_minimal_codeword`` against a walk over every class.  The
witness scan, in growing blocks, is checked against the fixed-block scan
it replaced on random supports and on random codes whose first covered
class lies past several blocks, with floating-point errors raised.  The
whole-code results kept on a code are checked, called in any order,
against fresh walks of a copy, and the weight strata against a
stratification of all q^k words.  The
slice-first rank pass is checked against the full-width pass it replaced
(kept here as ``full_width_mask``) on codes up to max(3k+2, 2^(k+1))
columns long with repeated, proportional and zero columns, at every slice
width, with the slice gathered both by argmin rounds and by sorting.  The
weight distribution of every dual code is checked against the MacWilliams
transform.  The batched coalition search is checked against a
per-coalition ``in_span`` loop and the dual-code path with every column as
the secret column (n <= 8 here) and on a GF(256) code too wide for the XOR
packing, the two methods of ``minimal_authorized_sets`` against each
other, the empty structure of a secret column outside the others' span
included, and the batched rank kernel ``matrix.column_ranks`` against
``rank`` and ``in_span`` one matrix at a time and against ``rank`` at the
limits of its dtypes, and the row basis of the evaluation codes against
the greedy rank-raising selection it replaced.  The batched Massey
operations are checked against their single calls: ``deal_batch`` also
against the scalar dealing it replaced, ``reconstruct_batch`` also against
a rank test of consistency, and ``perfectness_batch`` against the
per-coalition check it replaced (``np.unique(axis=0)`` and ``in_span``),
on dealings thinned at random so that both verdicts can fail, and on a
coalition too wide for any int64 pattern key.  ``reconstruct_batch`` on a
scheme that already keeps a coalition's row reduction is checked against
the same call with none kept, for every coalition, and ``is_authorized``
against ``in_span``.
"""

import contextlib
import itertools
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mincodes import analysis, codes, sss, sweep
from mincodes.analysis import (
    FullValueReport,
    MinimalityReport,
    ab_condition,
    ab_report,
    has_full_value_property,
    is_minimal_code,
    is_minimal_codeword,
    minimal_codewords,
    weight_strata,
)
from mincodes.codes import (
    Codeword,
    LinearCode,
    WeightDistribution,
    codeword_blocks,
    dual_code,
    min_max_weight,
    projective_blocks,
    random_code,
    weight_distribution,
)
from mincodes.constructions import _independent_rows
from mincodes.errors import BudgetExceeded, InconsistentShares, Unauthorized
from mincodes.field import build_field
from mincodes.matrix import GFMatrix, column_ranks, in_span, rank
from mincodes.sss import (
    AccessSet,
    PerfectnessReport,
    SssScheme,
    deal,
    deal_batch,
    is_authorized,
    perfectness_batch,
    reconstruct,
    reconstruct_batch,
)

FIELDS = (2, 3, 4, 5, 8, 9)
SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)


@st.composite
def small_codes(draw, max_k=4, max_n=7):
    q = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max_n))
    entries = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    gen = GFMatrix(build_field(q), np.array(rows))
    assume(rank(gen) == k)
    return LinearCode(gen)


chunks = st.integers(1, 64)


def small_chunks(chunk):
    """Make every enumeration walk blocks of at most max(chunk, q) rows."""
    return mock.patch.object(codes, "_CHUNK", chunk)


def lead(u) -> int:
    return next((int(c) for c in u if c), 0)


def all_words(code):
    """(coeffs, values) for every u in canonical order, via code.codeword."""
    out = []
    for u in itertools.product(range(code.q), repeat=code.k):
        word = code.codeword(u)
        out.append((word.coeffs, word.values))
    return out


def flatten(blocks):
    return [(tuple(int(c) for c in u), tuple(int(x) for x in v))
            for ublock, vblock in blocks for u, v in zip(ublock, vblock)]


def codewords(code):
    """Every codeword in canonical order, from ``codeword_blocks``."""
    return [Codeword(u, v) for u, v in flatten(codeword_blocks(code))]


def participant_cols(scheme, ids):
    """The generator columns of the participants ids, in order."""
    return [scheme.code.gen.data[:, i - 1] for i in ids]


def filtered_blocks(code, lead_one: bool):
    """The enumeration the outer sums replaced: every coefficient row from
    coeff_blocks times G by GF.matmul, keeping only the lead-1 rows when
    lead_one is set."""
    for block in codes.coeff_blocks(code):
        if lead_one:
            block = block[block[np.arange(len(block)),
                                (block != 0).argmax(axis=1)] == 1]
        yield block, code.field.matmul(block, code.gen.data)


def concatenated(blocks):
    blocks = list(blocks)
    return tuple(np.concatenate([b[i] for b in blocks]) for i in (0, 1))


@SETTINGS
@given(small_codes(), chunks)
def test_codeword_blocks_match_codeword(code, chunk):
    with small_chunks(chunk):
        got = flatten(codeword_blocks(code))
    assert got == all_words(code)


@SETTINGS
@given(small_codes(), chunks)
def test_projective_blocks_are_lead_one_rows(code, chunk):
    with small_chunks(chunk):
        got = flatten(projective_blocks(code))
        stream = flatten(codeword_blocks(code))
    assert got == [(u, v) for u, v in stream if lead(u) == 1]


@SETTINGS
@given(small_codes(max_k=5), chunks)
def test_generators_match_filter_then_matmul(code, chunk):
    for gen, lead_one in ((codeword_blocks, False), (projective_blocks, True)):
        with small_chunks(chunk):
            got = concatenated(gen(code))
        want = concatenated(filtered_blocks(code, lead_one))
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


@SETTINGS
@given(small_codes(max_k=5), chunks)
def test_blocks_fit_the_chunk_and_the_budget_comes_first(code, chunk):
    limit = max(chunk, code.q)
    with small_chunks(chunk):
        for gen in (codeword_blocks, projective_blocks):
            blocks = list(gen(code))
            assert all(len(u) == len(v) for u, v in blocks)
            sizes = [len(u) for u, _ in blocks]
            assert max(sizes) <= limit
            if gen is projective_blocks and code.size <= chunk:
                assert len(sizes) == 1
            with mock.patch.object(codes, "_span", side_effect=AssertionError):
                with pytest.raises(BudgetExceeded) as err:
                    next(gen(code, budget=code.size - 1))
            assert str(err.value) == (f"enumeration needs {code.size} "
                                      f"words, budget is {code.size - 1}")
            assert err.value.unit == "words"


@SETTINGS
@given(small_codes(), chunks)
def test_weight_distribution_counts_every_word(code, chunk):
    with small_chunks(chunk):
        got = weight_distribution(code).counts
    want = Counter(w.weight for w in codewords(code))
    assert got == dict(want)


@SETTINGS
@given(small_codes(), chunks)
def test_full_value_matches_scan_of_all_nonzero_words(code, chunk):
    with small_chunks(chunk):
        report = has_full_value_property(code)
    witness = next((w for w in codewords(code)
                    if any(w.values) and len(set(w.values)) < code.q),
                   None)
    assert report.holds == (witness is None)
    assert report.witness == witness
    if witness is not None:
        assert report.witness_values == tuple(sorted(set(witness.values)))


@SETTINGS
@given(small_codes(max_k=3), chunks, st.integers(1, 5))
def test_cover_scan_matches_pairwise_oracle(code, chunk, row_block):
    reps = [w for w in codewords(code) if lead(w.coeffs) == 1]
    masks = [sum(1 << i for i in w.support) for w in reps]
    witness = next(((reps[i], reps[j])
                    for i, j in itertools.product(range(len(reps)), repeat=2)
                    if i != j and masks[i] & ~masks[j] == 0), None)
    minimal = [w for j, w in enumerate(reps)
               if not any(i != j and masks[i] & ~masks[j] == 0
                          for i in range(len(reps)))]
    # a NaN in the float32 zero test would read as "not covered"
    with small_chunks(chunk), np.errstate(invalid="raise"), \
            mock.patch.object(analysis, "_ROW_BLOCK", row_block):
        report = is_minimal_code(code)
        got = minimal_codewords(code)
    assert report.is_minimal == (witness is None)
    assert report.witness == witness
    assert report.classes == len(reps)
    assert got == minimal


def covered_blocks(supp: np.ndarray, row_block: int):
    """The pairwise cover scan: yield (start, covered) per row_block
    classes, where covered[i, j] is true when Supp(start+i) lies inside
    Supp(j) for j != start+i."""
    rows = supp.astype(np.float32)
    comp = (~supp).astype(np.float32)
    classes = len(supp)
    for start in range(0, classes, row_block):
        stop = min(start + row_block, classes)
        # float32 GEMM of 0/1 terms: the sum is 0 exactly when every term is
        covered = (rows[start:stop] @ comp.T) == 0
        iota = np.arange(start, stop)
        covered[iota - start, iota] = False  # ignore self-containment
        yield start, covered


@st.composite
def support_masks(draw, max_n=300, max_rows=24):
    """Bitmask rows of width n: random rows, subsets and repeats of earlier
    rows, and one all-ones row, shuffled."""
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1
    masks = [full]
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("random", "subset", "repeat")))
        if kind == "random":
            masks.append(draw(st.integers(0, full)))
            continue
        base = masks[draw(st.integers(0, len(masks) - 1))]
        masks.append(base if kind == "repeat"
                     else base & draw(st.integers(0, full)))
    return n, draw(st.permutations(masks))


@SETTINGS
@given(support_masks(), st.integers(1, 8))
def test_covered_blocks_match_bitmask_oracle(drawn, row_block):
    n, masks = drawn
    supp = np.array([[(m >> c) & 1 for c in range(n)] for m in masks],
                    dtype=bool)
    want = np.array([[i != j and masks[i] & ~masks[j] == 0
                      for j in range(len(masks))]
                     for i in range(len(masks))], dtype=bool)
    blocks = list(covered_blocks(supp, row_block))
    assert [start for start, _ in blocks] == \
        list(range(0, len(masks), row_block))
    assert all(covered.dtype == bool for _, covered in blocks)
    assert np.array_equal(np.vstack([c for _, c in blocks]), want)


def pairwise_minimality(code, row_block):
    """(mask, witness, pairs) by the pairwise cover scan: class j is
    minimal when no other class's support lies inside its own, and the
    witness is the first covered pair in row-major order."""
    blocks = list(projective_blocks(code))
    u = np.vstack([b[0] for b in blocks])
    v = np.vstack([b[1] for b in blocks])
    classes = len(v)
    minimal = np.ones(classes, dtype=bool)
    witness, pairs = None, 0
    for start, covered in covered_blocks(v != 0, row_block):
        minimal &= ~covered.any(axis=0)
        if witness is None:
            pairs += len(covered) * (classes - 1)
            hits = np.argwhere(covered)
            if hits.size:
                i, j = start + hits[0, 0], hits[0, 1]
                witness = tuple(analysis._as_word(v[x], u[x]) for x in (i, j))
    return minimal, witness, pairs


def fixed_block_first_cover(packed, bad, n, row_block):
    """The witness scan before it grew its blocks: every block of
    row_block covered rows against all non-minimal classes, stopping
    after the first block with a hit."""
    def block(rows):
        return np.unpackbits(rows, axis=1, count=n).astype(np.float32)

    for start in range(0, len(packed), row_block):
        rows = block(packed[start:start + row_block])
        first = None
        for cstart in range(0, len(bad), row_block):
            cols = bad[cstart:cstart + row_block]
            covered = (rows @ (1 - block(packed[cols])).T) == 0
            own = (cols >= start) & (cols < start + len(rows))
            covered[cols[own] - start, np.nonzero(own)[0]] = False
            hits = np.argwhere(covered)
            if hits.size and (first is None or hits[0, 0] < first[0]):
                first = (int(hits[0, 0]), int(cols[hits[0, 1]]))
        if first is not None:
            return start + first[0], first[1]
    return None


@pytest.mark.parametrize("n, k, q, seed, covered", [
    *[(24, 9, 3, seed, 0) for seed in range(1, 6)],
    (40, 14, 2, 1, 10),
    (60, 16, 2, 1, 933),  # past the blocks of 1, 2, ..., 512 rows
])
def test_growing_cover_scan_matches_fixed_blocks(n, k, q, seed, covered):
    code = random_code(n, k, q, seed=seed)
    packed = np.vstack([np.packbits(v != 0, axis=1)
                        for _, v in projective_blocks(code)])
    bad = np.nonzero(~analysis._walk(code, codes.DEFAULT_BUDGET)["minimal"])[0]
    with np.errstate(invalid="raise"):
        got = analysis._first_cover(packed, bad, n)
        want = fixed_block_first_cover(packed, bad, n, analysis._ROW_BLOCK)
    assert got == want
    assert got[0] == covered


@SETTINGS
@given(support_masks(), st.integers(1, 8))
def test_growing_cover_scan_matches_fixed_blocks_on_masks(drawn, row_block):
    """On random supports, with every class that contains another one
    taken as non-minimal, and blocks capped at row_block rows."""
    n, masks = drawn
    bad = np.array([j for j, b in enumerate(masks)
                    if any(i != j and a & ~b == 0
                           for i, a in enumerate(masks))], dtype=np.intp)
    assume(len(bad))
    supp = np.array([[(m >> c) & 1 for c in range(n)] for m in masks],
                    dtype=bool)
    packed = np.packbits(supp, axis=1)
    with np.errstate(invalid="raise"), \
            mock.patch.object(analysis, "_ROW_BLOCK", row_block):
        got = analysis._first_cover(packed, bad, n)
    assert got == fixed_block_first_cover(packed, bad, n, row_block)


SHAPES = ("random", "k = 1", "zero column", "class without zeros")


@st.composite
def shaped_codes(draw, q, shape, max_k=4, max_words=729, max_n=8):
    """Random codes with at most max_words words; "zero column" zeroes one
    column of G, and "class without zeros" makes row 0 nonzero everywhere,
    so the class of e_0 has no zero coordinate."""
    max_k = min(max_k, int(math.log(max_words + 0.5, q)))
    k = 1 if shape == "k = 1" else draw(st.integers(1, max_k))
    n = draw(st.integers(k + (shape == "zero column"), max_n))
    low = 1 if shape == "class without zeros" else 0
    rows = [draw(st.lists(st.integers(low if i == 0 else 0, q - 1),
                          min_size=n, max_size=n)) for i in range(k)]
    data = np.array(rows)
    if shape == "zero column":
        data[:, draw(st.integers(0, n - 1))] = 0
    gen = GFMatrix(build_field(q), data)
    assume(rank(gen) == k)
    return LinearCode(gen)


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data(), chunk=chunks, row_block=st.integers(1, 5))
def test_rank_mask_matches_pairwise_oracle(q, data, chunk, row_block):
    for shape in SHAPES:
        code = data.draw(shaped_codes(q, shape), label=shape)
        want, witness, pairs = pairwise_minimality(code, row_block)
        with small_chunks(chunk), \
                mock.patch.object(analysis, "_ROW_BLOCK", row_block):
            got = analysis._walk(code, codes.DEFAULT_BUDGET)["minimal"]
            report = is_minimal_code(code)
            words = minimal_codewords(code)
        assert np.array_equal(got, want)
        assert report.is_minimal == (witness is None)
        assert report.witness == witness
        assert report.pairs_checked == pairs
        assert report.classes == len(want)
        reps = flatten(projective_blocks(code))
        assert [(w.coeffs, w.values) for w in words] == \
            [r for r, ok in zip(reps, want) if ok]


def test_rank_mask_matches_pairwise_oracle_on_sweep_corpus():
    """The structured codes of the default sweep (lifts, extensions and
    tensor products repeat columns in ways random codes rarely do): the
    per-class rank mask equals the pairwise cover scan on every one."""
    registry = sweep.CodeRegistry()
    sweep.run_criterion(11, registry=registry)
    assert len(registry) == 38
    for label, code in registry.items():
        got = analysis._walk(code, codes.DEFAULT_BUDGET)["minimal"]
        assert np.array_equal(got, pairwise_minimality(code, 1024)[0]), label


def walk_weight_distribution(code):
    """The weight distribution by its own walk over the scalar classes."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for _, values in projective_blocks(code):
        counts += np.bincount(np.count_nonzero(values, axis=1),
                              minlength=code.n + 1)
    counts *= code.q - 1
    counts[0] = 1
    return WeightDistribution(
        q=code.q, n=code.n, k=code.k,
        counts={int(w): int(c) for w, c in enumerate(counts) if c})


def walk_full_value(code):
    """The full-value verdict by a walk that stops at the first class
    missing a field value."""
    for ublock, vblock in projective_blocks(code):
        ok = np.ones(len(vblock), dtype=bool)
        for val in range(code.q):
            ok &= (vblock == val).any(axis=1)
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            word = analysis._as_word(vblock[i], ublock[i])
            return FullValueReport(False, word,
                                   tuple(sorted(set(word.values))))
    return FullValueReport(True, None, None)


def stratified(code):
    """Codeword counts by weight for each coefficient weight s = 0..k, by
    a walk over all q^k words."""
    out = {s: Counter() for s in range(code.k + 1)}
    for block, values in codeword_blocks(code):
        cw = np.count_nonzero(block, axis=1)
        w = np.count_nonzero(values, axis=1)
        for s, x in zip(cw.tolist(), w.tolist()):
            out[s][x] += 1
    return {s: dict(counts) for s, counts in out.items()}


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data(), chunk=chunks)
def test_weight_strata_match_stratification_of_every_word(q, data, chunk):
    """weight_strata equals the stratification of all q^k words, and its
    counts summed over s are the weight distribution."""
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    code = data.draw(shaped_codes(q, shape), label="code")
    with small_chunks(chunk):
        strata = weight_strata(code)
        dist = weight_distribution(code)
    assert strata == stratified(code)
    assert sum(map(Counter, strata.values()), Counter()) == dist.counts


def whole_code_oracles(code):
    """Each whole-code function's result on a fresh copy of code, by the
    walks above and the pairwise cover scan."""
    fresh = LinearCode(code.gen)
    dist = walk_weight_distribution(fresh)
    mask, witness, pairs = pairwise_minimality(fresh, analysis._ROW_BLOCK)
    return {
        is_minimal_code: MinimalityReport(witness is None, witness,
                                          len(mask), pairs),
        weight_distribution: dist,
        weight_strata: stratified(fresh),
        ab_condition: ab_report(dist),
        min_max_weight: (dist.min_nonzero(), dist.max_weight()),
        has_full_value_property: walk_full_value(fresh),
        minimal_codewords: [Codeword(*r) for r, ok in zip(
            flatten(projective_blocks(fresh)), mask) if ok],
    }


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data(), chunk=chunks)
def test_memoised_results_match_fresh_walks(q, data, chunk):
    """The seven whole-code functions, called twice each in a drawn order
    on one code, so that most calls read what an earlier one kept, give
    what fresh walks give, and a budget below q^k still raises."""
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    code = data.draw(shaped_codes(q, shape), label="code")
    want = whole_code_oracles(code)
    order = data.draw(st.permutations(list(want)), label="order")
    with small_chunks(chunk), np.errstate(invalid="raise"):
        for check in order + order:
            assert check(code) == want[check], check.__name__
            with pytest.raises(BudgetExceeded):
                check(code, budget=code.size - 1)
    assert set(code._memo) == {"minimality", "minimal", "strata",
                               "full_value"}
    with pytest.raises(BudgetExceeded):
        weight_distribution(code, budget=1)


def full_width_mask(code):
    """The rank pass before the slice: every row of a block ranked on all
    its zero columns, padded with the zero column n to the widest row."""
    n, k = code.n, code.k
    rank = column_ranks(code.field, code.gen.data)
    position, pad = np.arange(n, dtype=np.int32), np.int32(n)
    masks = []
    for _, v in projective_blocks(code):
        supp = v != 0
        width = max(1, n - int(supp.sum(axis=1).min()))
        idx = np.sort(position + supp * pad, axis=1)[:, :width]
        masks.append(rank(idx) == k - 1)
    return np.concatenate(masks)


@st.composite
def repeated_column_codes(draw, q, max_k=5, max_words=729):
    """Random codes of length k..max(3k+2, 2^(k+1)) whose columns are
    random, zero, or a repeat or nonzero multiple of an earlier column, so
    that zero sets run past k+1 columns while their rank stays low, and
    the long ones take the argmin gather of the slice."""
    f = build_field(q)
    k = draw(st.integers(1, min(max_k, int(math.log(max_words + 0.5, q)))))
    n = draw(st.integers(k, max(3 * k + 2, 2 ** (k + 1))))
    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "multiple"))
                    if cols else st.just("random"))
        if kind == "random":
            col = draw(st.lists(st.integers(0, q - 1), min_size=k,
                                max_size=k))
        elif kind == "zero":
            col = [0] * k
        else:
            col = cols[draw(st.integers(0, j - 1))]
            if kind == "multiple":
                col = f.mul_table[draw(st.integers(1, q - 1)), col].tolist()
        cols.append(col)
    gen = GFMatrix(f, np.array(cols).T)
    assume(rank(gen) == k)
    return LinearCode(gen)


@contextlib.contextmanager
def counted_gathers(counts):
    """Count the blocks that _walk gathers by argmin rounds and
    all the blocks it walks; the rest are gathered by the sort."""
    real_walk, real_argmin = analysis.projective_blocks, analysis._first_zeros

    def walk(*args, **kwargs):
        for block in real_walk(*args, **kwargs):
            counts["blocks"] += 1
            yield block

    def argmin(*args, **kwargs):
        counts["argmin"] += 1
        return real_argmin(*args, **kwargs)

    with mock.patch.object(analysis, "projective_blocks", walk), \
            mock.patch.object(analysis, "_first_zeros", argmin):
        yield


@pytest.mark.parametrize("q", FIELDS)
def test_slice_rank_mask_matches_full_width(q):
    """The slice-first rank pass gives the full-width mask (itself checked
    against the pairwise scan) with the slice patched to every width from
    k to 2k+1 columns, on blocks of a few rows, through both gathers of
    the slice: argmin rounds and the sort."""
    counts = Counter()

    @SETTINGS
    @given(data=st.data(), chunk=st.integers(1, 8))
    def check(data, chunk):
        code = data.draw(repeated_column_codes(q))
        want = full_width_mask(code)
        assert np.array_equal(want, pairwise_minimality(code, 1024)[0])
        for extra in range(1, code.k + 3):
            with small_chunks(chunk), counted_gathers(counts), \
                    mock.patch.object(analysis, "_SLICE", extra):
                # a fresh copy each time: the walk keeps its mask on the code
                got = analysis._walk(LinearCode(code.gen),
                                     codes.DEFAULT_BUDGET)["minimal"]
            assert np.array_equal(got, want), extra

    check()
    assert 0 < counts["argmin"] < counts["blocks"], counts


@SETTINGS
@given(small_codes(max_k=5), chunks, st.data())
def test_class_coeffs_index_projective_blocks(code, chunk, data):
    """Decoded all at once, one at a time and at a random subset of
    indices, in any order, across block boundaries."""
    with small_chunks(chunk):
        u = np.vstack([b for b, _ in projective_blocks(code)])
    q, k = code.q, code.k
    assert np.array_equal(codes._class_coeffs(q, k, np.arange(len(u))), u)
    for i in range(len(u)):
        assert codes._class_coeffs(q, k, np.array([i])).tolist() == \
            [u[i].tolist()]
    some = data.draw(st.lists(st.integers(0, len(u) - 1), max_size=20))
    assert np.array_equal(
        codes._class_coeffs(q, k, np.array(some, dtype=np.int64)),
        u[some].reshape(len(some), k))


def class_walk_minimal(code, values) -> bool:
    """Minimality of one codeword by walking every scalar class: no class
    other than the word's own may have its support inside the word's."""
    f = code.field
    coeffs = in_span(f, values, code.gen.data)
    norm = f.mul_table[int(f.inv_table[lead(coeffs)]), values]
    wsupp = values != 0
    for _, v in projective_blocks(code):
        inside = ~((v != 0) & ~wsupp[None, :]).any(axis=1)
        same = (v == norm[None, :]).all(axis=1)
        if (inside & ~same).any():
            return False
    return True


@SETTINGS
@given(small_codes(max_k=3), st.data())
def test_is_minimal_codeword_matches_class_walk(code, data):
    f = code.field
    for _, v in flatten(projective_blocks(code)):
        lam = data.draw(st.integers(1, f.q - 1))
        word = f.mul_table[lam, np.array(v)]
        assert is_minimal_codeword(code, word) == \
            class_walk_minimal(code, word.astype(np.int64))


def krawtchouk(j: int, i: int, n: int, q: int) -> int:
    return sum((-1) ** s * (q - 1) ** (j - s)
               * math.comb(i, s) * math.comb(n - i, j - s)
               for s in range(j + 1))


@SETTINGS
@given(small_codes())
def test_dual_weights_match_macwilliams(code):
    assume(code.n > code.k)
    n, q = code.n, code.q
    dist = weight_distribution(code).counts
    want = {}
    for j in range(n + 1):
        total = sum(a * krawtchouk(j, i, n, q) for i, a in dist.items())
        assert total % code.size == 0
        if total:
            want[j] = total // code.size
    assert weight_distribution(dual_code(code)).counts == want


@SETTINGS
@given(small_codes(), st.data())
def test_reconstruct_matches_span_oracles(code, data):
    assume(not code.zero_columns and code.n >= 2)
    f = code.field
    scheme = SssScheme(code)
    secret = data.draw(st.integers(0, f.q - 1))
    dealt = deal(scheme, secret, seed=data.draw(st.integers(0, 99)))
    for size in range(len(scheme.participants) + 1):
        for ids in itertools.combinations(scheme.participants, size):
            cols = participant_cols(scheme, ids)
            x = in_span(f, scheme.secret_col(), cols)
            vals = [dealt.shares[i] for i in ids]
            if x is None:
                with pytest.raises(Unauthorized):
                    reconstruct(scheme, ids, vals)
                continue
            assert reconstruct(scheme, ids, vals) == secret
            pos = data.draw(st.integers(0, size - 1))
            delta = data.draw(st.integers(1, f.q - 1))
            vals[pos] = int(f.add_table[vals[pos], delta])
            sub = np.column_stack(cols)
            consistent = (rank(GFMatrix(f, np.vstack([sub, [vals]])))
                          == rank(GFMatrix(f, sub)))
            try:
                got = reconstruct(scheme, ids, vals)
            except InconsistentShares:
                assert not consistent
                continue
            assert consistent
            want = 0
            for xi, v in zip(x, vals):
                want = int(f.add_table[want, f.mul_table[xi, v]])
            assert got == want


# -- access structures by coalition search ------------------------------------


def search_oracle(scheme):
    """Coalitions of size 1..k in order, one in_span call each, skipping
    supersets of sets already found."""
    found = []
    for size in range(1, scheme.code.k + 1):
        for cand in itertools.combinations(scheme.participants, size):
            if any(set(m) <= set(cand) for m in found):
                continue
            cols = participant_cols(scheme, cand)
            if in_span(scheme.field, scheme.secret_col(), cols) is not None:
                found.append(cand)
    return [AccessSet(indices=m) for m in found]


# largest n - k that keeps every dual at most 1024 words
DUAL_SPAN = {2: 10, 3: 6, 4: 5, 5: 4, 8: 3, 9: 3}


@st.composite
def sss_codes(draw, q, max_k=4, max_n=8):
    """Codes with no zero column, so that every column can hold the
    secret, and a dual small enough to enumerate."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, min(max_n, k + DUAL_SPAN[q])))
    cols = draw(st.lists(st.integers(1, q ** k - 1), min_size=n, max_size=n))
    place = q ** np.arange(k - 1, -1, -1)
    gen = GFMatrix(build_field(q), (np.array(cols)[None, :]
                                    // place[:, None]) % q)
    assume(rank(gen) == k)
    return LinearCode(gen)


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data(), chunk=st.integers(1, 8))
def test_search_path_matches_oracle_and_dual(q, data, chunk):
    code = data.draw(sss_codes(q))
    for secret_column in range(1, code.n + 1):
        scheme = SssScheme(code, secret_column)
        want = search_oracle(scheme)
        with mock.patch.object(sss, "_CHUNK", chunk):
            assert sss._search_path(scheme, codes.DEFAULT_BUDGET) == want
        dual = (sss._dual_path(scheme, codes.DEFAULT_BUDGET)
                if code.n > code.k else [])
        assert dual == want


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_dual_and_search_access_structures_agree(q, data):
    """minimal_authorized_sets gives the same sets by the dual code and by
    search, on drawn codes and on codes whose secret column lies outside
    the span of the others (a unit row on it, zero elsewhere), where both
    give the empty structure."""
    code = data.draw(sss_codes(q))
    independent = data.draw(st.booleans(), label="independent secret")
    if independent:
        gen = np.zeros((code.k + 1, code.n + 1), dtype=np.int64)
        gen[0, 0] = 1
        gen[1:, 1:] = code.gen.data
        code = LinearCode(GFMatrix(code.field, gen))
    scheme = SssScheme(code)
    dual = sss.minimal_authorized_sets(scheme, "dual")
    assert dual == sss.minimal_authorized_sets(scheme, "search")
    if independent:
        assert dual == []


SPAN_SHAPES = ("random", "s = 0", "zero columns", "s > k")


@st.composite
def span_stacks(draw, f, shape="random"):
    """(M, k, s+1) stacks whose columns are zero, random, repeats of an
    earlier column or combinations of earlier columns; the last column
    plays the target, and s runs past k.  "s = 0" leaves the target alone,
    "zero columns" makes every even column zero and "s > k" draws s > k."""
    k = draw(st.integers(1, 4))
    s = {"s = 0": st.just(0), "s > k": st.integers(k + 1, 6)}.get(
        shape, st.integers(0, 6))
    s = draw(s)
    m = draw(st.integers(1, 6))
    entries = st.integers(0, f.q - 1)
    stack = np.zeros((m, k, s + 1), dtype=np.int64)
    for i in range(m):
        for j in range(s + 1):
            kind = draw(st.sampled_from(
                ("zero", "random", "repeat", "combination")))
            if kind == "zero" or (shape == "zero columns" and j % 2 == 0):
                continue
            if kind == "random" or j == 0:
                stack[i, :, j] = draw(st.lists(entries, min_size=k,
                                               max_size=k))
            elif kind == "repeat":
                stack[i, :, j] = stack[i, :, draw(st.integers(0, j - 1))]
            else:
                x = draw(st.lists(entries, min_size=j, max_size=j))
                stack[i, :, j] = f.matmul(stack[i, :, :j],
                                          np.array(x)[:, None])[:, 0]
    return stack


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_column_ranks_match_in_span(q, data):
    """One matrix at a time: the kernel's ranks of the first s columns
    (padded with the zero column n = s+1, and past it) and of all s+1
    columns agree with ``rank``, and they are equal exactly when
    ``in_span`` finds the target in the span of the others."""
    f = build_field(q)
    for shape in SPAN_SHAPES:
        for a in data.draw(span_stacks(f, shape), label=shape):
            s = a.shape[1] - 1
            ranks = column_ranks(f, a)(
                [list(range(s)) + [s + 1], list(range(s)) + [s + 5],
                 list(range(s + 1))])
            want = rank(GFMatrix(f, a[:, :s])) if s else 0
            assert ranks.tolist() == [want, want, rank(GFMatrix(f, a))]
            assert (ranks[0] == ranks[2]) == \
                (in_span(f, a[:, -1], a[:, :-1].T) is not None)


@pytest.mark.parametrize("q, k", [(2, 64), (2, 65), (16, 16), (32, 13),
                                  (7, 40)])
def test_column_ranks_at_the_dtype_limits(q, k):
    """k*m = 64 is the widest XOR packing, and 65 takes the mod-2
    elimination, so neither falls back to Python-object arithmetic; over
    GF(7) with k = 40, unreduced entries pass 255, past uint8.  Random
    column sets of a generator with repeated columns, ranked in one call,
    against ``rank`` one set at a time."""
    f = build_field(q)
    rng = np.random.default_rng(k)
    gen = rng.integers(0, q, size=(k, k + 6))
    gen[:, -2:] = gen[:, :2]
    sets = [rng.choice(k + 6, size=w, replace=False)
            for w in (1, 2, k // 2, k - 1, k, k + 1, k + 6)]
    width = max(len(c) for c in sets)
    idx = np.array([np.pad(c, (0, width - len(c)), constant_values=k + 6)
                    for c in sets])
    ranks = column_ranks(f, gen)(idx)
    assert ranks.dtype.kind in "iu"
    assert ranks.tolist() == [rank(GFMatrix(f, gen[:, c])) for c in sets]


def test_search_path_past_64_prime_digits():
    """GF(256) with k = 9 needs 72 digits per column, past the XOR packing.
    Column 5 is a multiple of column 2, so each can give the other away
    alone, and the search walks all 511 coalitions for the other secret
    columns; each is checked against the per-coalition ``in_span`` oracle."""
    f = build_field(256)
    gen = np.random.default_rng(9).integers(0, 256, size=(9, 10))
    gen[:, 4] = f.mul_table[7, gen[:, 1]]
    code = LinearCode(GFMatrix(f, gen))
    for secret_column in (1, 2, 5, 10):
        scheme = SssScheme(code, secret_column)
        want = search_oracle(scheme)
        assert sss._search_path(scheme, codes.DEFAULT_BUDGET) == want
        pair = {2: [(5,)], 5: [(2,)]}.get(secret_column, [])
        assert [a.indices for a in want] == pair


@st.composite
def row_stacks(draw, f, max_rows=8, max_cols=6):
    """Rows over f, each fresh, zero, a repeat or a combination of the rows
    above it, so that kept and dropped rows both occur."""
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(0, f.q - 1)
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")
                                    if rows else ("fresh", "zero")))
        if kind == "fresh":
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat":
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            x = draw(st.lists(entries, min_size=len(rows),
                              max_size=len(rows)))
            rows.append(f.matmul(np.array([x]), np.array(rows))[0].tolist())
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_independent_rows_match_greedy_basis(q, data):
    f = build_field(q)
    rows = data.draw(row_stacks(f))
    keep = []  # the greedy definition: keep a row that raises the rank
    for i in range(len(rows)):
        if rank(GFMatrix(f, rows[keep + [i]])) > len(keep):
            keep.append(i)
    assert _independent_rows(f, rows).tolist() == rows[keep].tolist()



# -- batched Massey operations --------------------------------------------------


def scalar_deal(scheme, secret, seed):
    """The per-coefficient dealing that ``deal_batch`` replaced: free
    coefficients drawn in row order, the pivot one solved one table entry
    at a time, then the participants' entries of one codeword."""
    f, k = scheme.field, scheme.code.k
    col = scheme.secret_col()
    pivot = next(i for i, x in enumerate(col) if x)
    rng = random.Random(seed)
    u = [0] * k
    for j in range(k):
        if j != pivot:
            u[j] = rng.randrange(f.q)
    acc = secret
    for j in range(k):
        if j != pivot:
            acc = int(f.sub_table[acc, f.mul_table[u[j], col[j]]])
    u[pivot] = int(f.mul_table[acc, f.inv_table[col[pivot]]])
    word = scheme.code.codeword(u)
    return {i: word.values[i - 1] for i in scheme.participants}


@st.composite
def sss_schemes(draw, q, max_k=4, max_n=8):
    code = draw(sss_codes(q, max_k, max_n))
    return SssScheme(code, draw(st.integers(1, code.n)))


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_deal_batch_matches_single_and_scalar_deals(q, data):
    scheme = data.draw(sss_schemes(q))
    secrets = data.draw(st.lists(st.integers(0, q - 1), max_size=6))
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=len(secrets),
                               max_size=len(secrets)))
    dealt = deal_batch(scheme, secrets, seeds)
    assert len(dealt) == len(secrets)
    for sv, secret, seed in zip(dealt, secrets, seeds):
        assert sv == deal(scheme, secret, seed)
        # G is injective, so equal shares and secret mean equal coefficients
        assert sv.shares == scalar_deal(scheme, secret, seed)
        assert (sv.secret, sv.seed) == (secret, seed)
    assert [sv.shares for sv in deal_batch(scheme, secrets, seeds)] == [
        sv.shares for sv in dealt]
    for sv, secret in zip(deal_batch(scheme, secrets), secrets):
        # the secret at the secret column and the shares elsewhere make a
        # codeword: in_span finds its coefficients
        word = [sv.shares.get(i, secret)
                for i in range(1, scheme.code.n + 1)]
        assert in_span(scheme.field, word, scheme.code.gen.data) is not None
        assert sv.seed is None


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_reconstruct_batch_matches_single_calls(q, data):
    scheme = data.draw(sss_schemes(q))
    f, parts = scheme.field, scheme.participants
    assume(parts)
    ids = tuple(data.draw(st.permutations(parts))[
        :data.draw(st.integers(1, len(parts)))])
    secrets = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                 max_size=5))
    dealt = deal_batch(scheme, secrets, range(len(secrets)))
    rows = [[sv.shares[i] for i in ids] for sv in dealt]
    if not is_authorized(scheme, ids):
        with pytest.raises(Unauthorized) as single:
            reconstruct(scheme, ids, rows[0])
        with pytest.raises(Unauthorized) as batch:
            reconstruct_batch(scheme, ids, rows)
        assert str(batch.value) == str(single.value)
        return
    got = reconstruct_batch(scheme, ids, rows)
    assert got.tolist() == [reconstruct(scheme, ids, r) for r in rows]
    assert got.tolist() == secrets
    bad = data.draw(st.integers(0, len(rows) - 1))
    pos = data.draw(st.integers(0, len(ids) - 1))
    rows[bad][pos] = int(f.add_table[rows[bad][pos],
                                     data.draw(st.integers(1, q - 1))])
    sub = np.column_stack(participant_cols(scheme, ids))
    consistent = (rank(GFMatrix(f, np.vstack([sub, [rows[bad]]])))
                  == rank(GFMatrix(f, sub)))
    if consistent:
        got = reconstruct_batch(scheme, ids, rows)
        assert got.tolist() == [reconstruct(scheme, ids, r) for r in rows]
        return
    with pytest.raises(InconsistentShares) as single:
        reconstruct(scheme, ids, rows[bad])
    with pytest.raises(InconsistentShares) as batch:
        reconstruct_batch(scheme, ids, rows)
    assert str(batch.value) == str(single.value)


def outcome(call):
    """A call's result as a list, or its error's type and message."""
    try:
        return call().tolist()
    except (InconsistentShares, Unauthorized) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data())
def test_cached_row_reductions_match_fresh_schemes(q, data):
    """Every coalition, in a drawn order, decided twice on one scheme
    (the second time from its cache) and once with an empty cache: the
    same secrets for dealt shares, the same InconsistentShares once a
    perturbed row joins them and the same Unauthorized, and
    ``is_authorized`` as ``in_span``."""
    warm = data.draw(sss_schemes(q, max_n=7))
    cold = SssScheme(warm.code, warm.secret_column)
    f, parts = warm.field, warm.participants
    secrets = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                 max_size=3))
    dealt = deal_batch(warm, secrets, range(len(secrets)))
    rng = random.Random(data.draw(st.integers(0, 99)))
    coalitions = [tuple(rng.sample(ids, len(ids)))
                  for size in range(len(parts) + 1)
                  for ids in itertools.combinations(parts, size)]
    for ids in coalitions:
        rows = [[sv.shares[i] for i in ids] for sv in dealt]
        perturbed = [list(r) for r in rows]
        if ids:
            pos = rng.randrange(len(ids))
            perturbed[-1][pos] = int(f.add_table[perturbed[-1][pos],
                                                 rng.randrange(1, q)])
        for share_rows in (rows, perturbed):
            cold._reductions.cache_clear()
            want = outcome(lambda: reconstruct_batch(cold, ids, share_rows))
            for _ in range(2):
                assert outcome(lambda: reconstruct_batch(
                    warm, ids, share_rows)) == want
        spans = in_span(f, warm.secret_col(), participant_cols(warm, ids))
        assert is_authorized(warm, ids) == (spans is not None)
        misses = warm._reductions.cache_info().misses
        assert (warm._reductions(ids) is None) == (spans is None)
        assert warm._reductions.cache_info().misses == misses
    info = warm._reductions.cache_info()
    assert info.currsize == info.misses == len(coalitions)


def perfectness_oracle(scheme, subset, values):
    """The per-coalition check that ``perfectness_batch`` replaced, on the
    given (dealings, n) value rows: patterns grouped by
    ``np.unique(axis=0)``, authorization by ``in_span``."""
    ids = scheme._check(subset)
    q = scheme.field.q
    pats = values[:, [i - 1 for i in ids]]
    secrets = values[:, scheme.secret_column - 1].astype(np.int64)
    if pats.shape[1] == 0:
        groups = np.zeros(len(pats), dtype=np.int64)
        n_groups = 1
    else:
        uniq, groups = np.unique(pats, axis=0, return_inverse=True)
        n_groups = len(uniq)
    table = np.zeros((n_groups, q), dtype=np.int64)
    np.add.at(table, (groups, secrets), 1)
    cols = participant_cols(scheme, ids)
    authorized = in_span(scheme.field, scheme.secret_col(), cols) is not None
    if authorized:
        ok = bool(np.all((table > 0).sum(axis=1) == 1))
    else:
        ok = bool(np.all(table == table[:, :1]) and np.all(table[:, 0] > 0))
    return PerfectnessReport(subset=tuple(sorted(ids)),
                             authorized=authorized, ok=ok, patterns=n_groups)


def all_values(code):
    return np.concatenate([v for _, v in codeword_blocks(code)])


@pytest.mark.parametrize("q", FIELDS)
@SETTINGS
@given(data=st.data(), chunk=chunks,
       dealings=st.sampled_from(("all", "thinned", "corrupted")))
def test_perfectness_batch_matches_per_coalition_oracle(q, data, chunk,
                                                        dealings):
    scheme = data.draw(sss_schemes(q, max_k=3, max_n=7))
    parts = scheme.participants
    subsets = data.draw(st.lists(
        st.lists(st.sampled_from(parts), unique=True) if parts
        else st.just([]), max_size=8))
    values = all_values(scheme.code)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if dealings != "all":
        # a random part of the dealings is no longer uniform, so the
        # unauthorized test can fail
        values = values[rng.random(len(values)) < 0.6]
        assume(len(values))
    if dealings == "corrupted":
        # copies of some dealings with another secret put two secrets on
        # one pattern, so the authorized test fails too
        extra = values[rng.random(len(values)) < 0.3]
        c0 = scheme.secret_column - 1
        extra[:, c0] = scheme.field.add_table[
            extra[:, c0], rng.integers(1, q, len(extra))]
        values = np.vstack([values, extra])
    with mock.patch.object(sss, "_CHUNK", chunk), \
            mock.patch.object(sss, "codeword_blocks",
                              lambda code, budget: iter([(None, values)])):
        got = perfectness_batch(scheme, subsets)
    assert got == [perfectness_oracle(scheme, s, values) for s in subsets]


def test_perfectness_batch_on_a_coalition_wider_than_int64_keys():
    # a binary [70, 2] code: secret column (1, 1), 65 participants on
    # (1, 0), then four on (0, 1) and (1, 1) by turns; the whole coalition
    # has 2^69 possible patterns, and the dealings (a, 0) and (a, 1) differ
    # only past the first 64 of its columns
    gen = np.array([[1] + [1] * 65 + [0, 1, 0, 1],
                    [1] + [0] * 65 + [1, 1, 1, 1]])
    scheme = SssScheme(LinearCode(GFMatrix(build_field(2), gen)))
    parts = scheme.participants
    assert 2 ** len(parts) >= 2**63
    subsets = [parts, parts[::-1], parts[:63], parts[1:], parts[60:], ()]
    values = all_values(scheme.code)
    assert perfectness_batch(scheme, subsets) == [
        perfectness_oracle(scheme, s, values) for s in subsets]
    # thinned dealings: the wide patterns must stay apart for the verdicts
    # and pattern counts to agree
    values = values[[0, 1, 3]]
    with mock.patch.object(sss, "codeword_blocks",
                           lambda code, budget: iter([(None, values)])):
        got = perfectness_batch(scheme, subsets)
    assert got == [perfectness_oracle(scheme, s, values) for s in subsets]
