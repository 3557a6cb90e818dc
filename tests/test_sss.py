"""Tests for the Massey-style secret sharing layer."""

import dataclasses
import gc
import itertools
import random
import sys
import threading
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from mincodes import analysis, codes, matrix, sss
from mincodes.codes import LinearCode, random_code
from mincodes.constructions import first
from mincodes.errors import (
    BadParams,
    BudgetExceeded,
    InconsistentShares,
    Unauthorized,
    ZeroColumn,
)
from mincodes.field import GF, build_field
from mincodes.matrix import GFMatrix, in_span
from mincodes.sss import (
    SssScheme,
    deal,
    deal_batch,
    is_authorized,
    minimal_authorized_sets,
    perfectness_batch,
    perfectness_check,
    reconstruct,
    reconstruct_batch,
)


def make_code(q, rows):
    return LinearCode(GFMatrix(build_field(q), np.array(rows)))


def dealer_coeffs(scheme, sv):
    """The dealing's coefficient vector u, the one solution of u.G = the
    secret at the secret column and the shares elsewhere; None when that
    word is no codeword."""
    word = [sv.shares.get(i, sv.secret) for i in range(1, scheme.code.n + 1)]
    u = in_span(scheme.field, word, scheme.code.gen.data)
    return None if u is None else tuple(int(x) for x in u)


@pytest.fixture
def f22():
    return SssScheme(first(2, 2))


@pytest.fixture
def f33():
    return SssScheme(first(3, 3))


def test_scheme_participants(f22):
    assert f22.participants == (2, 3)
    assert f22.secret_column == 1


def test_scheme_rejects_zero_columns():
    code = make_code(2, [[1, 0, 1], [0, 0, 1]])
    with pytest.raises(ZeroColumn):
        SssScheme(code)


def test_scheme_bad_secret_column(f22):
    with pytest.raises(BadParams):
        SssScheme(f22.code, secret_column=4)


@pytest.mark.parametrize("column", [1.5, 2.0, "1", None],
                         ids=["float", "integral-float", "str", "none"])
def test_scheme_rejects_a_non_integer_secret_column(f22, column):
    with pytest.raises(BadParams, match="must be an integer"):
        SssScheme(f22.code, secret_column=column)


# -- dealing ---------------------------------------------------------------


def test_deal_frozen_example(f22):
    sv = deal(f22, 1, seed=1)
    assert dealer_coeffs(f22, sv) == (1, 0)
    assert sv.shares == {2: 0, 3: 1}
    assert sv.secret == 1 and sv.seed == 1


def test_deal_zero_dealer_gives_zero_shares(f22):
    sv = deal(f22, 0, seed=1)
    assert dealer_coeffs(f22, sv) == (0, 0)
    assert sv.shares == {2: 0, 3: 0}


def test_deal_respects_secret_constraint(f22, f33):
    for scheme in (f22, f33):
        q = scheme.code.q
        for secret in range(q):
            for seed in range(10):
                sv = deal(scheme, secret, seed)
                word = scheme.code.codeword(dealer_coeffs(scheme, sv))
                assert word.values[0] == secret
                assert sv.shares == {
                    i: word.values[i - 1] for i in scheme.participants
                }


def test_deal_is_replayable(f33):
    a = deal(f33, 2, seed=5)
    b = deal(f33, 2, seed=5)
    assert a == b
    # nothing beyond the secret, the shares and the seed is kept
    assert [f.name for f in dataclasses.fields(a)] == [
        "secret", "shares", "seed"]


def test_deal_bad_secret(f22):
    with pytest.raises(BadParams):
        deal(f22, 2, seed=0)


def test_deal_batch_rejects_mismatched_seeds(f22):
    with pytest.raises(BadParams, match="2 secrets but 1 seeds"):
        deal_batch(f22, [0, 1], [3])


def test_unseeded_deal_never_uses_random_random(f33):
    with mock.patch("random.Random",
                    side_effect=AssertionError("seeded generator used")):
        with pytest.raises(AssertionError):
            deal(f33, 1, seed=3)  # the patch reaches seeded dealings
        dealt = [deal(f33, 1) for _ in range(30)]
        dealt += deal_batch(f33, [0, 1, 2] * 10)
    for sv in dealt:
        assert sv.seed is None
        word = f33.code.codeword(dealer_coeffs(f33, sv))
        assert word.values[0] == sv.secret
        assert sv.shares == {i: word.values[i - 1] for i in f33.participants}
    # 30 dealings of one secret with 2 free draws each: all equal with
    # probability 9**-29; G is injective, so distinct coefficient vectors
    # are distinct share tuples
    assert len({tuple(sv.shares.values()) for sv in dealt[:30]}) > 1


# -- authorization and reconstruction ---------------------------------------


def test_is_authorized_frozen(f22):
    assert is_authorized(f22, {2, 3})
    assert not is_authorized(f22, {2})
    assert not is_authorized(f22, {3})
    assert not is_authorized(f22, set())


def test_authorization_validates_ids(f22):
    with pytest.raises(BadParams):
        is_authorized(f22, {1, 2})  # the secret column is not a participant
    with pytest.raises(BadParams):
        is_authorized(f22, {2, 4})


def test_reconstruct_frozen(f22):
    assert reconstruct(f22, [2, 3], [0, 1]) == 1
    assert reconstruct(f22, [2, 3], [0, 0]) == 0


def test_reconstruct_unauthorized(f22):
    with pytest.raises(Unauthorized):
        reconstruct(f22, [2], [0])


def test_reconstruct_inconsistent_shares(f33):
    # columns 4, 5, 2 are dependent (all end in 0), so some share triples
    # match no codeword: consistency requires v4 = v5 - v2
    assert is_authorized(f33, [4, 5, 2])
    assert reconstruct(f33, [4, 5, 2], [2, 0, 1]) == 1
    with pytest.raises(InconsistentShares):
        reconstruct(f33, [4, 5, 2], [1, 1, 1])


def test_reconstruct_batch_names_first_inconsistent_row(f33):
    ids = [4, 5, 2]
    assert reconstruct_batch(f33, ids, [[2, 0, 1], [0, 0, 0]]).tolist() \
        == [1, 0]
    with pytest.raises(InconsistentShares) as info:
        reconstruct_batch(f33, ids, [[2, 0, 1], [1, 1, 1], [0, 1, 0]])
    assert str(info.value) == "shares [1, 1, 1] match no codeword on [2, 4, 5]"
    assert reconstruct_batch(f33, ids, []).tolist() == []


def test_reconstruct_batch_checks_in_order(f33):
    # unknown participants, then row length, then range, then authorization
    with pytest.raises(BadParams, match="unknown participants"):
        reconstruct_batch(f33, [2, 10], [[0]])
    with pytest.raises(BadParams, match="1 participants but 2 shares"):
        reconstruct_batch(f33, [2], [[0], [0, 5]])
    with pytest.raises(BadParams, match=r"out of range: \[0, 3\]"):
        reconstruct_batch(f33, [2, 3], [[0, 0], [0, 3]])
    with pytest.raises(Unauthorized):
        reconstruct_batch(f33, [2], [[0], [1]])


def test_reconstruct_validates_input(f22):
    with pytest.raises(BadParams):
        reconstruct(f22, [2, 3], [0])
    with pytest.raises(BadParams):
        reconstruct(f22, [2, 3], [0, 2])


def test_round_trip_all_secrets_and_seeds():
    schemes = [
        SssScheme(first(2, 2)),
        SssScheme(first(3, 3)),
        SssScheme(random_code(5, 3, 3, seed=7)),
    ]
    for scheme in schemes:
        subset = minimal_authorized_sets(scheme)[0].indices
        for secret in range(scheme.code.q):
            for seed in range(4):
                sv = deal(scheme, secret, seed)
                shares = [sv.shares[i] for i in subset]
                assert reconstruct(scheme, subset, shares) == secret


def test_reconstruct_solver_independent(f33):
    # every solution x of the span system must give the same secret; the
    # dependent coalition {4, 5, 2} has several
    sv = deal(f33, 2, seed=3)
    ids = (4, 5, 2)
    shares = [sv.shares[i] for i in ids]
    cols = [f33.code.gen.data[:, i - 1] for i in ids]
    f = f33.field
    target = tuple(f33.secret_col())
    seen = set()
    for x in itertools.product(range(3), repeat=3):
        combo = [0, 0, 0]
        for xi, col in zip(x, cols):
            combo = [f.add_table[c, f.mul_table[xi, v]]
                     for c, v in zip(combo, col)]
        if tuple(combo) == target:
            acc = 0
            for xi, v in zip(x, shares):
                acc = int(f.add_table[acc, f.mul_table[xi, v]])
            seen.add(acc)
    assert len(seen) > 1 or len(seen) == 1  # sanity: there are solutions
    assert seen == {2}
    assert reconstruct(f33, ids, shares) == 2


# -- access structures --------------------------------------------------------


def test_minimal_sets_frozen(f22):
    for method in ("dual", "search", "auto"):
        sets = minimal_authorized_sets(f22, method=method)
        assert [a.indices for a in sets] == [(2, 3)]
        assert not any(is_authorized(f22, sub) for a in sets
                       for sub in itertools.combinations(
                           a.indices, len(a.indices) - 1))


def test_minimal_sets_empty_for_identity():
    scheme = SssScheme(make_code(2, [[1, 0], [0, 1]]))
    assert minimal_authorized_sets(scheme, method="search") == []
    assert minimal_authorized_sets(scheme, method="dual") == []


def test_minimal_sets_methods_agree():
    for scheme in (SssScheme(first(3, 3)),
                   SssScheme(random_code(5, 3, 3, seed=7))):
        dual = minimal_authorized_sets(scheme, method="dual")
        search = minimal_authorized_sets(scheme, method="search")
        assert dual == search
        assert len(dual) > 0


def test_minimal_sets_are_minimal_and_monotone(f33):
    sets = minimal_authorized_sets(f33)
    indices = [a.indices for a in sets]
    assert indices == sorted(indices, key=lambda s: (len(s), s))
    for a in sets:
        assert is_authorized(f33, a.indices)
        for drop in a.indices:
            smaller = tuple(i for i in a.indices if i != drop)
            assert not is_authorized(f33, smaller)
        extra = next(i for i in f33.participants if i not in a.indices)
        assert is_authorized(f33, a.indices + (extra,))


def test_minimal_sets_bad_method(f22):
    with pytest.raises(BadParams):
        minimal_authorized_sets(f22, method="guess")


def test_minimal_sets_budget(f33):
    with pytest.raises(BudgetExceeded):
        minimal_authorized_sets(f33, method="search", budget=10)


def test_dual_access_builds_and_walks_the_dual_once(f33):
    duals, walks = [], []
    real_dual, real_blocks = sss.dual_code, analysis.projective_blocks

    def dual(code):
        duals.append(code)
        return real_dual(code)

    def blocks(code, *args, **kwargs):
        walks.append(code)
        return real_blocks(code, *args, **kwargs)

    with mock.patch.object(sss, "dual_code", dual), \
            mock.patch.object(analysis, "projective_blocks", blocks):
        sets = minimal_authorized_sets(f33, method="dual")
        assert minimal_authorized_sets(f33, method="dual") == sets
        # the budget is still checked on every call, kept walk or not
        with pytest.raises(BudgetExceeded) as info:
            minimal_authorized_sets(f33, method="dual",
                                    budget=f33.dual.size - 1)
    assert info.value.needed == f33.dual.size == 3 ** 6
    assert duals == [f33.code]
    assert walks == [f33.dual]


def test_dual_path_decodes_minimal_rows_in_blocks(f33):
    want = minimal_authorized_sets(SssScheme(f33.code), method="dual")
    sizes = []
    real_rows = analysis._class_rows

    def class_rows(code, index):
        sizes.append(len(index))
        return real_rows(code, index)

    # blocks of at most max(1, _ENTRIES // n) = 4 rows of the dual's n = 9
    with mock.patch.object(codes, "_ENTRIES", 4 * 9), \
            mock.patch.object(analysis, "_class_rows", class_rows):
        got = minimal_authorized_sets(SssScheme(f33.code), method="dual")
    assert got == want
    assert len(sizes) > 1 and max(sizes) <= 4


def test_search_budget_counts_coalitions(f33):
    with pytest.raises(BudgetExceeded) as info:
        minimal_authorized_sets(f33, method="search", budget=10)
    assert info.value.unit == "coalitions"
    assert info.value.needed == 8 + 28 + 56
    assert str(info.value) == "needs 92 coalitions, budget is 10"


@pytest.mark.parametrize("method", ["auto", "dual", "search"])
@pytest.mark.parametrize("budget", ["x", None, 1e9],
                         ids=["str", "none", "float"])
def test_access_budget_must_be_an_integer(f33, method, budget):
    with pytest.raises(BadParams, match="^budget must be an integer"):
        minimal_authorized_sets(f33, method=method, budget=budget)


@pytest.mark.parametrize("method", ["dual", "search"])
def test_access_sets_hold_python_ints(f33, method):
    # numpy scalars would break the CLI's JSON output
    sets = minimal_authorized_sets(f33, method=method)
    assert sets
    for a in sets:
        assert type(a.indices) is tuple
        assert all(type(i) is int for i in a.indices)


# -- perfectness ----------------------------------------------------------------


def test_perfectness_frozen(f22):
    rep = perfectness_check(f22, {3})
    assert not rep.authorized and rep.ok

    rep = perfectness_check(f22, {2, 3})
    assert rep.authorized and rep.ok

    rep = perfectness_check(f22, set())
    assert not rep.authorized and rep.ok


def test_perfectness_batch_keeps_input_order(f22):
    subsets = [{2, 3}, set(), (3,), [3, 2]]
    assert perfectness_batch(f22, subsets) == [
        perfectness_check(f22, s) for s in subsets]
    assert [r.subset for r in perfectness_batch(f22, subsets)] == [
        (2, 3), (), (3,), (2, 3)]
    with pytest.raises(BudgetExceeded):
        perfectness_batch(f22, subsets, budget=3)


def test_perfectness_budget_counts_dealing_entries(f33):
    # the 27 dealings of first(3,3) hold 27 * (9 + 1) entries with the
    # padding column; a budget that covers the words but not the entries
    # is refused before any block is built
    code = f33.code
    entries = code.size * (code.n + 1)
    built = []
    real = sss.codeword_blocks

    def spy(code, budget):
        for block in real(code, budget):
            built.append(block)
            yield block

    subsets = [(2,), (2, 3, 4)]
    with mock.patch.object(sss, "codeword_blocks", spy):
        for budget in (code.size, entries - 1):
            for call in (lambda: perfectness_batch(f33, subsets, budget),
                         lambda: perfectness_check(f33, (2,), budget)):
                with pytest.raises(BudgetExceeded) as err:
                    call()
                assert err.value.unit == "dealing entries"
                assert str(err.value) == (
                    f"needs {entries} dealing entries, budget is {budget}")
        assert built == []
        assert perfectness_batch(f33, subsets, entries) == \
            perfectness_batch(f33, subsets)
        assert perfectness_check(f33, (2,), entries) == \
            perfectness_check(f33, (2,))
    assert built


def test_perfectness_batch_pads_each_part_to_its_own_widest(f33):
    # first(3,3) has 27 dealings, so this _CHUNK puts 40 coalitions in a
    # part; the parts go by size, and each is ranked at its own width
    subsets = [ids for size in range(len(f33.participants) + 1)
               for ids in itertools.combinations(f33.participants, size)]
    random.Random(0).shuffle(subsets)
    shapes = []
    real = sss._authorized

    def authorized(scheme, cols):
        shapes.append(cols.shape)
        return real(scheme, cols)

    with mock.patch.object(sss, "_CHUNK", 27 * 40), \
            mock.patch.object(sss, "_authorized", authorized):
        got = perfectness_batch(f33, subsets)
    assert got == [perfectness_check(f33, ids) for ids in subsets]
    sizes = sorted(map(len, subsets))
    parts = [sizes[i:i + 40] for i in range(0, len(sizes), 40)]
    assert shapes == [(len(part), part[-1]) for part in parts]
    assert shapes[0][1] < shapes[-1][1]


@pytest.mark.parametrize("subsets", [3, None, 2.5],
                         ids=["int", "none", "float"])
def test_perfectness_batch_rejects_non_iterable_subsets(f22, subsets):
    with pytest.raises(BadParams, match="iterable of coalitions"):
        perfectness_batch(f22, subsets)


def test_perfectness_all_subsets():
    for scheme in (SssScheme(first(2, 2)), SssScheme(first(3, 3))):
        parts = scheme.participants
        for size in range(len(parts) + 1):
            for subset in itertools.combinations(parts, size):
                assert perfectness_check(scheme, subset).ok, subset


# -- alternative secret column -----------------------------------------------


def test_secret_column_permutation():
    scheme = SssScheme(first(2, 2), secret_column=3)
    assert scheme.participants == (1, 2)
    sets = minimal_authorized_sets(scheme, method="search")
    assert [a.indices for a in sets] == [(1, 2)]
    assert minimal_authorized_sets(scheme, method="dual") == sets
    for secret in range(2):
        sv = deal(scheme, secret, seed=0)
        shares = [sv.shares[i] for i in (1, 2)]
        assert reconstruct(scheme, (1, 2), shares) == secret


# -- integer inputs -------------------------------------------------------------


def test_is_authorized_rejects_float_ids(f33):
    with pytest.raises(BadParams, match="participants must be a sequence"):
        is_authorized(f33, [2.9])


def test_reconstruct_rejects_float_shares(f33):
    with pytest.raises(BadParams, match="shares must be a sequence"):
        reconstruct(f33, [4, 5, 2], [1.7, 0, 0])


def test_deal_rejects_float_secret(f33):
    with pytest.raises(BadParams, match="secrets must be a sequence"):
        deal(f33, 1.5, 3)


@pytest.mark.parametrize("call", [
    lambda s: deal(s, 1, [1]),
    lambda s: deal(s, 1, 1.5),
    lambda s: deal(s, 1, "abc"),
    lambda s: deal_batch(s, [1, 2], seeds=5),
    lambda s: deal_batch(s, [1, 2], seeds=[None, 2.0]),
], ids=["list", "float", "str", "bare-int", "float-in-list"])
def test_deal_rejects_non_integer_seeds(f33, call):
    with pytest.raises(BadParams, match="seeds must be a sequence"):
        call(f33)


def test_reconstruct_rejects_string_ids(f33):
    with pytest.raises(BadParams, match="participants must be a sequence"):
        reconstruct(f33, ("a",), [1])


def test_reconstruct_batch_rejects_a_bare_row(f33):
    with pytest.raises(BadParams, match="shares must be a sequence"):
        reconstruct_batch(f33, [4, 5, 2], [1, 2, 0])


def test_numpy_integers_still_pass(f33):
    ids = np.array([4, 5, 2])
    assert is_authorized(f33, ids)
    assert reconstruct(f33, ids, np.array([2, 0, 1])) == 1
    assert deal(f33, np.int64(2), 5) == deal(f33, 2, 5)
    assert deal(f33, 2, np.int64(5)) == deal(f33, 2, 5)


# -- the per-scheme row reductions ----------------------------------------------


def counting_rref():
    """A patch of ``matrix._rref_array``, where ``matrix._solve`` looks it
    up, and the list its calls go to."""
    calls = []
    rref_array = matrix._rref_array

    def counted(*args):
        calls.append(args)
        return rref_array(*args)

    return mock.patch.object(matrix, "_rref_array", counted), calls


def test_second_call_reuses_the_row_reduction(f33):
    patch, calls = counting_rref()
    with patch:
        assert reconstruct(f33, [4, 5, 2], [2, 0, 1]) == 1
        assert reconstruct(f33, [4, 5, 2], [0, 0, 0]) == 0
        assert is_authorized(f33, [4, 5, 2])
        assert len(calls) == 1
        # the key keeps the caller's order, which the reduced rows follow
        assert reconstruct(f33, [2, 4, 5], [1, 2, 0]) == 1
        assert len(calls) == 2
        assert not is_authorized(f33, [2])
        with pytest.raises(Unauthorized):
            reconstruct(f33, [2], [0])
        assert len(calls) == 3


@pytest.mark.parametrize("ids", [(2, 4), (4, 5, 2)],
                         ids=["minimal", "dependent"])
def test_a_warm_reconstruct_is_one_matmul(f33, ids):
    counts = Counter()

    def spy(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    dealt = deal(f33, 2, seed=0)
    shares = [dealt.shares[i] for i in ids]
    assert reconstruct(f33, ids, shares) == 2
    with mock.patch.object(GF, "matmul", spy("matmul", GF.matmul)), \
            mock.patch.object(matrix, "_rref_array",
                              spy("rref", matrix._rref_array)):
        assert reconstruct(f33, ids, shares) == 2
    assert counts == {"matmul": 1}


def test_row_reductions_hold_no_reference_to_the_scheme(f33):
    scheme = SssScheme(f33.code)
    assert is_authorized(scheme, [2, 3, 4])
    ref = weakref.ref(scheme)
    gc.disable()
    try:
        del scheme
        assert ref() is None  # freed by reference counts: no cycle
    finally:
        gc.enable()


def test_row_reductions_are_bounded(f33):
    coalitions = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
    # the bound is read when the scheme is built
    with mock.patch.object(sss, "_SOLVER_CAP", 3):
        scheme = SssScheme(f33.code)
    assert scheme._reductions.cache_info().maxsize == 3
    for ids in coalitions * 2:
        dealt = deal(scheme, 1, seed=sum(ids))
        shares = [dealt.shares[i] for i in ids]
        if is_authorized(f33, ids):
            assert reconstruct(scheme, ids, shares) == 1
        else:
            with pytest.raises(Unauthorized):
                reconstruct(scheme, ids, shares)
        assert scheme._reductions.cache_info().currsize <= 3
    # kept, least recently used first: (2, 5), (3, 4), (3, 5); using
    # (2, 5) again makes (3, 4) the one that goes for (2, 3)
    patch, calls = counting_rref()
    with patch:
        is_authorized(scheme, (2, 5))
        assert calls == []
        is_authorized(scheme, (2, 3))
        assert len(calls) == 1
        for ids in [(3, 5), (2, 5), (2, 3)]:
            is_authorized(scheme, ids)
        assert len(calls) == 1
        is_authorized(scheme, (3, 4))
        assert len(calls) == 2


def test_cached_unauthorized_coalition_still_checks_shares(f33):
    assert not is_authorized(f33, [2])
    with pytest.raises(BadParams, match=r"out of range: \[3\]"):
        reconstruct(f33, [2], [3])
    with pytest.raises(Unauthorized):
        reconstruct(f33, [2], [0])
    info = f33._reductions.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_threads_sharing_a_scheme_agree(f33):
    # more threads than coalitions fit in the cache, switching often, so
    # lookups, inserts and evictions interleave
    coalitions = list(itertools.combinations(f33.participants, 3))
    with mock.patch.object(sss, "_SOLVER_CAP", 2):
        scheme = SssScheme(f33.code)
    dealt = deal(scheme, 2, seed=1)
    want = {ids: is_authorized(f33, ids) for ids in coalitions}
    errors = []

    def work(offset):
        try:
            for _ in range(10):
                for ids in coalitions[offset:] + coalitions[:offset]:
                    if want[ids]:
                        shares = [dealt.shares[i] for i in ids]
                        assert reconstruct(scheme, ids, shares) == 2
                    else:
                        assert not is_authorized(scheme, ids)
        except Exception as err:  # reported below, in the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = scheme._reductions.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2
    assert info.misses > len(coalitions)  # entries were evicted
