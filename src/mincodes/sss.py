"""Secret sharing on a linear code, in Massey's arrangement.

One generator column is the secret column (the first one unless stated
otherwise); every other column belongs to one participant.  The dealer
draws a coefficient vector u uniformly among those with u.G_secret =
secret and hands participant i the coordinate of u.G at its column.  A
coalition can reconstruct exactly when the secret column lies in the
span of its columns, and the minimal such coalitions are read off the
minimal codewords of the dual code that are nonzero on the secret
column: the supports, less the secret column, of the minimal rows that
the dual's one walk marks, decoded in blocks, secret column first, so
that only the rows nonzero there are decoded at full width
(``analysis._minimal_rows``).  A scheme builds its dual
(``SssScheme.dual``) on first use and keeps it, so the walk is taken once
per scheme; the budget is still checked on every call.  Where the dual
is too big to enumerate they are found by a levelwise search instead:
coalition A is authorized exactly when rank [G_A] = rank [G_A | secret
column], and one ``matrix.column_ranks`` call takes both for a block.
The candidates of size s are the unauthorized coalitions of size s-1,
each extended by a larger participant, less those with an authorized
subset of size s-1; an authorized candidate is minimal, and the
unauthorized ones make the next size's candidates.

Each Massey operation has a batched form that the single call wraps:
``deal_batch`` makes many dealings with one matmul, ``reconstruct_batch``
decides a block of share rows for one coalition with one matmul against
the coalition's decoder, and ``perfectness_batch`` enumerates the q^k
dealings once for all the coalitions it checks.  A scheme solves each
coalition's columns for the secret column once (``_reduce``) and keeps
the decoder for ``reconstruct_batch`` and ``is_authorized``, for up to
``_SOLVER_CAP`` coalitions, dropping the least recently used first;
generator data is read-only, so a kept decoder cannot go stale.
Dealings draw from ``secrets.SystemRandom`` unless a seed is given; a
seed replays the same shares from ``random.Random(seed)``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .analysis import _minimal_rows
from .codes import (
    _CHUNK,
    DEFAULT_BUDGET,
    LinearCode,
    codeword_blocks,
    dual_code,
)
from .errors import (
    BadParams,
    InconsistentShares,
    Unauthorized,
    ZeroColumn,
    _int,
    _ints,
    _list,
    _spend,
)
from .matrix import _solve, column_ranks

# the class ``secrets`` exports; importing it from ``random`` avoids loading
# hmac and OpenSSL at import time
_SYSTEM_RANDOM = random.SystemRandom()

# most coalitions a scheme keeps a decoder for; first(4,4) has 828
# minimal coalitions and random [24,12]_2 (seed 1) 906
_SOLVER_CAP = 4096


class SssScheme:
    """A linear code with one column designated as the secret column.

    Participants are named by their 1-based generator column; with the
    default secret column 1 they are exactly {2, ..., n}.
    """

    def __init__(self, code: LinearCode, secret_column: int = 1):
        if code.zero_columns:
            raise ZeroColumn(
                f"generator has zero columns at {code.zero_columns}"
            )
        secret_column = _int(secret_column, "secret column")
        if not 1 <= secret_column <= code.n:
            raise BadParams(
                f"secret column must be in 1..{code.n}, got {secret_column}"
            )
        self.code = code
        self.field = code.field
        self.secret_column = secret_column
        self.participants = tuple(
            i for i in range(1, code.n + 1) if i != secret_column
        )
        self._members = frozenset(self.participants)
        # the dealer draws u = secret * x + draws @ N, where x . col = 1 and
        # N's rows span col's nullspace, both from one reduction of
        # [col | 1], so u . col = secret; _deal_map, [x; N] times G on the
        # participants' columns, maps [secret | draws] to their shares
        f, gen = self.field, code.gen.data
        x, null = _solve(f, self.secret_col()[None], [1])
        self._deal_map = f.matmul(np.vstack([x, null]),
                                  gen[:, [i - 1 for i in self.participants]])
        self._rank = column_ranks(f, gen)
        # coalition ids -> decoder; the partial holds no reference to the
        # scheme, so the cache makes no cycle through it
        self._reductions = functools.lru_cache(maxsize=_SOLVER_CAP)(
            functools.partial(_reduce, f, gen, secret_column - 1))

    @functools.cached_property
    def dual(self) -> LinearCode:
        """The dual code, built on first use and kept, so that its one walk
        serves every dual access on the scheme."""
        return dual_code(self.code)

    def secret_col(self) -> np.ndarray:
        return self.code.gen.data[:, self.secret_column - 1]

    def _check(self, subset) -> tuple[int, ...]:
        ids = tuple(_ints(subset, "participants"))
        if len(set(ids)) != len(ids):
            raise BadParams(f"duplicate participants in {ids}")
        bad = [i for i in ids if i not in self._members]
        if bad:
            raise BadParams(f"unknown participants {bad}")
        return ids

    def __repr__(self) -> str:
        return (f"SssScheme({self.code!r}, "
                f"secret_column={self.secret_column})")


@dataclass(frozen=True)
class ShareVector:
    """One dealing: the secret, the per-participant shares, and the seed.

    seed is None for a dealing drawn from the system's randomness.  The
    dealer's coefficients are ``matrix.in_span`` of the dealt word over G.
    """

    secret: int
    shares: dict[int, int]
    seed: int | None


@dataclass(frozen=True)
class AccessSet:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class PerfectnessReport:
    """Exhaustive dealer-enumeration verdict for one coalition.

    For an unauthorized coalition ok means every share pattern is
    compatible with all q secrets in equal counts; for an authorized one
    it means every pattern pins down exactly one secret.
    """

    subset: tuple[int, ...]
    authorized: bool
    ok: bool


def deal_batch(scheme: SssScheme, secrets, seeds=None) -> list[ShareVector]:
    """One dealing per secret: u uniform with u.G_secret = secret.

    The coefficients at the rows other than the first nonzero row of the
    secret column are drawn in row order, from random.Random(seed) for a
    row with a seed (so its dealing replays) and from the system's
    randomness for a row whose seed is None; seeds=None leaves every row
    unseeded.  The pivot coefficient is solved for, and all dealings come
    out of one matmul with the scheme's dealing map.
    """
    q, k = scheme.field.q, scheme.code.k
    secrets = _ints(secrets, "secrets")
    seeds = ([None] * len(secrets) if seeds is None
             else _ints(seeds, "seeds", optional=True))
    if len(seeds) != len(secrets):
        raise BadParams(f"{len(secrets)} secrets but {len(seeds)} seeds")
    draws = []
    for secret, seed in zip(secrets, seeds):
        if not 0 <= secret < q:
            raise BadParams(f"secret must be in 0..{q - 1}, got {secret}")
        rng = _SYSTEM_RANDOM if seed is None else random.Random(seed)
        draws.append([secret] + [rng.randrange(q) for _ in range(k - 1)])
    shares = scheme.field.matmul(
        np.array(draws, dtype=np.int64).reshape(-1, k),
        scheme._deal_map).tolist()
    return [ShareVector(secret, dict(zip(scheme.participants, row)), seed)
            for secret, seed, row in zip(secrets, seeds, shares)]


def deal(scheme: SssScheme, secret: int, seed: int | None = None
         ) -> ShareVector:
    """One dealing of secret; see ``deal_batch``.  Without a seed the
    coefficients come from the system's randomness."""
    return deal_batch(scheme, [secret], [seed])[0]


def _reduce(field, gen: np.ndarray, secret_index: int,
            ids: tuple[int, ...]):
    """The decoder of the coalition with gen's 1-based columns ids: None
    when it is unauthorized, else D = [N^T | x] in gen's dtype, from one
    ``matrix._solve`` of G_ids x = s, the secret column; the f = len(ids)
    - rank G_ids rows of N are a basis of G_ids's right nullspace.  A share
    row v is some u G_ids iff v N^T = 0, and then its secret is u s = v x.
    A minimal coalition has f = 0, and D is the recombination vector."""
    x, null = _solve(field, gen[:, [i - 1 for i in ids]], gen[:, secret_index])
    if x is None:
        return None
    return np.column_stack([null.T, x]).astype(gen.dtype, order="C")


def is_authorized(scheme: SssScheme, subset) -> bool:
    """Whether the coalition's columns span the secret column."""
    return scheme._reductions(scheme._check(subset)) is not None


def reconstruct_batch(scheme: SssScheme, subset, share_rows) -> np.ndarray:
    """Recover the secret of each row of shares held by one coalition.

    The coalition's decoder, made once per scheme and coalition (see
    ``_reduce``), decides authorization, and one matmul of the share rows
    with it gives, per row, f check entries that are all zero exactly when
    the row matches some codeword, and the secret, which is the same for
    every codeword the row matches.  The first row that matches none is
    named in the InconsistentShares raised.
    """
    ids = scheme._check(subset)
    m, q = len(ids), scheme.field.q
    rows = []
    for shares in _list(share_rows, "share_rows", "share sequences"):
        vals = _ints(shares, "shares")
        if len(vals) != m:
            raise BadParams(f"{m} participants but {len(vals)} shares")
        if any(not 0 <= v < q for v in vals):
            raise BadParams(f"share values out of range: {vals}")
        rows.append(vals)
    dec = scheme._reductions(ids)
    if dec is None:
        raise Unauthorized(f"coalition {sorted(ids)} cannot reconstruct")
    got = scheme.field.matmul(
        np.array(rows, dtype=np.int64).reshape(len(rows), m), dec)
    # a minimal coalition's decoder has no check columns (f = 0): testing
    # the width skips a numpy call that costs over a tenth of a reconstruct
    if dec.shape[1] > 1 and got[:, :-1].any():
        raise InconsistentShares(
            f"shares {rows[int(got[:, :-1].any(axis=1).argmax())]} match "
            f"no codeword on {sorted(ids)}")
    return got[:, -1].astype(np.int64)


def reconstruct(scheme: SssScheme, subset, shares) -> int:
    """Recover the secret from an authorized coalition's shares; see
    ``reconstruct_batch``.  Inconsistent shares are rejected."""
    return int(reconstruct_batch(scheme, subset, [shares])[0])


def _authorized(scheme: SssScheme, cols: np.ndarray) -> np.ndarray:
    """Whether each row of an (M, s) block of 0-based generator columns
    spans the secret column: whether adding the secret column leaves its
    rank unchanged.  Both ranks of all M rows come from one kernel call on
    one (2M, s+1) index in cols' dtype, which must hold n: each row padded
    with the zero column n, then with the secret column, so the two sets
    have one width even for s = 0."""
    m, s = cols.shape
    idx = np.empty((2 * m, s + 1), dtype=cols.dtype)
    idx[:m, :s] = idx[m:, :s] = cols
    idx[:m, s] = scheme.code.n
    idx[m:, s] = scheme.secret_column - 1
    ranks = scheme._rank(idx)
    return ranks[:m] == ranks[m:]


def _search_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    n, k = scheme.code.n, scheme.code.k
    _spend(sum(math.comb(n - 1, size) for size in range(1, k + 1)), budget,
           "coalitions")
    # coalitions are rows of ascending participant positions 0..n-2, in a
    # dtype that also holds the generator columns and the zero column n
    dtype = np.min_scalar_type(n)
    ids = np.array(scheme.participants)
    cols = (ids - 1).astype(dtype)
    pos = np.arange(n - 1, dtype=dtype)
    # binom[x, i] = C(x, i), row by row down Pascal's triangle; a coalition
    # c_0 < ... < c_{s-1} has colex rank sum_i C(c_i, i+1) among its size
    binom = np.zeros((n, k), dtype=np.int64)
    binom[:, 0] = 1
    for i in range(1, k):
        np.cumsum(binom[:-1, i - 1], out=binom[1:, i])
    # prefixes per chunk: at most _CHUNK extensions, so as many candidates
    step = max(1, _CHUNK // max(1, n - 1))
    # the last size's unauthorized coalitions, in chunks of prefixes, and
    # by colex rank whether each coalition of that size is unauthorized;
    # the empty coalition is, as the secret column is nonzero
    blocks, unauth = [np.zeros((1, 0), dtype=dtype)], np.ones(1, dtype=bool)
    found: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        prefixes, blocks, below = blocks, [], unauth
        unauth = np.zeros(math.comb(n - 1, size) if size < k else 0,
                          dtype=bool)
        while prefixes:
            pre = prefixes.pop(0)  # each chunk is freed once extended
            # dropping c_j shifts every later c_i down to place i-1, so the
            # prefix less c_j has rank sum_{i<j} own_i + sum_{i>j} low_i:
            # the running sum of own - low, plus all of low, less own_j
            own = binom[pre, np.arange(1, size)]
            low = binom[pre, np.arange(size - 1)]
            drop = np.cumsum(own - low, axis=1) - own
            drop += low.sum(axis=1, keepdims=True)
            # each prefix extended by every larger position, in
            # lexicographic order
            row, ext = np.nonzero(pos > pre[:, -1:] if size > 1
                                  else np.ones((1, n - 1), dtype=bool))
            # a candidate less c_j, j < s-1, is its prefix less c_j and
            # then c_{s-1}; less c_{s-1}, it is its unauthorized prefix
            keep = below[drop[row] + binom[ext, size - 1, None]].all(axis=1)
            row, ext = row[keep], ext[keep]
            cand = np.empty((len(row), size), dtype=dtype)
            cand[:, :-1] = pre[row]
            cand[:, -1] = ext
            ok = _authorized(scheme, cols[cand])
            found.extend(map(tuple, ids[cand[ok]].tolist()))
            if size < k:
                bad = ~ok
                rest, row, ext = cand[bad], row[bad], ext[bad]
                # a candidate's rank: its prefix's, plus C(c_{s-1}, s)
                unauth[own.sum(axis=1)[row] + binom[ext, size]] = True
                blocks += [rest[i:i + step] for i in range(0, len(rest), step)]
    return [AccessSet(m) for m in found]


def _dual_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    # minimal words with one support are proportional: no coalition twice
    c0 = scheme.secret_column - 1
    supp = np.concatenate([values != 0 for values in
                           _minimal_rows(scheme.dual, budget, c0)])
    supp[:, c0] = False
    # order by size; within one size, the first column where two supports
    # differ belongs to the smaller tuple, so by the complemented packed
    # bytes next, the first column the most significant bit
    sizes = supp.sum(axis=1)
    packed = ~np.packbits(supp, axis=1)
    order = np.lexsort(np.vstack([packed.T[::-1], sizes]))
    # row i's participants, ascending, are cols[ends[i-1]:ends[i]]
    cols = (np.nonzero(supp[order])[1] + 1).tolist()
    ends = np.cumsum(sizes[order]).tolist()
    return [AccessSet(tuple(cols[s:e])) for s, e in zip([0] + ends, ends)]


def minimal_authorized_sets(scheme: SssScheme, method: str = "auto",
                            budget: int = DEFAULT_BUDGET) -> list[AccessSet]:
    """All minimal coalitions, sorted by size then lexicographically.

    method "dual" enumerates the dual code and maps its minimal codewords
    that are nonzero on the secret column, decoding only those at full
    width; "search" walks sizes 1..k levelwise: a size's candidates are
    the last size's unauthorized coalitions, each extended by a larger
    participant, that have no authorized subset one smaller (found by
    colex rank in a table of the last size), and up to ``codes._CHUNK``
    of them are ranked with and without the secret column in one
    ``column_ranks`` call; the authorized ones (the secret column adds no
    rank) are minimal, and the others extend to the next size, up to k:
    k-1 participant columns that extend the secret column to a basis,
    and each subset of them, stay unauthorized.  Its budget counts all
    C(n-1,1)+...+C(n-1,k) coalitions; "auto" picks dual when the dual's
    q^(n-k) words fit the budget, so a square code gets [] from it.
    """
    budget = _int(budget, "budget")
    n, k, q = scheme.code.n, scheme.code.k, scheme.code.q
    if method == "auto":
        method = "dual" if q ** (n - k) <= budget else "search"
    if method == "dual":
        if n == k:
            return []  # full-space code: zero dual, nothing is authorized
        return _dual_path(scheme, budget)
    if method == "search":
        return _search_path(scheme, budget)
    raise BadParams(f"unknown method {method!r}")


def _dealings(code: LinearCode, budget: int) -> np.ndarray:
    """The q^k codewords in canonical order, each followed by the zero
    column n, in one array that ``codeword_blocks`` fills a block at a
    time, so the words are never held twice."""
    values = np.zeros((code.size, code.n + 1), dtype=code.field.dtype)
    start = 0
    for _, v in codeword_blocks(code, budget):
        values[start:start + len(v), :-1] = v
        start += len(v)
    return values


def perfectness_batch(scheme: SssScheme, subsets,
                      budget: int = DEFAULT_BUDGET) -> list[PerfectnessReport]:
    """Enumerate all q^k dealings once and test each coalition's knowledge.

    The coalitions go in order of size, as many at a time as fit
    ``codes._CHUNK`` (coalition, dealing) rows.  A coalition's share
    patterns are its columns of the dealings, padded with a zero column n
    to the widest coalition of its part, not of the call.  Within a part
    the rows are sorted by coalition and then entry by entry
    (``np.lexsort``), and a new pattern number starts wherever the
    coalition or an entry changes.  No pattern is packed into a
    mixed-radix integer, so no coalition is too wide.  A coalition is
    authorized when the secret column adds no rank to its columns; the
    coalitions of a part are ranked with and without it in one
    ``column_ranks`` call.  Reports come in the order of ``subsets``.
    The dealings are held at once, in one array (``_dealings``), so the
    budget counts its q^k (n+1) entries, padding included, before any
    is built.
    """
    subsets = [scheme._check(s)
               for s in _list(subsets, "subsets", "coalitions")]
    _spend(scheme.code.size * (scheme.code.n + 1), budget, "dealing entries")
    if not subsets:
        return []
    values = _dealings(scheme.code, budget)
    dealings, q, n = len(values), scheme.field.q, scheme.code.n
    secret = values[:, scheme.secret_column - 1].astype(np.int64)
    step = max(1, _CHUNK // dealings)
    by_size = sorted(range(len(subsets)), key=lambda i: len(subsets[i]))
    reports = [None] * len(subsets)
    for start in range(0, len(by_size), step):
        which = by_size[start:start + step]
        width = len(subsets[which[-1]])
        part = np.array([subsets[i] + (n + 1,) * (width - len(subsets[i]))
                         for i in which],
                        dtype=np.int64).reshape(len(which), width) - 1
        auth = _authorized(scheme, part)
        flat = values[:, part].transpose(1, 0, 2).reshape(
            len(part) * dealings, width)
        owner = np.repeat(np.arange(len(part)), dealings)
        order = np.lexsort(np.vstack([flat.T[::-1], owner]))
        flat, owner = flat[order], owner[order]
        new = np.ones(len(flat), dtype=bool)
        new[1:] = ((owner[1:] != owner[:-1])
                   | (flat[1:] != flat[:-1]).any(axis=1))
        group = np.cumsum(new) - 1
        n_groups = int(group[-1]) + 1
        table = np.bincount(group * q + np.tile(secret, len(part))[order],
                            minlength=n_groups * q).reshape(n_groups, q)
        owner = owner[new]
        one = (table > 0).sum(axis=1) == 1
        even = np.all(table == table[:, :1], axis=1) & (table[:, 0] > 0)
        good = np.where(auth[owner], one, even)
        failed = np.bincount(owner[~good], minlength=len(part))
        for i, a, f in zip(which, auth, failed):
            reports[i] = PerfectnessReport(subset=tuple(sorted(subsets[i])),
                                           authorized=bool(a), ok=not f)
    return reports


def perfectness_check(scheme: SssScheme, subset,
                      budget: int = DEFAULT_BUDGET) -> PerfectnessReport:
    """Enumerate all q^k dealings and test the coalition's knowledge; see
    ``perfectness_batch``."""
    return perfectness_batch(scheme, [subset], budget)[0]
