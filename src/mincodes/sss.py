"""Secret sharing on a linear code, in Massey's arrangement.

One generator column is the secret column (the first one unless stated
otherwise); every other column belongs to one participant.  The dealer
draws a coefficient vector u uniformly among those with u.G_secret =
secret and hands participant i the coordinate of u.G at its column.  A
coalition can reconstruct exactly when the secret column lies in the
span of its columns, and the minimal such coalitions are read off the
minimal codewords of the dual code that are nonzero on the secret
column: the supports, less the secret column, of the minimal rows that
the dual's one walk marks (``analysis._minimal_rows``).  A scheme builds
its dual (``SssScheme.dual``) on first use and keeps it, so the walk is
taken once per scheme; the budget is still checked on every call.  Where
the dual is too big to enumerate they are found by search instead, which
decides the coalitions of one size together: coalition A is authorized
exactly when rank [G_A] = rank [G_A | secret column], and one
``matrix.column_ranks`` call takes both for a block.

Each Massey operation has a batched form that the single call wraps:
``deal_batch`` makes many dealings with one matmul, ``reconstruct_batch``
decides a block of share rows for one coalition with one matmul against
the coalition's row reduction, and ``perfectness_batch`` enumerates the
q^k dealings once for all the coalitions it checks.  A scheme row-reduces
each coalition once and keeps the result for ``reconstruct_batch`` and
``is_authorized``, for up to ``_SOLVER_CAP`` coalitions, dropping the
least recently used first; generator data is read-only, so a kept
reduction cannot go stale.  Dealings draw from ``secrets.SystemRandom``
unless a seed is given; a seed replays the same shares from
``random.Random(seed)``.
"""

from __future__ import annotations

import functools
import itertools
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
    BudgetExceeded,
    InconsistentShares,
    Unauthorized,
    ZeroColumn,
    _int,
    _ints,
    _list,
)
from .matrix import _rref_array, column_ranks

# the class ``secrets`` exports; importing it from ``random`` avoids loading
# hmac and OpenSSL at import time
_SYSTEM_RANDOM = random.SystemRandom()

# most coalitions a scheme keeps a row reduction for; first(4,4) has 828
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
        # [secret | free draws] @ _deal_map = the participants' shares: rows
        # e_p/col_p and, for each row j != pivot p, e_j - (col_j/col_p)*e_p,
        # each times G on the participants' columns
        f, gen = self.field, code.gen.data
        col = self.secret_col()
        p = int(np.flatnonzero(col)[0])
        basis = gen[:, [i - 1 for i in self.participants]]
        scale = f.inv_table[col[p]]
        free = np.array([j for j in range(code.k) if j != p], dtype=np.int64)
        ratio = f.mul_table[col[free], scale]
        self._deal_map = np.vstack([
            f.mul_table[scale, basis[p]][None, :],
            f.sub_table[basis[free],
                        f.mul_table[ratio[:, None], basis[p][None, :]]],
        ])
        self._rank = column_ranks(f, gen)
        # coalition ids -> row reduction; the partial holds no reference to
        # the scheme, so the cache makes no cycle through it
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
        bad = [i for i in ids if i not in self.participants]
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
    patterns: int


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
    """The row reduction of [gen's 1-based columns ids | the secret column]:
    None when the coalition is unauthorized, else (pivot columns, the
    nonzero reduced rows) in gen's dtype, their columns in ids' order."""
    red, pivots = _rref_array(field, gen[:, [i - 1 for i in ids]
                                       + [secret_index]])
    # the secret column is nonzero, so it has a pivot unless it is spanned
    if pivots[-1] == len(ids):
        return None
    return np.array(pivots, dtype=np.intp), red[:len(pivots)].astype(gen.dtype)


def is_authorized(scheme: SssScheme, subset) -> bool:
    """Whether the coalition's columns span the secret column."""
    return scheme._reductions(scheme._check(subset)) is not None


def reconstruct_batch(scheme: SssScheme, subset, share_rows) -> np.ndarray:
    """Recover the secret of each row of shares held by one coalition.

    The row reduction of [coalition columns | secret column], made once
    per scheme and coalition (see ``_reduce``), decides authorization,
    and one matmul of the share rows with the reduced rows checks that
    each row matches some codeword and gives its secret, which is the
    same for every codeword the row matches.  The first row that matches
    none is named in the InconsistentShares raised.
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
    solver = scheme._reductions(ids)
    if solver is None:
        raise Unauthorized(f"coalition {sorted(ids)} cannot reconstruct")
    pivots, red = solver
    # a row is in the row space of the coalition columns iff it is the
    # pivot-weighted sum of the reduced rows, whose last entry is the secret
    want = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    got = scheme.field.matmul(want[:, pivots], red)
    bad = (got[:, :m] != want).any(axis=1)
    if bad.any():
        raise InconsistentShares(
            f"shares {rows[int(bad.argmax())]} match no codeword on "
            f"{sorted(ids)}")
    return got[:, m].astype(np.int64)


def reconstruct(scheme: SssScheme, subset, shares) -> int:
    """Recover the secret from an authorized coalition's shares; see
    ``reconstruct_batch``.  Inconsistent shares are rejected."""
    return int(reconstruct_batch(scheme, subset, [shares])[0])


def _authorized(scheme: SssScheme, cols: np.ndarray) -> np.ndarray:
    """Whether each row of an (M, s) block of 0-based generator columns
    spans the secret column: whether adding the secret column leaves its
    rank unchanged.  Both ranks of all M rows come from one kernel call;
    each row is padded with the zero column n, then with the secret
    column, so the two sets have one width even for s = 0."""
    pad = np.repeat([scheme.code.n, scheme.secret_column - 1], len(cols))
    ranks = scheme._rank(np.column_stack([np.vstack([cols, cols]), pad]))
    return ranks[:len(cols)] == ranks[len(cols):]


def _search_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    n, k = scheme.code.n, scheme.code.k
    total = sum(math.comb(n - 1, size) for size in range(1, k + 1))
    if total > budget:
        raise BudgetExceeded(total, budget, unit="coalitions")
    ids = np.array(scheme.participants)
    # binom[x, i] = C(x, i); a coalition c_0 < ... < c_{s-1} of participant
    # positions has colex rank sum_i C(c_i, i+1) among those of its size
    binom = np.array([[math.comb(x, i) for i in range(k + 1)]
                      for x in range(n)], dtype=np.int64)
    # the empty coalition: the secret column is nonzero, so unauthorized
    prev = np.zeros(1, dtype=bool)
    found: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        auth = np.zeros(math.comb(n - 1, size), dtype=bool)
        combos = itertools.combinations(range(n - 1), size)
        while True:
            block = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(combos, _CHUNK)),
                dtype=np.int64).reshape(-1, size)
            if not len(block):
                break
            ok = _authorized(scheme, ids[block] - 1)
            own = binom[block, np.arange(1, size + 1)]
            auth[own.sum(axis=1)] = ok
            # dropping c_j shifts every later c_i down to place i-1
            low = binom[block, np.arange(size)]
            before = np.cumsum(own, axis=1) - own
            after = np.cumsum(low[:, ::-1], axis=1)[:, ::-1] - low
            minimal = ok & ~prev[before + after].any(axis=1)
            found.extend(tuple(int(i) for i in ids[row])
                         for row in block[minimal])
        prev = auth
    return [AccessSet(m) for m in found]


def _dual_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    # minimal words with one support are proportional: no coalition twice
    c0 = scheme.secret_column - 1
    values = _minimal_rows(scheme.dual, budget)[1]
    supp = values[values[:, c0] != 0] != 0
    supp[:, c0] = False
    # row i's participants, ascending, are cols[ends[i-1]:ends[i]]
    cols = (np.nonzero(supp)[1] + 1).tolist()
    ends = np.cumsum(supp.sum(axis=1)).tolist()
    sets = [tuple(cols[s:e]) for s, e in zip([0] + ends, ends)]
    return [AccessSet(s) for s in sorted(sets, key=lambda s: (len(s), s))]


def minimal_authorized_sets(scheme: SssScheme, method: str = "auto",
                            budget: int = DEFAULT_BUDGET) -> list[AccessSet]:
    """All minimal coalitions, sorted by size then lexicographically.

    method "dual" enumerates the dual code and maps its minimal codewords
    that are nonzero on the secret column; "search" decides the
    coalitions of each size 1..k together, ranking up to ``codes._CHUNK``
    of them with and without the secret column in one ``column_ranks``
    call, keeps the authorized ones (the secret column adds no rank) with
    no authorized subset one smaller, and counts coalitions against the
    budget; "auto" picks dual when the dual is small enough.
    """
    budget = _int(budget, "budget")
    n, k, q = scheme.code.n, scheme.code.k, scheme.code.q
    if method == "auto":
        method = "dual" if n > k and q ** (n - k) <= budget else "search"
    if method == "dual":
        if n == k:
            return []  # full-space code: zero dual, nothing is authorized
        return _dual_path(scheme, budget)
    if method == "search":
        return _search_path(scheme, budget)
    raise BadParams(f"unknown method {method!r}")


def perfectness_batch(scheme: SssScheme, subsets,
                      budget: int = DEFAULT_BUDGET) -> list[PerfectnessReport]:
    """Enumerate all q^k dealings once and test each coalition's knowledge.

    A coalition's share patterns are its columns of the dealings.  The
    coalitions of one size are taken together, as many at a time as fit
    ``codes._CHUNK`` (coalition, dealing) rows: the rows are sorted by
    coalition and then entry by entry (``np.lexsort``), and a new pattern
    number starts wherever the coalition or an entry changes.  No pattern
    is packed into a mixed-radix integer, so no coalition is too wide.
    A coalition is authorized when the secret column adds no rank to its
    columns; the coalitions of one size are ranked with and without it in
    one ``column_ranks`` call.  Reports come in the order of ``subsets``.
    """
    subsets = [scheme._check(s)
               for s in _list(subsets, "subsets", "coalitions")]
    values = np.concatenate(
        [v for _, v in codeword_blocks(scheme.code, budget)])
    secret = values[:, scheme.secret_column - 1].astype(np.int64)
    dealings, q = len(values), scheme.field.q
    step = max(1, _CHUNK // dealings)
    reports: list[PerfectnessReport | None] = [None] * len(subsets)
    for size in sorted({len(ids) for ids in subsets}):
        which = [i for i, ids in enumerate(subsets) if len(ids) == size]
        cols = np.array([subsets[i] for i in which],
                        dtype=np.int64).reshape(len(which), size) - 1
        authorized = _authorized(scheme, cols)
        for start in range(0, len(which), step):
            part = cols[start:start + step]
            flat = values[:, part].transpose(1, 0, 2).reshape(
                len(part) * dealings, size)
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
            auth = authorized[start:start + step]
            good = np.where(auth[owner], one, even)
            failed = np.bincount(owner[~good], minlength=len(part))
            patterns = np.bincount(owner, minlength=len(part))
            for j, i in enumerate(which[start:start + step]):
                reports[i] = PerfectnessReport(
                    subset=tuple(sorted(subsets[i])),
                    authorized=bool(auth[j]),
                    ok=not failed[j],
                    patterns=int(patterns[j]),
                )
    return reports


def perfectness_check(scheme: SssScheme, subset,
                      budget: int = DEFAULT_BUDGET) -> PerfectnessReport:
    """Enumerate all q^k dealings and test the coalition's knowledge; see
    ``perfectness_batch``."""
    return perfectness_batch(scheme, [subset], budget)[0]
