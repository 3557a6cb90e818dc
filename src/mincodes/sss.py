"""Secret sharing on a linear code, in Massey's arrangement.

One generator column is the secret column (the first one unless stated
otherwise); every other column belongs to one participant.  The dealer
draws a coefficient vector u uniformly among those with u.G_secret =
secret and hands participant i the coordinate of u.G at its column.  A
coalition can reconstruct exactly when the secret column lies in the
span of its columns, and the minimal such coalitions are read off the
minimal codewords of the dual code that are nonzero on the secret
column.  Where the dual is too big to enumerate they are found by
search instead, which decides the coalitions of one size together, in
batched row reductions (``matrix.in_span_batch``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .analysis import minimal_codewords
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
)
from .matrix import GFMatrix, in_span, in_span_batch, rref


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

    def secret_col(self) -> np.ndarray:
        return self.code.gen.data[:, self.secret_column - 1]

    def participant_cols(self, subset) -> list[np.ndarray]:
        return [self.code.gen.data[:, i - 1] for i in self._check(subset)]

    def _check(self, subset) -> tuple[int, ...]:
        ids = tuple(int(i) for i in subset)
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

    dealer_coeffs is kept only when the dealing was made with
    keep_coeffs=True; production dealings drop it.
    """

    secret: int
    shares: dict[int, int]
    seed: int
    dealer_coeffs: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AccessSet:
    indices: tuple[int, ...]
    minimal: bool


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


def deal(scheme: SssScheme, secret: int, seed: int,
         keep_coeffs: bool = False) -> ShareVector:
    """Draw u uniformly with u.G_secret = secret and emit the shares.

    The free coefficients are drawn in row order from random.Random(seed)
    and the coefficient at the first nonzero row of the secret column is
    solved for, which makes dealings replayable.
    """
    f = scheme.field
    q = f.q
    if not 0 <= secret < q:
        raise BadParams(f"secret must be in 0..{q - 1}, got {secret}")
    col = scheme.secret_col()
    pivot = next(i for i, x in enumerate(col) if x)
    rng = random.Random(seed)
    u = [0] * scheme.code.k
    for j in range(scheme.code.k):
        if j != pivot:
            u[j] = rng.randrange(q)
    acc = secret
    for j in range(scheme.code.k):
        if j != pivot:
            acc = f.sub(acc, f.mul(u[j], int(col[j])))
    u[pivot] = f.div(acc, int(col[pivot]))
    word = scheme.code.codeword(u)
    shares = {i: word.values[i - 1] for i in scheme.participants}
    return ShareVector(
        secret=secret,
        shares=shares,
        seed=seed,
        dealer_coeffs=word.coeffs if keep_coeffs else None,
    )


def is_authorized(scheme: SssScheme, subset) -> bool:
    """Whether the coalition's columns span the secret column."""
    cols = scheme.participant_cols(subset)
    return in_span(scheme.field, scheme.secret_col(), cols) is not None


def reconstruct(scheme: SssScheme, subset, shares) -> int:
    """Recover the secret from an authorized coalition's shares.

    One row reduction of [coalition columns | secret column] decides
    authorization, checks that the shares match some codeword and gives
    the secret, which is the same for every codeword they match;
    inconsistent shares are rejected.
    """
    ids = scheme._check(subset)
    vals = [int(v) for v in shares]
    if len(vals) != len(ids):
        raise BadParams(
            f"{len(ids)} participants but {len(vals)} shares"
        )
    if any(not 0 <= v < scheme.field.q for v in vals):
        raise BadParams(f"share values out of range: {vals}")
    f = scheme.field
    aug = np.column_stack(
        scheme.participant_cols(ids) + [scheme.secret_col()])
    red, r = rref(GFMatrix(f, aug))
    red = red.data[:r]
    pivots = (red != 0).argmax(axis=1)
    m = len(ids)
    if pivots[-1] == m:  # secret column nonzero, so r >= 1
        raise Unauthorized(f"coalition {sorted(ids)} cannot reconstruct")
    # vals is in the row space of the coalition columns iff it is the
    # pivot-weighted sum of the reduced rows, whose last entry is the secret
    want = np.array(vals, dtype=np.int64)
    got = f.matmul(want[pivots][None, :], red)[0]
    if not np.array_equal(got[:m], want):
        raise InconsistentShares(
            f"shares {vals} match no codeword on {sorted(ids)}"
        )
    return int(got[m])


def _search_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    n, k = scheme.code.n, scheme.code.k
    total = sum(math.comb(n - 1, size) for size in range(1, k + 1))
    if total > budget:
        raise BudgetExceeded(total, budget, unit="coalitions")
    gen = scheme.code.gen.data
    ids = np.array(scheme.participants)
    secret = scheme.secret_col()[None, :, None]
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
            stacks = np.concatenate(
                [gen[:, ids[block] - 1].transpose(1, 0, 2),
                 np.broadcast_to(secret, (len(block), k, 1))], axis=2)
            ok = in_span_batch(scheme.field, stacks)
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
    return [AccessSet(indices=m, minimal=True) for m in found]


def _dual_path(scheme: SssScheme, budget: int) -> list[AccessSet]:
    dual = dual_code(scheme.code)
    c0 = scheme.secret_column - 1
    sets = set()
    for word in minimal_codewords(dual, budget):
        if word.values[c0]:
            sets.add(tuple(i + 1 for i in word.support if i != c0))
    return [AccessSet(indices=s, minimal=True)
            for s in sorted(sets, key=lambda s: (len(s), s))]


def minimal_authorized_sets(scheme: SssScheme, method: str = "auto",
                            budget: int = DEFAULT_BUDGET) -> list[AccessSet]:
    """All minimal coalitions, sorted by size then lexicographically.

    method "dual" enumerates the dual code and maps its minimal codewords
    that are nonzero on the secret column; "search" decides the
    coalitions of each size 1..k together, in batched row reductions of
    up to ``codes._CHUNK`` coalitions, keeps the authorized ones with no
    authorized subset one smaller, and counts coalitions against the
    budget; "auto" picks dual when the dual is small enough.
    """
    n, k, q = scheme.code.n, scheme.code.k, scheme.code.q
    if method == "auto":
        method = "dual" if n > k and q ** (n - k) <= budget else "search"
    if method == "dual":
        if n == k:
            return []  # full-space code: zero dual, nothing is authorized
        out = _dual_path(scheme, budget)
    elif method == "search":
        out = _search_path(scheme, budget)
    else:
        raise BadParams(f"unknown method {method!r}")
    return sorted(out, key=lambda a: (len(a.indices), a.indices))


def perfectness_check(scheme: SssScheme, subset,
                      budget: int = DEFAULT_BUDGET) -> PerfectnessReport:
    """Enumerate all q^k dealings and test the coalition's knowledge."""
    ids = scheme._check(subset)
    idx = [i - 1 for i in ids]
    c0 = scheme.secret_column - 1
    q = scheme.code.q
    pats = []
    secrets = []
    for _, values in codeword_blocks(scheme.code, budget):
        secrets.append(values[:, c0].copy())
        pats.append(values[:, idx].copy())
    pats = np.concatenate(pats)
    secrets = np.concatenate(secrets)
    if pats.shape[1] == 0:
        groups = np.zeros(len(pats), dtype=np.int64)
        n_groups = 1
    else:
        uniq, groups = np.unique(pats, axis=0, return_inverse=True)
        n_groups = len(uniq)
    table = np.zeros((n_groups, q), dtype=np.int64)
    np.add.at(table, (groups, secrets), 1)
    authorized = is_authorized(scheme, ids)
    if authorized:
        ok = bool(np.all((table > 0).sum(axis=1) == 1))
    else:
        ok = bool(np.all(table == table[:, :1]) and np.all(table[:, 0] > 0))
    return PerfectnessReport(
        subset=tuple(sorted(ids)),
        authorized=authorized,
        ok=ok,
        patterns=n_groups,
    )
