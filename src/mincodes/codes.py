"""Linear codes from generator matrices, with exhaustive enumeration.

A code is fixed by a full-row-rank generator matrix over GF(q).  Codewords
are enumerated in the canonical order of their coefficient vectors (read as
base-q integers, first coefficient most significant), so every stream,
distribution, and report derived from enumeration is deterministic.  Every
walk goes through ``codeword_blocks`` (all q^k words) or, for checks that
scaling cannot change, ``projective_blocks`` (one word per scalar class,
with its coefficient weight).  Coefficient rows of any set of classes are
decoded from their index in that canonical order by ``_class_coeffs``.

Neither multiplies every coefficient row by G.  The span T of the tail
(the last t rows of G, t >= 1, with q^t <= _CHUNK words and q^t * n <=
_ENTRIES entries) is built once by outer sums, from the zero word up:
each row's q multiples are added to every word built so far, the
multiple as the more significant index, so row i of T is the word of
coefficient vector i and T is in canonical order.  A head word plus all
of T is then q^t consecutive words; ``codeword_blocks`` takes each head
word from one (1 x h) . (h x n) ``GF.matmul`` of the block's first
coefficient row by the h = k - t head rows.  ``projective_blocks`` uses
outer sums only: a lead-1 representative whose lead j lies in the tail
is e_j.G plus the span of rows j+1..k-1, that is rows [q^i, 2q^i) of T
with i = k-1-j; these come first, in one block, and then each lead-1
head (from the same construction on the head rows) plus all of T;
coefficient weights follow the same outer sums.  Sums go through
``GF.add``; no block holds more than max(_CHUNK, q) words or
max(_ENTRIES, q * n) entries.

Exhaustive operations refuse to run past a word budget (default 10**7
codewords) instead of silently taking forever; like every budget in the
package, it is spent through the one gate ``errors._spend``.  The
generator is read-only, so ``analysis._walk`` keeps the whole-code
results of one walk of the scalar classes on the code
(``LinearCode._memo``), and ``analysis.is_minimal_code`` adds its report
there; the weight functions here read the walk's counts.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BadParams, RankDeficient, TrivialDual, _int, _spend
from .field import GF, build_field
from .matrix import GFMatrix, _vector, nullspace, rref

DEFAULT_BUDGET = 10**7

_CHUNK = 1 << 14
_ENTRIES = 1 << 20  # entries (words times n) in a block, unless t = 1

_MAX_TRIES = 1000  # draws of each kind random_code makes for one seed


@dataclass(frozen=True)
class Codeword:
    """One codeword: coefficient vector and value vector, as tuples."""

    coeffs: tuple[int, ...]
    values: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(1 for v in self.values if v)

    @property
    def support(self) -> tuple[int, ...]:
        """0-based indices of the nonzero coordinates."""
        return tuple(i for i, v in enumerate(self.values) if v)


class LinearCode:
    """An [n, k] linear code over GF(q), presented by a generator matrix.

    Raises RankDeficient unless the generator's rows are independent.  Zero
    columns are legal: they are recorded in ``zero_columns``, so callers
    that cannot tolerate them, like secret sharing, can refuse.
    """

    def __init__(self, gen: GFMatrix):
        if not gen.rows:
            raise BadParams("a code needs at least one generator row")
        _, rk = rref(gen)
        if rk < gen.rows:
            raise RankDeficient(
                f"generator has rank {rk} < {gen.rows} rows"
            )
        self.gen = gen
        self.field: GF = gen.field
        self.n: int = gen.cols
        self.k: int = gen.rows
        zero_cols = np.nonzero(~gen.data.any(axis=0))[0]
        self.zero_columns: tuple[int, ...] = tuple(int(j) for j in zero_cols)
        # whole-code results, kept by analysis._walk and is_minimal_code
        self._memo: dict = {}

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def size(self) -> int:
        return self.q**self.k

    def codeword(self, coeffs) -> Codeword:
        u = _vector(self.field, coeffs, self.k)
        v = self.field.matmul(u[None], self.gen.data)[0]
        return Codeword(tuple(int(c) for c in u), tuple(int(x) for x in v))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}]_{self.q})"


def coeff_blocks(code: LinearCode,
                 budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """All q^k coefficient vectors in canonical order, in (q^t, k) blocks
    (t from ``_tail_rows``): block i is that of word block i of
    ``codeword_blocks``."""
    _spend(code.size, budget, "words")
    q, k, total = code.q, code.k, code.size
    chunk = q ** _tail_rows(q, k, code.n)
    place = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // place[None, :]) % q


def _tail_rows(q: int, k: int, n: int) -> int:
    """t: how many trailing rows have a span of q^t <= _CHUNK words and
    q^t * n <= _ENTRIES entries (t >= 1)."""
    t = 1
    while t < k and q ** (t + 1) <= min(_CHUNK, _ENTRIES // n):
        t += 1
    return t


def _span(field: GF, rows: np.ndarray) -> np.ndarray:
    """All q^len(rows) combinations of rows, in canonical coefficient order:
    each row's q multiples, outer-summed with the span of the rows below."""
    n = rows.shape[1]
    span = np.zeros((1, n), dtype=field.dtype)
    for g in rows[::-1]:
        mult = field.mul_table[:, g]
        span = field.add(mult[:, None, :], span[None, :, :]).reshape(-1, n)
    return span


def _lead_one_blocks(field: GF, gen: np.ndarray):
    """(coefficient weights, words) of every lead-1 combination of gen's
    rows, in canonical order.  Leads in the last t rows come first, as one
    block of slices of their span T; then each lead-1 combination of the
    rows above (in canonical order, from this same generator) plus T."""
    q, (k, n) = field.q, gen.shape
    t = _tail_rows(q, k, n)
    h = k - t
    span = _span(field, gen[h:])
    s = np.zeros(1, dtype=np.int64)  # coefficient weights of T, as _span
    for _ in range(t):
        s = ((np.arange(q) > 0)[:, None] + s).ravel()
    lead = np.concatenate([np.arange(q**j, 2 * q**j) for j in range(t)])
    yield s[lead], span[lead]
    if h == 0:
        return
    for weights, values in _lead_one_blocks(field, gen[:h]):
        for c, v in zip(weights, values):
            yield c + s, field.add(v, span)


def _class_coeffs(q: int, k: int, index: np.ndarray) -> np.ndarray:
    """Coefficient rows of the lead-1 vectors at an integer array of
    indices into the order ``_lead_one_blocks`` yields: e_(k-1) first,
    then the q vectors with lead at k-2, and so on; the q^t vectors with
    t entries after the lead start at index (q^t - 1)/(q - 1)."""
    size = q ** np.arange(k, dtype=np.int64)
    before = np.cumsum(size) - size
    tail = np.searchsorted(before, index, side="right") - 1
    value = size[tail] + index - before[tail]
    return value[:, None] // size[::-1] % q


def codeword_blocks(code: LinearCode, budget: int = DEFAULT_BUDGET):
    """All q^k codewords in canonical order, as (coeff block, value block):
    one block per head prefix, its head word plus the tail span T."""
    _spend(code.size, budget, "words")
    f, gen = code.field, code.gen.data
    h = code.k - _tail_rows(code.q, code.k, code.n)
    span = _span(f, gen[h:])
    for block in coeff_blocks(code, budget):
        yield block, f.add(f.matmul(block[:1, :h], gen[:h])[0], span)


def projective_blocks(code: LinearCode, budget: int = DEFAULT_BUDGET):
    """One codeword per scalar class, as (coefficient weights, words).

    Representatives have first nonzero coefficient 1, which makes each the
    first word of its class in canonical coefficient order.  No coefficient
    row is built; ``analysis._class_rows`` decodes those a report shows.
    """
    _spend(code.size, budget, "words")
    yield from _lead_one_blocks(code.field, code.gen.data)


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword count per Hamming weight (the zero word included at 0)."""

    counts: dict[int, int]

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{w},{self.counts[w]}" for w in sorted(self.counts)]
        return "\n".join(lines) + "\n"


def _class_weights(code: LinearCode, budget: int) -> np.ndarray:
    """Class counts by weight 0..n, from the strata of ``analysis._walk``."""
    # analysis imports this module, so its walk is imported at call time
    from .analysis import _walk
    return _walk(code, budget)["strata"].sum(axis=0)


def weight_distribution(code: LinearCode,
                        budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Exhaustive weight distribution of the code, from its class counts."""
    # a class's q-1 words share its weight
    counts = _class_weights(code, budget) * (code.q - 1)
    counts[0] = 1  # the zero word
    return WeightDistribution(
        {int(w): int(c) for w, c in enumerate(counts) if c})


def min_max_weight(code: LinearCode,
                   budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(w_min, w_max) over nonzero codewords; w_min is the distance d."""
    weights = np.flatnonzero(_class_weights(code, budget))
    return int(weights[0]), int(weights[-1])


def dual_code(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual; raises TrivialDual when n == k."""
    if code.n == code.k:
        raise TrivialDual(f"[{code.n},{code.k}] code has zero-dimensional dual")
    return LinearCode(nullspace(code.gen))


def random_code(n: int, k: int, q: int, seed: int) -> LinearCode:
    """A reproducible random [n, k]_q code with no zero columns, 1 <= k <= n.

    n, k, q and seed must be integers (numpy integers pass).

    Entries are drawn from random.Random(seed); draws are repeated until
    the matrix has full row rank and every column is nonzero, so the same
    (n, k, q, seed) always yields the same code.  Once _MAX_TRIES such
    draws miss (as for [20,1]_2), each column is drawn among the nonzero
    vectors.
    """
    n, k, q, seed = map(_int, (n, k, q, seed), ("n", "k", "q", "seed"))
    if not 1 <= k <= n:
        raise BadParams(f"random_code needs 1 <= k <= n, got n={n}, k={k}")
    f = build_field(q)
    rng = random.Random(seed)
    for tries in range(2 * _MAX_TRIES):
        if tries < _MAX_TRIES:
            data = np.array([[rng.randrange(q) for _ in range(n)]
                             for _ in range(k)])
        else:  # column j holds the base-q digits of cols[j] > 0
            cols = [rng.randrange(1, q**k) for _ in range(n)]
            data = np.array([[c // q**i % q for c in cols] for i in range(k)])
        if np.count_nonzero(data, axis=0).min() == 0:
            continue
        with contextlib.suppress(RankDeficient):
            return LinearCode(GFMatrix(f, data))
    raise RankDeficient(
        f"no full-rank zero-column-free [{n},{k}]_{q} matrix "
        f"in {2 * _MAX_TRIES} draws from seed {seed}"
    )
