"""Families of minimal-code generator matrices and their predicted invariants.

All generators are assembled column by column in a fixed order (index
subsets lexicographic, then scalar tuples in ascending encoding order), so
identical parameters always produce byte-identical matrices.  Through
``errors._spend``, the families, ``lift`` and ``tensor_product`` refuse a
generator of more than DEFAULT_BUDGET entries (rows times columns), and
the evaluation codes more points than their budget, before building any.

Families:

* ``first(t, q)``: (I_t | B), where B has a column e_i + lam*e_j for every
  pair i < j and every nonzero lam.  An [binom(t,2)(q-1)+t, t] code whose
  nonzero weights stratify by the number s of combined rows.
* ``second(t, k, q)``: (I_t | B~), one column e_{i1} + sum lam_j e_{ij} per
  k-subset i1 < ... < ik and per nonzero (lam_2..lam_k); generalizes
  ``first`` (k = 2 gives the identical matrix).
* ``weight_s(s, t, q)``: (I_t | all weight-s vectors of GF(q)^t).
* ``extended(t, q)``: ``first`` plus q-2 columns carrying xi^1..xi^(q-2) in
  row 1; every nonzero codeword then realizes all q field values.
* ``lift(code, s)``: block construction (G_0|...|G_s) that stretches an
  [n, k] base into [(s+1)n, s+k]; requires the base to be minimal with the
  full-value property (checked, refused otherwise).
* ``tensor_product``: Kronecker product of two generators.
* ``cf_code`` / ``cg_code``: evaluation codes spanned by a function row
  f(x) (resp. a sum of disjoint degree-r monomials) together with the n
  coordinate rows, over all nonzero points x of GF(q)^n.

Each closed form is stated once, in a ``predicted_*`` helper, and the
sweep checks it against enumeration: ``predicted_ws`` gives the first
family's weight w_s, from which the sweep also takes its distance and
weight ratio; ``predicted_dprime_weights`` the weight-s family's weights
as a list [w_0, ..., w_t] indexed by coefficient weight r;
``predicted_second_bound`` the second family's length and distance bound
as a pair (n, d_upper).  Each returns plain integers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .analysis import _walk
from .codes import DEFAULT_BUDGET, LinearCode
from .errors import BadParams, PreconditionFailed, _int, _ints, _spend
from .field import _digits, build_field
from .matrix import GFMatrix, _rref_array, kronecker


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


# -- generator families -------------------------------------------------------


def first(t: int, q: int) -> LinearCode:
    """(I_t | e_i + lam*e_j for i<j, lam nonzero) over GF(q); t >= 2."""
    t = _int(t, "t")
    if t < 2:
        raise BadParams(f"first family needs t >= 2, got {t}")
    return _systematic(t, q, 2, lead_one=True)


def second(t: int, k: int, q: int) -> LinearCode:
    """(I_t | e_{i1} + sum lam_j e_{ij}) over k-subsets; 2 <= k <= t-1."""
    t, k = _int(t, "t"), _int(k, "k")
    if not 2 <= k <= t - 1:
        raise BadParams(f"second family needs 2 <= k <= t-1, got k={k}, t={t}")
    return _systematic(t, q, k, lead_one=True)


def weight_s(s: int, t: int, q: int) -> LinearCode:
    """(I_t | all weight-s vectors of GF(q)^t); 1 <= s <= t."""
    s, t = _int(s, "s"), _int(t, "t")
    if not 1 <= s <= t:
        raise BadParams(f"weight_s needs 1 <= s <= t, got s={s}, t={t}")
    return _systematic(t, q, s, lead_one=False)


def _systematic(t: int, q: int, size: int, lead_one: bool) -> LinearCode:
    """(I_t | one column per size-subset of the t rows and per tuple of
    nonzero values on it), subsets lexicographic, then value tuples in
    ascending order; with lead_one the first value is always 1."""
    f = build_field(q)
    lead = (1,) if lead_one else ()
    _spend(t * (t + math.comb(t, size) * (f.q - 1)**(size - len(lead))),
           DEFAULT_BUDGET, "generator entries")
    cols = np.eye(t, dtype=np.int64).tolist()
    for supp in itertools.combinations(range(t), size):
        for vals in itertools.product(range(1, q), repeat=size - len(lead)):
            c = [0] * t
            for idx, val in zip(supp, lead + vals):
                c[idx] = val
            cols.append(c)
    return LinearCode(GFMatrix(f, np.array(cols).T))


def extended(t: int, q: int) -> LinearCode:
    """``first(t, q)`` with q-2 extra columns xi^1..xi^(q-2) in row 1."""
    base = first(t, q)
    extra = np.zeros((t, q - 2), dtype=np.int64)
    extra[0] = base.field.powers_of_xi()
    return LinearCode(GFMatrix(base.field, np.hstack([base.gen.data, extra])))


def lift(code: LinearCode, s: int, budget: int = DEFAULT_BUDGET) -> LinearCode:
    """Stack s all-ones rows over s+1 copies of the base generator.

    The base must be a verified minimal code in which every nonzero codeword
    realizes all q field values; both preconditions are checked and the call
    is refused otherwise.  Output is [(s+1)n, s+k] over the same field.
    """
    s = _int(s, "s")
    if s < 1:
        raise BadParams(f"lift needs s >= 1, got {s}")
    memo = _walk(code, budget)  # verdicts only: no witness scan, no decode
    if not memo["minimal"].all():
        raise PreconditionFailed("lift base code is not minimal")
    if memo["full_value"] is not None:
        raise PreconditionFailed(
            "lift base code has a codeword that misses some field value"
        )
    k, n = code.k, code.n
    _spend((s + k) * (s + 1) * n, DEFAULT_BUDGET, "generator entries")
    out = np.zeros((s + k, (s + 1) * n), dtype=np.int64)
    for j in range(s + 1):
        block = slice(j * n, (j + 1) * n)
        out[s:, block] = code.gen.data
        if j >= 1:
            out[j - 1, block] = 1
    return LinearCode(GFMatrix(code.field, out))


def tensor_product(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Code generated by the Kronecker product of the two generators."""
    _spend(c1.k * c2.k * c1.n * c2.n, DEFAULT_BUDGET, "generator entries")
    return LinearCode(kronecker(c1.gen, c2.gen))


# -- evaluation codes ---------------------------------------------------------


def _points(q: int, n: int, budget: int) -> np.ndarray:
    """All nonzero x in GF(q)^n as rows, ascending base-q encoding."""
    _spend(q**n - 1, budget, "points")
    return _digits(q, n)[1:, ::-1]


def _independent_rows(field, rows: np.ndarray) -> np.ndarray:
    """Greedy top-down row basis: row i is kept unless the rows above it
    span it, so the kept rows are the pivot columns of rows.T."""
    return rows[_rref_array(field, rows.T)[1]]


def _evaluation_code(field, frow: np.ndarray, points: np.ndarray) -> LinearCode:
    rows = np.vstack([frow[None, :], points.T])
    basis = _independent_rows(field, rows)
    return LinearCode(GFMatrix(field, basis))


def cf_code(n: int, k: int, q: int, alphas,
            budget: int = DEFAULT_BUDGET) -> LinearCode:
    """Code spanned by (f(x))_x and the n coordinate rows, x over GF(q)^n\\{0}.

    f(x) = alphas[w-1] when w = wt(x) <= k, else 0.  Needs q odd, n > 3,
    2 <= k <= n-2, and k nonzero alpha values.
    """
    n, k, q = _int(n, "n"), _int(k, "k"), _int(q, "q")
    if q % 2 == 0:
        raise BadParams(f"cf_code needs odd q, got {q}")
    if n <= 3:
        raise BadParams(f"cf_code needs n > 3, got {n}")
    if not 2 <= k <= n - 2:
        raise BadParams(f"cf_code needs 2 <= k <= n-2, got k={k}, n={n}")
    alphas = tuple(_ints(alphas, "alphas"))
    if len(alphas) != k or any(not 0 < a < q for a in alphas):
        raise BadParams(
            f"cf_code needs {k} alpha values in [1, {q}), got {alphas}"
        )
    f = build_field(q)
    pts = _points(q, n, budget)
    wt = np.count_nonzero(pts, axis=1)
    by_weight = np.zeros(n + 1, dtype=np.int64)
    by_weight[1:k + 1] = alphas
    return _evaluation_code(f, by_weight[wt], pts)


def cg_code(r: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> LinearCode:
    """Same construction for g(x) = sum over k blocks of x_{jr+1}*...*x_{jr+r}.

    n = r*k coordinates; needs r, k >= 2.
    """
    r, k = _int(r, "r"), _int(k, "k")
    if r < 2 or k < 2:
        raise BadParams(f"cg_code needs r, k >= 2, got r={r}, k={k}")
    f = build_field(q)
    n = r * k
    pts = _points(q, n, budget)
    g = np.zeros(len(pts), dtype=np.int64)
    for j in range(k):
        block = pts[:, j * r]
        for l in range(1, r):
            block = f.mul_table[block, pts[:, j * r + l]]
        g = f.add(g, block)
    return _evaluation_code(f, g, pts)


# -- closed-form predictions --------------------------------------------------


def predicted_ws(s: int, t: int, q: int) -> int:
    """Weight of a ``first``-family codeword combined from s rows."""
    if not 1 <= s <= t:
        raise BadParams(f"need 1 <= s <= t, got s={s}, t={t}")
    return s + comb0(s, 2) * (q - 2) + s * (t - s) * (q - 1)


def psi(r: int, t: int, s: int, q: int) -> int:
    """Correction term in the weight-s family's codeword-weight formula."""
    if not (0 <= r <= t and 1 <= s <= t):
        raise BadParams(f"need 0 <= r <= t and 1 <= s <= t, got r={r}")
    total = 0
    for z in range(2, r + 1):
        c = comb0(r, z) * comb0(t - r, s - z)
        if c == 0:
            continue
        inner = sum((q - 1) ** i * (-1) ** (z - 1 + i) for i in range(1, z))
        total += c * (q - 1) ** (s - z) * inner
    return total


def predicted_dprime_weights(t: int, s: int, q: int) -> list[int]:
    """[w_0, ..., w_t]: the weight of a weight_s(s, t, q) codeword of
    coefficient weight r, at index r; the zero word comes out at w_0 = 0."""
    if not 1 <= s <= t:
        raise BadParams(f"need 1 <= s <= t, got s={s}, t={t}")
    big_n = t + comb0(t, s) * (q - 1) ** s
    return [big_n - t + r - psi(r, t, s, q) - comb0(t - r, s) * (q - 1) ** s
            for r in range(t + 1)]


def predicted_second_bound(t: int, k: int, q: int) -> tuple[int, int]:
    """(n, d_upper) of second(t, k, q): its length, and the weight of its
    first generator row, which bounds the minimum distance."""
    if not 2 <= k <= t - 1:
        raise BadParams(f"need 2 <= k <= t-1, got k={k}, t={t}")
    return (comb0(t, k) * (q - 1) ** (k - 1) + t,
            1 + comb0(t - 1, k - 1) * (q - 1) ** (k - 1))
