"""Scripted verification sweeps over every construction family.

This module bundles the package's checks into eleven numbered criteria so
that one call rebuilds the reference codes, enumerates them, and compares
the results against the closed-form predictions. Each criterion reports a
list of fine-grained check results rather than a single flag, which keeps
failures localized: a wrong weight at one instance cannot hide the other
instances.

Each criterion has a runner: a generator of ``(label, checks)`` pairs,
one per instance, with checks a lazy generator of the instance's checks
as plain ``(check, passed, detail[, paper_discrepancy])`` tuples. Nothing
runs until checks is iterated, and each is bound to its own instance, so
it may also be drained after its runner is. The family criteria 1 to 6
share one runner factory, ``_each(label, build, checks)``: for each
instance's params, its checks obtain ``build(*params)`` under
``label.format(*params)`` and then yield those of the plain generator
``checks(code, budget, *params)``. One driver, ``_collect``, attaches the
label, and a 3-tuple's flag (below), to each tuple. A ``BudgetExceeded``
raised in an instance's checks ends that instance only: the checks it
already yielded are kept, a failed ``budget`` check follows them, and the
driver goes on to the next instance. The codes a sweep builds live in one
registry, a plain dict from label to ``LinearCode``, which criterion 11
audits. Each registered code is built and walked once per sweep, and
criterion 6 reads each extended code's classes once more for their weights.

Checks whose outcome is known to contradict a published closed-form claim
carry ``paper_discrepancy=True``. The driver flags a 3-tuple only when it
fails on an (instance, check) pair of the record ``_DISCREPANCIES``, so any
other failure reads as a regression in the acceptance tests; a 4-tuple
flags a failure itself only when it proves the claim's alternative, as
``case-weights`` does when every class shows the q-2 offset. The sweep
never patches an expectation to make such a check pass; the check fails,
and the flag tells the reader the failure is understood rather than a
regression. The same flag also marks a few passing, purely informational
notes where the enumerated value disagrees with a published one that the
sweep does not assert.

Reports are deterministic: two runs over the same configuration produce
byte-identical JSON. Timings are intentionally excluded from reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Integral
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (ab_condition, has_full_value_property,
                       is_minimal_code, weight_strata)
from .codes import (DEFAULT_BUDGET, LinearCode, _class_coeffs,
                    min_max_weight, projective_blocks, random_code,
                    weight_distribution)
from .constructions import (cf_code, cg_code, comb0, extended, first, lift,
                            predicted_dprime_weights, predicted_second_bound,
                            predicted_ws, second, tensor_product, weight_s)
from .errors import BadParams, BudgetExceeded, PreconditionFailed, _int
from .field import build_field
from .matrix import GFMatrix
from .sss import (SssScheme, deal_batch, minimal_authorized_sets,
                  perfectness_batch, reconstruct_batch)

FIRST_INSTANCES = ((2, 2), (2, 3), (3, 3), (3, 4), (3, 5),
                   (4, 3), (4, 4), (5, 4), (5, 5))
SECOND_INSTANCES = ((4, 3, 2), (4, 3, 3), (5, 3, 2), (5, 4, 2))
WEIGHT_INSTANCES = ((3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 2))
EXTENDED_INSTANCES = ((3, 3), (3, 4), (4, 3))

# first-family instances where the weight ratio is asserted to fall below
# the sufficiency threshold, and those where it provably exceeds it
AB_STRICT = {(4, 3), (4, 4), (5, 4), (5, 5)}
AB_COUNTER = {(2, 2), (2, 3), (3, 3)}

# the record: check -> default instances where a published claim fails
_DISCREPANCIES = {
    "is-minimal": {"second(4,3,2)", "second(5,3,2)", "second(5,4,2)",
                   "weight_s(3,4,2)", "lift(gen(1,0),2)",
                   "lift(extended(3,3),2)", "lift(extended(3,4),2)"},
    "full-value": {f"lift(extended(3,{q}),{s})" for q in (3, 4)
                   for s in (1, 2)},
    "compose": {f"lift(lift(extended(3,{q}),1),1)" for q in (3, 4)},
    "minimum-at-r-equals-s": {"weight_s(2,3,2)", "weight_s(2,4,2)",
                              "weight_s(2,4,3)", "weight_s(2,5,2)"},
}


@dataclass(frozen=True)
class CheckResult:
    """One fine-grained pass/fail fact established by a sweep."""

    instance: str
    check: str
    passed: bool
    detail: str
    paper_discrepancy: bool = False

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "passed": self.passed,
            "paper_discrepancy": self.paper_discrepancy,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CriterionResult:
    """All checks of one numbered criterion."""

    number: int
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def line(self) -> str:
        """One-line human summary, used by the sweep table."""
        npass = sum(1 for c in self.checks if c.passed)
        mark = "PASS" if self.passed else "FAIL"
        flag = " *" if any(c.paper_discrepancy for c in self.checks) else ""
        return (f"criterion {self.number:2d}  {self.name:<28s} {mark}"
                f"  ({npass}/{len(self.checks)} checks){flag}")

    def as_dict(self) -> dict:
        return {
            "id": self.number,
            "name": self.name,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def _obtain(registry: dict[str, LinearCode], label: str,
            build: Callable[[], LinearCode]) -> LinearCode:
    """registry[label], built on first use: a code is built at most once
    per label, letting criteria share instances, and the final consistency
    criterion re-reads every code that runners obtain through here."""
    if label not in registry:
        registry[label] = build()
    return registry[label]


def _fmt_counts(counts: dict[int, int]) -> str:
    return "{" + ", ".join(f"{w}: {counts[w]}" for w in sorted(counts)) + "}"


def _witness_detail(rep) -> str:
    covered, covering = rep.witness
    return (f"covering pair: support {covered.support} of coeffs "
            f"{covered.coeffs} sits inside support {covering.support} "
            f"of coeffs {covering.coeffs}")


def _minimal_check(code: LinearCode, budget: int):
    rep = is_minimal_code(code, budget)
    return ("is-minimal", rep.is_minimal,
            f"exhaustive check over {rep.classes} scalar classes"
            if rep.is_minimal else _witness_detail(rep))


def _full_value_check(code: LinearCode, budget: int):
    fv = has_full_value_property(code, budget)
    return ("full-value", fv.holds,
            "every nonzero codeword takes all field values" if fv.holds else
            f"witness values {sorted(fv.witness_values)} on coeffs "
            f"{fv.witness.coeffs}")


def _checked(registry, label, build, checks, budget, params):
    code = _obtain(registry, label, lambda: build(*params))
    yield from checks(code, budget, *params)


def _each(label: str, build: Callable, checks: Callable) -> Callable:
    """The runner of a family criterion; see the module docstring."""
    def runner(instances, budget, registry):
        for params in instances:
            name = label.format(*params)
            yield name, _checked(registry, name, build, checks, budget,
                                 params)
    return runner


def _first_params(code, budget, t, q):
    d, _ = min_max_weight(code, budget)
    got = (code.n, code.k, d)
    want = (comb0(t, 2) * (q - 1) + t, t, predicted_ws(1, t, q))
    yield ("params", got == want,
           f"[n,k,d] = {list(got)}, predicted {list(want)}")
    strata = {s: set(counts) for s, counts
              in weight_strata(code, budget).items()}
    want_strata: dict[int, set[int]] = {0: {0}}
    for s in range(1, t + 1):
        want_strata[s] = {predicted_ws(s, t, q)}
    ok = strata == want_strata
    yield ("stratified-weights", ok,
           "every combination of s rows has weight w_s, s = 1..t"
           if ok else f"got {strata}, predicted {want_strata}")
    if not all(len(strata.get(s, ())) == 1 for s in range(1, t + 1)):
        yield ("step-identity", False,
               "per-s weights are not single-valued")
        return
    ws = [0] + [next(iter(strata[s])) for s in range(1, t + 1)]
    bad = [s for s in range(1, t + 1)
           if ws[s] - ws[s - 1] != -t + (t - s) * q + 2]
    yield ("step-identity", not bad,
           "w_s - w_(s-1) = -t + (t-s)q + 2 for s = 1..t"
           if not bad else f"identity fails at s in {bad}")


def _first_minimality(code, budget, t, q):
    yield _minimal_check(code, budget)
    ab = ab_condition(code, budget)
    # the extremes of the strata; w_1 and w_(t-1) only if q >= t-2
    ws = [predicted_ws(s, t, q) for s in range(1, t + 1)]
    want = Fraction(min(ws), max(ws))
    yield ("ratio-formula", ab.ratio == want,
           f"w_min/w_max = {ab.ratio}" if ab.ratio == want
           else f"w_min/w_max = {ab.ratio}, predicted {want}")
    if (t, q) in AB_STRICT:
        ok = ab.ratio < ab.threshold and not ab.sufficient
        yield ("ratio-below-threshold", ok,
               f"{ab.ratio} < {ab.threshold}: minimal although the "
               "weight-ratio bound is inconclusive" if ok else
               f"expected {ab.ratio} < {ab.threshold}")
    if (t, q) in AB_COUNTER:
        yield ("ratio-exceeds-threshold", ab.sufficient,
               f"{ab.ratio} > {ab.threshold}: the weight-ratio bound "
               "applies here although a published claim places this "
               "instance outside it" if ab.sufficient else
               f"expected {ab.ratio} > {ab.threshold}", True)


def _first_counts(code, budget, t, q):
    dist = weight_distribution(code, budget)
    want: dict[int, int] = {0: 1}
    for s in range(1, t + 1):
        w = predicted_ws(s, t, q)
        want[w] = want.get(w, 0) + comb0(t, s) * (q - 1) ** s
    ok = dist.counts == want
    yield ("weight-counts", ok,
           f"counts {_fmt_counts(dist.counts)}" if ok else
           f"counts {_fmt_counts(dist.counts)}, "
           f"predicted {_fmt_counts(want)}")


def _run_first_counts(instances, budget, registry):
    yield from _each("first({0},{1})", first, _first_counts)(
        instances, budget, registry)
    if instances:
        yield "(all instances)", iter([(
            "count-formula-note", True,
            "the census at weight w_s is C(t,s)(q-1)^s; a published count "
            "omits the binomial factor", True)])


def _second(code, budget, t, k, q):
    n, d_upper = predicted_second_bound(t, k, q)
    yield ("params", (code.n, code.k) == (n, t),
           f"[n,k] = [{code.n},{code.k}], predicted [{n},{t}]")
    d, _ = min_max_weight(code, budget)
    row = code.codeword([1] + [0] * (t - 1))
    ok = d <= d_upper and row.weight == d_upper
    yield ("distance-bound", ok,
           f"d = {d} <= {d_upper}, first row attains the bound"
           if ok else f"d = {d}, bound {d_upper}, "
           f"first row weight {row.weight}")
    yield _minimal_check(code, budget)


def _weight_family(code, budget, t, s, q):
    pred = predicted_dprime_weights(t, s, q)
    strata = {r: set(counts) for r, counts
              in weight_strata(code, budget).items()}
    want = {r: {w} for r, w in enumerate(pred)}
    ok = strata == want
    yield ("stratified-weights", ok,
           f"weights by coefficient weight r = 0..t: {pred}"
           if ok else f"got {strata}, predicted {want}")
    yield _minimal_check(code, budget)
    if s * s <= 3 * t:
        best = min(pred[1:])
        attained = pred[s] == best
        yield ("minimum-at-r-equals-s", attained,
               f"weights for r = 1..t are {pred[1:]}; minimum "
               f"{best} " + ("attained at r = s" if attained else
                             f"not attained at r = {s}"))


def _extended_case_counterexample(code, t, q, budget):
    """(coeffs, weight, predicted, offset q-2 holds) of the first codeword
    violating the split weight formula, or None.

    The formula under test assigns w_s to a combination of s rows whose
    first coefficient u_0 is zero and w_s + (q-1) otherwise.  Both sides
    are scale-invariant and classes come in canonical order, so the first
    failing word is the lead-1 word of the first failing class, whose
    coefficients ``codes._class_coeffs`` decodes.  The last entry tells
    whether every class weighs w_s + (q-2)*[u_0 != 0] instead.
    """
    ws = np.array([0] + [predicted_ws(s, t, q) for s in range(1, t + 1)])
    bad, offset_holds, start = None, True, 0
    for s, values in projective_blocks(code, budget):
        u = _class_coeffs(q, t, np.arange(start, start + len(s)))
        lead = u[:, 0] != 0
        want = ws[s] + (q - 1) * lead
        got = np.count_nonzero(values, axis=1)
        miss = np.flatnonzero(got != want)
        if bad is None and len(miss):
            bad = (tuple(u[miss[0]].tolist()), int(got[miss[0]]),
                   int(want[miss[0]]))
        offset_holds &= bool((got == want - lead).all())  # q-2 for q-1
        start += len(s)
    return None if bad is None else bad + (offset_holds,)


def _extended(code, budget, t, q):
    want_n = comb0(t, 2) * (q - 1) + t + q - 2
    yield ("params", (code.n, code.k) == (want_n, t),
           f"[n,k] = [{code.n},{code.k}], predicted [{want_n},{t}]")
    yield _minimal_check(code, budget)
    yield _full_value_check(code, budget)
    bad = _extended_case_counterexample(code, t, q, budget)
    offset = bad is not None and bad[3]
    yield ("case-weights", bad is None,
           "weights split as w_s and w_s + (q-1) by the first "
           "coefficient" if bad is None else
           f"coeffs {bad[0]} have weight {bad[1]}, the split formula "
           f"predicts {bad[2]}" + ("; the enumerated offset for a nonzero "
                                   "first coefficient is q-2, not q-1"
                                   if offset else ""), offset)


_LIFT_BASES = (
    ("gen(1,0)",
     lambda: LinearCode(GFMatrix(build_field(2), np.array([[1, 0]])))),
    ("extended(3,3)", lambda: extended(3, 3)),
    ("extended(3,4)", lambda: extended(3, 4)),
)


def _run_lift(instances, budget, registry):
    def body(label, base, s):
        lifted = _obtain(registry, label, lambda: lift(base, s, budget))
        want = ((s + 1) * base.n, s + base.k)
        yield ("params", (lifted.n, lifted.k) == want,
               f"[n,k] = [{lifted.n},{lifted.k}], predicted {list(want)}")
        yield _minimal_check(lifted, budget)
        yield _full_value_check(lifted, budget)

    def compose(label, once_label, base):
        try:  # the s = 1 body's code, lifted once more
            once = _obtain(registry, once_label, lambda: lift(base, 1, budget))
            twice = _obtain(registry, label, lambda: lift(once, 1, budget))
        except PreconditionFailed as exc:
            yield "compose", False, f"second lift rejected: {exc}"
            return
        rep = is_minimal_code(twice, budget)
        fv = has_full_value_property(twice, budget)
        ok = rep.is_minimal and fv.holds
        yield ("compose", ok,
               f"[{twice.n},{twice.k}] is minimal and full-valued" if ok
               else f"minimal = {rep.is_minimal}, full-value = {fv.holds}")

    for base_label, build in _LIFT_BASES:
        base = _obtain(registry, base_label, build)
        for s in (1, 2):
            label = f"lift({base_label},{s})"
            yield label, body(label, base, s)
        label = f"lift(lift({base_label},1),1)"
        yield label, compose(label, f"lift({base_label},1)", base)


def _run_function_codes(instances, budget, registry):
    def cg():
        code = _obtain(registry, "cg(2,2,2)", lambda: cg_code(2, 2, 2, budget))
        yield ("params", (code.n, code.k) == (15, 5),
               f"[n,k] = [{code.n},{code.k}], predicted [15,5]")
        yield _full_value_check(code, budget)
        yield _minimal_check(code, budget)

    def cf():
        code = _obtain(registry, "cf(4,2,3;1,2)",
                       lambda: cf_code(4, 2, 3, (1, 2), budget))
        yield ("params", code.n == 80 and code.k <= 5,
               f"[n,k] = [{code.n},{code.k}], n = 80 and k <= 5 expected")
        yield _minimal_check(code, budget)
        fv = has_full_value_property(code, budget)
        yield ("full-value-report", True,
               f"holds = {fv.holds} with alphas (1, 2) covering every nonzero "
               "field value; the published sufficiency condition needs k >= q "
               "and does not apply at k = 2, q = 3")

    def cf_repeated():
        code = _obtain(registry, "cf(4,2,3;1,1)",
                       lambda: cf_code(4, 2, 3, (1, 1), budget))
        fv = has_full_value_property(code, budget)
        yield ("full-value-report", True,
               f"holds = {fv.holds} with repeated alphas (1, 1)" +
               ("" if fv.holds else
                f"; witness values {sorted(fv.witness_values)}"))

    yield "cg(2,2,2)", cg()
    yield "cf(4,2,3;1,2)", cf()
    yield "cf(4,2,3;1,1)", cf_repeated()


def _run_tensor(instances, budget, registry):
    def body(label, t, q, want):
        base = _obtain(registry, f"first({t},{q})", lambda: first(t, q))
        prod = _obtain(registry, label, lambda: tensor_product(base, base))
        d, _ = min_max_weight(prod, budget)
        yield ("params", (prod.n, prod.k, d) == want,
               f"[n,k,d] = [{prod.n},{prod.k},{d}], predicted {list(want)}")
        d1, _ = min_max_weight(base, budget)
        yield ("distance-product", d == d1 * d1,
               f"d = {d} = {d1}*{d1}" if d == d1 * d1 else
               f"d = {d}, factors have d = {d1}")
        yield _minimal_check(prod, budget)

    for t, q, want in ((2, 2, (9, 4, 4)), (2, 3, (16, 4, 9))):
        label = f"first({t},{q}) x first({t},{q})"
        yield label, body(label, t, q, want)


def _run_sss(instances, budget, registry):
    def body(label, build, small):
        code = _obtain(registry, label, build)
        scheme = SssScheme(code)
        # the scheme's own dual, so the dual scan walks it once
        _obtain(registry, f"dual({label})", lambda: scheme.dual)
        dual_sets = minimal_authorized_sets(scheme, method="dual",
                                            budget=budget)
        search_sets = minimal_authorized_sets(scheme, method="search",
                                              budget=budget)
        yield ("structure-agreement", dual_sets == search_sets,
               f"{len(dual_sets)} minimal authorized sets from both the "
               "dual scan and the direct search" if
               dual_sets == search_sets else
               f"dual found {len(dual_sets)}, search {len(search_sets)}")
        q = code.q
        secrets = [secret for secret in range(q) for _ in range(10)]
        dealt = deal_batch(scheme, secrets, list(range(10)) * q)
        trials = 0
        mismatches = 0
        for aset in dual_sets:
            got = reconstruct_batch(
                scheme, aset.indices,
                [[sv.shares[i] for i in aset.indices] for sv in dealt])
            trials += len(got)
            mismatches += int(np.count_nonzero(got != secrets))
        yield ("round-trip", trials > 0 and mismatches == 0,
               f"{trials} reconstructions over {len(dual_sets)} minimal "
               f"sets, {q} secrets, 10 seeds" +
               ("" if mismatches == 0 else f"; {mismatches} mismatches"))
        if small:
            subsets = [subset
                       for size in range(len(scheme.participants) + 1)
                       for subset in combinations(scheme.participants, size)]
            reports = perfectness_batch(scheme, subsets, budget)
            failing = [subset for subset, rep in zip(subsets, reports)
                       if not rep.ok]
            yield ("perfectness", not failing,
                   f"all {len(subsets)} participant subsets pass"
                   if not failing
                   else f"failing coalitions: {failing}")

    specs = (("first(2,2)", lambda: first(2, 2), True),
             ("first(3,3)", lambda: first(3, 3), True),
             ("random(5,3,3;seed=7)",
              lambda: random_code(5, 3, 3, seed=7), False))
    for label, build, small in specs:
        yield label, body(label, build, small)


def _run_consistency(instances, budget, registry):
    def body(code):
        ab = ab_condition(code, budget)
        if not ab.sufficient:
            return
        rep = is_minimal_code(code, budget)
        yield ("sufficient-implies-minimal", rep.is_minimal,
               f"w_min/w_max = {ab.ratio} > {ab.threshold} and the "
               "exhaustive check agrees" if rep.is_minimal else
               f"ratio {ab.ratio} is sufficient yet "
               + _witness_detail(rep))

    def coverage():  # counted from the registry, whichever bodies ran
        met = [ab_condition(code, budget).sufficient
               for code in registry.values() if code.size <= budget]
        yield ("coverage", True,
               f"{len(registry)} codes registered; {sum(met)} met the ratio "
               f"bound, {len(met) - sum(met)} were inconclusive")

    for label, code in registry.items():
        yield label, body(code)
    yield "(registry)", coverage()


# criterion number -> (name, default instances or None when fixed, runner)
_CRITERIA: dict[int, tuple[str, Optional[tuple], Callable]] = {
    1: ("first-family-parameters", FIRST_INSTANCES,
        _each("first({0},{1})", first, _first_params)),
    2: ("first-family-minimality", FIRST_INSTANCES,
        _each("first({0},{1})", first, _first_minimality)),
    3: ("first-family-weight-counts", FIRST_INSTANCES, _run_first_counts),
    4: ("second-family", SECOND_INSTANCES,
        _each("second({0},{1},{2})", second, _second)),
    5: ("weight-bounded-family", WEIGHT_INSTANCES,
        _each("weight_s({1},{0},{2})", lambda t, s, q: weight_s(s, t, q),
              _weight_family)),
    6: ("extended-family", EXTENDED_INSTANCES,
        _each("extended({0},{1})", extended, _extended)),
    7: ("lift", None, _run_lift),
    8: ("function-codes", None, _run_function_codes),
    9: ("tensor-products", None, _run_tensor),
    10: ("secret-sharing", None, _run_sss),
    11: ("ratio-bound-consistency", None, _run_consistency),
}


def _is_int(value) -> bool:
    """An integer other than a bool, so that JSON true stays refused."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_instances(number, instances) -> tuple[int, Optional[tuple]]:
    """The id as an int, and the instances as int tuples (None stays None)."""
    spec = _CRITERIA.get(int(number)) if _is_int(number) else None
    if spec is None:
        raise BadParams(f"unknown criterion {number!r}; valid ids are 1..11")
    number, defaults = int(number), spec[1]
    if instances is None:
        return number, None
    if defaults is None:
        raise BadParams(f"criterion {number} does not take instances")
    if not isinstance(instances, (list, tuple)):
        raise BadParams(f"criterion {number} instances must be a list, "
                        f"got {instances!r}")
    arity = len(defaults[0])
    for item in instances:
        if (not isinstance(item, (list, tuple)) or len(item) != arity
                or not all(map(_is_int, item))):
            raise BadParams(
                f"criterion {number} instances must be length-"
                f"{arity} integer tuples, got {item!r}")
    return number, tuple(tuple(map(int, item)) for item in instances)


def _collect(pairs) -> list[CheckResult]:
    """Drain each pair a runner yields; see the module docstring."""
    results: list[CheckResult] = []
    for label, checks in pairs:
        try:
            for c in checks:
                if len(c) == 3:
                    c += (not c[1] and label in _DISCREPANCIES.get(c[0], ()),)
                results.append(CheckResult(label, *c))
        except BudgetExceeded as exc:
            results.append(CheckResult(label, "budget", False, str(exc)))
    return results


def run_criterion(number: int, instances: Optional[Sequence] = None,
                  budget: int = DEFAULT_BUDGET,
                  registry: Optional[dict] = None) -> CriterionResult:
    """Run one numbered criterion and collect its checks.

    The codes it builds are added to registry (label -> code). Criterion
    11 audits every code there; given an empty registry, it first runs
    criteria 1 to 10 on their default instances into it.
    """
    number, use = _check_instances(number, instances)
    budget = _int(budget, "budget")
    registry = {} if registry is None else registry
    if number == 11 and not registry:
        for m in range(1, 11):
            run_criterion(m, None, budget, registry)
    name, defaults, runner = _CRITERIA[number]
    pairs = runner(defaults if use is None else use, budget, registry)
    return CriterionResult(number, name, tuple(_collect(pairs)))


@dataclass
class SweepReport:
    """Results of one sweep run plus the codes it built."""

    results: list[CriterionResult]
    budget: int
    registry: dict[str, LinearCode]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        checks = [c for r in self.results for c in r.checks]
        return {
            "version": 1,
            "budget": self.budget,
            "criteria": [r.as_dict() for r in self.results],
            "summary": {
                "criteria_passed": sum(1 for r in self.results if r.passed),
                "criteria_total": len(self.results),
                "checks_passed": sum(1 for c in checks if c.passed),
                "checks_total": len(checks),
                "flagged": sum(1 for c in checks if c.paper_discrepancy),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def table(self) -> str:
        if not self.results:
            return "no criteria configured\n"
        lines = [r.line() for r in self.results]
        ok = sum(1 for r in self.results if r.passed)
        lines.append(f"{ok}/{len(self.results)} criteria passed")
        if any(c.paper_discrepancy for r in self.results for c in r.checks):
            lines.append("* includes checks flagged paper_discrepancy: "
                         "enumeration disagrees with a published "
                         "closed-form claim")
        return "\n".join(lines) + "\n"


def load_config(path=None) -> dict:
    """Read a sweep configuration; with no path, every criterion on its
    default instances."""
    if path is None:
        return validate_config({"criteria": list(_CRITERIA)})
    try:
        cfg = json.loads(Path(path).read_bytes().decode("utf-8"))
    # bad UTF-8 or JSON (both ValueErrors), or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise BadParams(f"sweep config is not UTF-8 JSON: {exc}") from None
    return validate_config(cfg)


def validate_config(cfg) -> dict:
    """Normalize a parsed sweep config, raising BadParams on bad shape."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("criteria"), list):
        raise BadParams("sweep config must be an object with a "
                        "'criteria' list")
    version = cfg.get("version", 1)
    if type(version) is not int or version != 1:
        raise BadParams(f"sweep config version must be 1, got {version!r}")
    entries = []
    for entry in cfg["criteria"]:
        if not isinstance(entry, dict):
            entry = {"id": entry}
        unknown = [key for key in entry if key not in ("id", "instances")]
        if unknown:
            raise BadParams(f"unknown key {unknown[0]!r} in criteria entry; "
                            f"valid keys are 'id' and 'instances'")
        number, instances = _check_instances(entry.get("id"),
                                             entry.get("instances"))
        entries.append({"id": number, "instances": instances})
    return {"version": version, "criteria": entries}


def run_sweep(config: Optional[dict] = None, budget: int = DEFAULT_BUDGET,
              strict: bool = False) -> SweepReport:
    """Run the configured criteria; by default all eleven.

    Criteria share one code registry, so the consistency criterion audits
    exactly the codes the earlier criteria touched. An empty 'criteria'
    list yields an empty passing report. With strict=True the sweep stops
    after the first criterion that has a failing check.
    """
    config = load_config() if config is None else validate_config(config)
    budget = _int(budget, "budget")
    registry = {}
    results = []
    for entry in config["criteria"]:
        res = run_criterion(entry["id"], entry["instances"], budget, registry)
        results.append(res)
        if strict and not res.passed:
            break
    return SweepReport(results=results, budget=budget, registry=registry)


def _slug(label: str) -> str:
    squashed = re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")
    return squashed or "code"


def write_distribution_csvs(report: SweepReport, out_dir) -> list[Path]:
    """Write one weight-distribution CSV per registered code.

    Codes with more than report.budget words are skipped: the sweep has
    already recorded their overrun as a failed budget check.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, code in report.registry.items():
        if code.size > report.budget:
            continue
        dist = weight_distribution(code, report.budget)
        path = out / f"dist_{_slug(label)}.csv"
        path.write_text(dist.to_csv(), encoding="utf-8")
        paths.append(path)
    return paths
