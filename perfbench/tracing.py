"""Spans and counters recorded around the public calls of each mincodes layer.

Nothing under ``src/`` knows about this module.  ``install`` replaces every
module binding of each traced function (``coeff_blocks`` is bound in
``codes``, ``analysis``, ``sss`` and ``sweep``; ``rref`` in ``matrix``,
``codes``, ``sss`` and ``constructions``; the package re-exports most of
them) and patches ``GF.matmul`` and ``LinearCode.codeword`` on their
classes.  ``uninstall`` puts the originals back, and ``assert_pristine``
checks that no wrapper is left, which untraced runs call before and after
they measure.

A span is ``[name, start, end, parent]`` kept in memory; self time is a
span's duration minus the durations of its direct children (one thread, so
children never overlap).  Generators (``coeff_blocks``,
``projective_blocks``) get row counters instead of spans, because a
suspended generator's time belongs to its consumer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

MODULES = ("mincodes", "mincodes.field", "mincodes.matrix", "mincodes.codes",
           "mincodes.analysis", "mincodes.constructions", "mincodes.sss",
           "mincodes.sweep", "mincodes.cli")

# (defining module, function name, span name)
SPANNED = (
    ("mincodes.field", "build_field", "field.build"),
    ("mincodes.matrix", "rref", "matrix.rref"),
    ("mincodes.matrix", "in_span", "matrix.in_span"),
    ("mincodes.matrix", "nullspace", "matrix.nullspace"),
    ("mincodes.codes", "weight_distribution", "codes.weight_distribution"),
    ("mincodes.codes", "dual_code", "codes.dual_code"),
    ("mincodes.analysis", "is_minimal_code", "analysis.is_minimal_code"),
    ("mincodes.analysis", "minimal_codewords", "analysis.minimal_codewords"),
    ("mincodes.analysis", "has_full_value_property", "analysis.full_value"),
    ("mincodes.analysis", "ab_condition", "analysis.ab_condition"),
    ("mincodes.constructions", "first", "constructions.build"),
    ("mincodes.constructions", "second", "constructions.build"),
    ("mincodes.constructions", "weight_s", "constructions.build"),
    ("mincodes.constructions", "extended", "constructions.build"),
    ("mincodes.constructions", "lift", "constructions.build"),
    ("mincodes.constructions", "tensor_product", "constructions.build"),
    ("mincodes.constructions", "cf_code", "constructions.build"),
    ("mincodes.constructions", "cg_code", "constructions.build"),
    ("mincodes.sss", "deal", "sss.deal"),
    ("mincodes.sss", "reconstruct", "sss.reconstruct"),
    ("mincodes.sss", "is_authorized", "sss.is_authorized"),
    ("mincodes.sss", "minimal_authorized_sets", "sss.access"),
    ("mincodes.sss", "perfectness_check", "sss.perfectness"),
    ("mincodes.sweep", "run_sweep", "sweep.run"),
    ("mincodes.sweep", "run_criterion", None),  # named per criterion
    ("mincodes.cli", "main", "cli.main"),
)
GENERATORS = (("mincodes.codes", "coeff_blocks"),
              ("mincodes.analysis", "projective_blocks"))
_MARK = "__perfbench_wrapper__"


class Tracer:
    """Spans and counters of one phase; ``take`` hands them over and resets."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.codes: dict[bytes, int] = {}  # distinct enumerated codes -> q^k
        self.block_bytes = 0  # largest computed pairwise-scan footprint
        self.enum_depth = 0
        self.enum_start = 0.0
        self.proj_depth = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def take(self) -> dict:
        """Aggregate this phase's spans and counters, then reset."""
        agg = aggregate(self.spans, self.counts)
        agg["codes"] = dict(self.codes)
        agg["block_bytes"] = self.block_bytes
        agg["spans"] = self.spans
        self.__init__()
        return agg


def aggregate(spans: list[list], counts: dict) -> dict:
    """Per-name calls, inclusive and self seconds, plus the counters."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    dual_access: set[int] = set()
    for i, (name, t0, t1, parent) in enumerate(spans):
        if name == "codes.dual_code" and parent >= 0 \
                and spans[parent][0] == "sss.access":
            dual_access.add(parent)
    for i, (name, t0, t1, parent) in enumerate(spans):
        if name == "sss.access":
            name = "sss.access_dual" if i in dual_access \
                else "sss.access_search"
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
    return {"calls": dict(calls), "total": dict(total), "self": dict(self_s),
            "counts": dict(counts)}


def _code_key(code) -> bytes:
    data = code.gen.data
    return repr((code.q, data.shape)).encode() + data.tobytes()


def _span_wrapper(fn, name, tracer, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:  # run_criterion(number, ...)
            num = args[0] if args else kwargs["number"]
            idx = tracer.open(f"sweep.criterion_{int(num):02d}")
        else:
            idx = tracer.open(name)
        before = tracer.counts["analysis.classes"] if note else 0
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note:
            note(tracer, args, result,
                 tracer.counts["analysis.classes"] - before)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _note_scan(tracer, code, classes, pairs, row_block):
    """Pairwise minimality scan: pairs, pair capacity, computed memory."""
    tracer.counts["analysis.pairs_checked"] += pairs
    tracer.counts["analysis.pairs_possible"] += classes * (classes - 1)
    rows = min(row_block, classes)
    # int64 'outside' block, int64 complement matrix, int64 support block
    footprint = 8 * (rows * classes + classes * code.n + rows * code.n)
    tracer.block_bytes = max(tracer.block_bytes, footprint)


def _notes(row_block):
    def is_minimal(tracer, args, report, _classes):
        _note_scan(tracer, args[0], report.classes, report.pairs_checked,
                   row_block)

    def minimal_words(tracer, args, _result, classes):
        c = int(classes)
        _note_scan(tracer, args[0], c, c * (c - 1), row_block)

    def perfectness(tracer, args, _result, _classes):
        tracer.counts["sss.perfectness.dealings"] += args[0].code.size

    return {"analysis.is_minimal_code": is_minimal,
            "analysis.minimal_codewords": minimal_words,
            "sss.perfectness": perfectness}


def _coeff_blocks_wrapper(fn, tracer):
    @functools.wraps(fn)
    def wrapper(code, *args, **kwargs):
        tracer.codes.setdefault(_code_key(code), code.size)
        inner = fn(code, *args, **kwargs)
        if tracer.enum_depth == 0:
            tracer.enum_start = time.perf_counter()
        tracer.enum_depth += 1
        try:
            for block in inner:
                rows = len(block)
                tracer.counts["codes.words"] += rows
                if tracer.proj_depth:
                    tracer.counts["analysis.coeff_rows"] += rows
                yield block
        finally:
            inner.close()
            tracer.enum_depth -= 1
            if tracer.enum_depth == 0:
                tracer.counts["codes.enum_s"] += (time.perf_counter()
                                                  - tracer.enum_start)

    setattr(wrapper, _MARK, True)
    return wrapper


def _projective_wrapper(fn, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                tracer.proj_depth += 1
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.proj_depth -= 1
                tracer.counts["analysis.classes"] += len(item[0])
                yield item
        finally:
            inner.close()

    setattr(wrapper, _MARK, True)
    return wrapper


def _matmul_wrapper(fn, tracer):
    @functools.wraps(fn)
    def matmul(self, a, b):
        idx = tracer.open("field.matmul_ext" if self.m > 1
                          else "field.matmul_prime")
        try:
            out = fn(self, a, b)
        finally:
            tracer.close(idx)
        tracer.counts["field.matmul.macs"] += out.size * len(b)
        return out

    setattr(matmul, _MARK, True)
    return matmul


def _codeword_wrapper(fn, tracer):
    @functools.wraps(fn)
    def codeword(self, coeffs):
        idx = tracer.open("codes.codeword")
        try:
            return fn(self, coeffs)
        finally:
            tracer.close(idx)

    setattr(codeword, _MARK, True)
    return codeword


def _modules():
    return [importlib.import_module(m) for m in MODULES]


def _methods():
    from mincodes.codes import LinearCode
    from mincodes.field import GF
    return ((GF, "matmul", _matmul_wrapper),
            (LinearCode, "codeword", _codeword_wrapper))


class Hooks:
    """Installs one tracer's wrappers and can restore the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []

    def install(self) -> None:
        assert_pristine()
        mods = _modules()
        row_block = getattr(importlib.import_module("mincodes.analysis"),
                            "_ROW_BLOCK", 1024)
        notes = _notes(row_block)
        wrappers = []
        for modname, fname, span in SPANNED:
            orig = getattr(importlib.import_module(modname), fname)
            wrappers.append((orig, _span_wrapper(orig, span, self.tracer,
                                                 notes.get(span))))
        for modname, fname in GENERATORS:
            orig = getattr(importlib.import_module(modname), fname)
            make = (_coeff_blocks_wrapper if fname == "coeff_blocks"
                    else _projective_wrapper)
            wrappers.append((orig, make(orig, self.tracer)))
        for orig, wrapper in wrappers:
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for cls, attr, make in _methods():
            orig = cls.__dict__[attr]
            self.saved.append((cls, attr, orig))
            setattr(cls, attr, make(orig, self.tracer))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()
        assert_pristine()


def assert_pristine() -> None:
    """Raise unless every traced binding is the package's own function."""
    for mod in _modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper left on "
                                   f"{mod.__name__}.{attr}")
    for cls, attr, _ in _methods():
        if getattr(cls.__dict__[attr], _MARK, False):
            raise RuntimeError(f"tracing wrapper left on "
                               f"{cls.__name__}.{attr}")


def combine(setup: dict, passes: list[dict]) -> dict:
    """One unit of traced work: the set-up and the median pass.

    Every pass of a workload does identical work, so each count must be the
    same in every pass; a difference raises.  Times take the median pass.
    """
    first = passes[0]
    for p in passes[1:]:
        for kind in ("calls", "counts"):
            keys = set(first[kind]) | set(p[kind])
            diff = sorted(k for k in keys
                          if k != "codes.enum_s"
                          and first[kind].get(k, 0) != p[kind].get(k, 0))
            if diff:
                raise RuntimeError(f"counts differ between passes: {diff}")
    mid = {"calls": first["calls"], "counts": dict(first["counts"]),
           "codes": first["codes"], "block_bytes": first["block_bytes"]}
    for kind in ("total", "self"):
        keys = set().union(*(p[kind] for p in passes))
        mid[kind] = {k: statistics.median([p[kind].get(k, 0.0) for p in passes])
                     for k in keys}
    mid["counts"]["codes.enum_s"] = statistics.median(
        [p["counts"].get("codes.enum_s", 0.0) for p in passes])
    out = {"calls": defaultdict(int), "total": defaultdict(float),
           "self": defaultdict(float), "counts": defaultdict(float),
           "codes": {}, "block_bytes": 0}
    for part in (setup, mid):
        for kind in ("calls", "total", "self", "counts"):
            for k, v in part[kind].items():
                out[kind][k] += v
        out["codes"].update(part["codes"])
        out["block_bytes"] = max(out["block_bytes"], part["block_bytes"])
    return out


LAYERS = ("field", "matrix", "codes", "analysis", "constructions", "sss",
          "sweep", "cli")


def layer_metrics(unit: dict) -> dict:
    """Flat per-layer metric values from a combined unit of work."""
    calls, total, self_s, counts = (unit["calls"], unit["total"],
                                    unit["self"], unit["counts"])

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    words = counts.get("codes.words", 0.0)
    enum_s = counts.get("codes.enum_s", 0.0)
    space = sum(unit["codes"].values())
    possible = counts.get("analysis.pairs_possible", 0.0)
    coeff_rows = counts.get("analysis.coeff_rows", 0.0)
    classes = counts.get("analysis.classes", 0.0)
    m = {
        "field.build.s": t("field.build"),
        "field.matmul.calls": c("field.matmul_ext") + c("field.matmul_prime"),
        "field.matmul_ext.s": t("field.matmul_ext"),
        "field.matmul_prime.s": t("field.matmul_prime"),
        "field.matmul.macs": counts.get("field.matmul.macs", 0.0),
        "matrix.rref.calls": c("matrix.rref"),
        "matrix.rref.s": t("matrix.rref"),
        "matrix.in_span.calls": c("matrix.in_span"),
        "matrix.in_span.s": t("matrix.in_span"),
        "matrix.nullspace.s": t("matrix.nullspace"),
        "codes.words": words,
        "codes.words_per_s": words / enum_s if enum_s else 0.0,
        "codes.weight_distribution.calls": c("codes.weight_distribution"),
        "codes.weight_distribution.s": t("codes.weight_distribution"),
        "codes.enum_passes": words / space if space else 0.0,
        "codes.dual_code.s": t("codes.dual_code"),
        "codes.codeword.calls": c("codes.codeword"),
        "analysis.is_minimal_code.calls": c("analysis.is_minimal_code"),
        "analysis.is_minimal_code.s": t("analysis.is_minimal_code"),
        "analysis.classes": classes,
        "analysis.pairs_checked": counts.get("analysis.pairs_checked", 0.0),
        "analysis.pair_fraction":
            counts.get("analysis.pairs_checked", 0.0) / possible
            if possible else 0.0,
        "analysis.projective_keep": classes / coeff_rows if coeff_rows
        else 0.0,
        "analysis.pairwise_block_mb": unit["block_bytes"] / 1e6,
        "analysis.minimal_codewords.s": t("analysis.minimal_codewords"),
        "analysis.full_value.s": t("analysis.full_value"),
        "analysis.ab_condition.s": t("analysis.ab_condition"),
        "constructions.build.s": t("constructions.build"),
        "sss.deal.calls": c("sss.deal"),
        "sss.deal.s": t("sss.deal"),
        "sss.reconstruct.calls": c("sss.reconstruct"),
        "sss.reconstruct.s": t("sss.reconstruct"),
        "sss.access_dual.s": t("sss.access_dual"),
        "sss.access_search.s": t("sss.access_search"),
        "sss.authorized_checks": c("sss.is_authorized"),
        "sss.perfectness.calls": c("sss.perfectness"),
        "sss.perfectness.s": t("sss.perfectness"),
        "sss.perfectness.dealings":
            counts.get("sss.perfectness.dealings", 0.0),
    }
    for i in range(1, 12):
        m[f"sweep.criterion_{i:02d}.s"] = t(f"sweep.criterion_{i:02d}")
    m["cli.main.s"] = t("cli.main")
    m["cli.self.s"] = self_s.get("cli.main", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self.s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(layer + "."))
    return m
