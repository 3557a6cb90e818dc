"""The three benchmark workloads: set-up, one pass, and output checks.

Every call into the package goes through a module attribute (``mc.deal``,
``mc.cli.main``), never a name bound here, so the tracing wrappers that
``tracing.Hooks`` installs see each call.

* ``sweep``: ``run_sweep()`` on the packaged default config, a fresh code
  registry each pass.  Fixed input; the seed is unused.
* ``analyze``: ``mincodes analyze --in F --json`` in-process over six
  generator files written at set-up, bigger than anything the sweep builds.
* ``sss``: one dealer in a closed loop.  Each pass computes the access
  structure of two schemes (search path on first(4,4), dual path on a random
  [24,12]_2 code), then deals and reconstructs once on every minimal set of
  first(4,4), in four interleaved windows.

Latencies are collected in windows: in each sss pass one for the access
structures and four for the round trips, and one per round of the
first(3,3) Massey probe that ``sweep`` and ``analyze`` run
after each sweep and after each CLI call, so that every workload reports the
deal, reconstruct and access metrics.

Every timed stretch (a sweep, a CLI call, a window) runs between two
calibration kernels; see ``Calibrator``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mincodes as mc
import mincodes.cli  # noqa: F401  (mc.cli.main is called by attribute)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKDIR = Path(".perfbench_work")  # relative: analyze stdout embeds the path
DEFAULT_SEED = 1

SWEEP_FIELDS = (2, 3, 4, 5)
ANALYZE_FIRST = ((5, 5), (6, 4), (4, 16), (3, 64))
PROBE_CYCLES = 5  # passes over first(3,3)'s 22 minimal sets per round
SSS_CHUNKS = 4  # round-trip windows per sss pass
CAL_REF = 0.011  # kernel seconds on the reference host in its fast state


class Calibrator:
    """A fixed kernel that tracks the speed the host gives this process.

    The 2-core host this benchmark was tuned on switches, for ten seconds to
    minutes at a time, between a fast state and one where the same code
    (user CPU time included) runs about 1.7x slower.  The kernel mixes the
    three kinds of work the workloads do: interpreter loops, many numpy
    calls on tiny arrays, and table lookups by fancy indexing.  The tiny
    calls get the largest share because reconstruct and the access paths
    track them most closely.  A stretch of
    workload time t measured between kernel runs c0 and c1 is reported as
    t * CAL_REF / mean(c0, c1): seconds at the speed where the kernel takes
    CAL_REF.  The raw times are printed next to the calibrated ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 64, size=(64, 64)).astype(np.uint8)
        self.rows = rng.integers(0, 64, size=50_000)
        self.cols = rng.integers(0, 64, size=50_000)
        self.small = rng.integers(0, 4, size=(4, 20))

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(30_000):
            acc[i & 255] = acc.get(i & 255, 0) + i * 3
        for _ in range(900):
            np.nonzero(self.small[1:, 3])
            self.small[[0, 1]]
        for _ in range(20):
            self.table[self.rows, self.cols]
        return time.perf_counter() - t0

    def timed(self, fn):
        """(fn's result, raw seconds, calibration factor)."""
        c0 = self.kernel()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        c1 = self.kernel()
        return out, raw, 2 * CAL_REF / (c0 + c1)


@dataclass
class Recorder:
    """Operations attempted and failed, plus latency samples per window."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    deal_us: list = field(default_factory=list)
    reconstruct_us: list = field(default_factory=list)
    access_s: list = field(default_factory=list)
    factors: list = field(default_factory=list)  # calibration per window
    cal: Calibrator = field(default_factory=Calibrator)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def window(self, body) -> float:
        """Run body as one latency window; return its raw seconds."""
        self.deal_us.append([])
        self.reconstruct_us.append([])
        self.access_s.append(None)
        _, raw, factor = self.cal.timed(body)
        self.factors.append(factor)
        return raw


# -- Massey round trips, shared by the sss workload and the probe -------------


def access(scheme, rec: Recorder, method: str = "auto"):
    t0 = time.perf_counter()
    sets = mc.minimal_authorized_sets(scheme, method=method)
    rec.access_s[-1] = (rec.access_s[-1] or 0.0) + time.perf_counter() - t0
    return [a.indices for a in sets]


def round_trips(scheme, sets, cycles: int, rng: random.Random,
                rec: Recorder) -> None:
    """Deal a random secret and reconstruct it on each set, cycles times."""
    q = scheme.field.q
    deal_us, reconstruct_us = rec.deal_us[-1], rec.reconstruct_us[-1]
    for _ in range(cycles):
        for subset in sets:
            secret = rng.randrange(q)
            seed = rng.getrandbits(32)
            t0 = time.perf_counter_ns()
            dealt = mc.deal(scheme, secret, seed)
            t1 = time.perf_counter_ns()
            shares = [dealt.shares[j] for j in subset]
            t2 = time.perf_counter_ns()
            got = mc.reconstruct(scheme, subset, shares)
            t3 = time.perf_counter_ns()
            deal_us.append((t1 - t0) / 1e3)
            reconstruct_us.append((t3 - t2) / 1e3)
            rec.check(got == secret,
                      f"reconstruct {subset} gave {got}, dealt {secret}")


def check_antichain(sets, rec: Recorder, label: str) -> None:
    """Sorted by (size, indices), no set inside another."""
    ok = bool(sets) and sets == sorted(sets, key=lambda s: (len(s), s))
    as_sets = [frozenset(s) for s in sets]
    for i, a in enumerate(as_sets):
        if not ok:
            break
        ok = not any(b < a for b in as_sets[:i] if len(b) < len(a))
    rec.check(ok, f"{label}: access structure is not a sorted antichain")


class Probe:
    """first(3,3): both access paths must agree, then round trips."""

    def __init__(self, seed: int):
        self.scheme = mc.SssScheme(mc.first(3, 3))
        self.rng = random.Random(f"probe-{seed}")

    def round(self, rec: Recorder) -> None:
        rec.window(lambda: self._round(rec))

    def _round(self, rec: Recorder) -> None:
        dual = access(self.scheme, rec, "dual")
        search = access(self.scheme, rec, "search")
        rec.check(dual == search,
                  "first(3,3): dual and search access structures differ")
        round_trips(self.scheme, dual, PROBE_CYCLES, self.rng, rec)


class Workload:
    """run_pass(rec) returns (raw seconds, calibrated seconds) of a pass."""

    name = ""

    def verify(self, rec: Recorder) -> None:
        """Untimed checks made once per run, after the passes."""


# -- sweep ------------------------------------------------------------------


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int):
        del seed  # fixed config: the seed is recorded as unused
        for q in SWEEP_FIELDS:
            mc.build_field(q)
        self.want_json = golden_text("sweep_report.json")
        self.want_table = golden_text("sweep_table.txt")
        self.probe = Probe(0)

    def run_pass(self, rec: Recorder) -> tuple[float, float]:
        report, raw, factor = rec.cal.timed(mc.run_sweep)
        rec.check(report.to_json() == self.want_json,
                  "sweep JSON differs from the golden")
        rec.check(report.table() == self.want_table,
                  "sweep table differs from the golden")
        self.probe.round(rec)
        return raw, raw * factor


# -- analyze ----------------------------------------------------------------


def analyze_instances(seed: int) -> list[tuple[str, object]]:
    """(file stem, builder) for each analyze input."""
    out = [(f"first_{t}_{q}", (lambda t=t, q=q: mc.first(t, q)))
           for t, q in ANALYZE_FIRST]
    out.append((f"random_90_13_2_s{seed}",
                lambda: mc.random_code(90, 13, 2, seed=seed)))
    out.append((f"random_24_9_3_s{seed}",
                lambda: mc.random_code(24, 9, 3, seed=seed)))
    return out


def first_distribution(t: int, q: int) -> dict[str, int]:
    """C(t,s)(q-1)^s words at w_s = s + C(s,2)(q-2) + s(t-s)(q-1)."""
    out: dict[int, int] = {0: 1}
    for s in range(1, t + 1):
        w = s + math.comb(s, 2) * (q - 2) + s * (t - s) * (q - 1)
        out[w] = out.get(w, 0) + math.comb(t, s) * (q - 1) ** s
    return {str(w): out[w] for w in sorted(out)}


def proportional(gf, a: list[int], b: list[int]) -> bool:
    """Whether a = lam * b for some nonzero lam of the field."""
    mul = gf.mul_table
    return any(all(int(mul[lam, y]) == x for x, y in zip(a, b))
               for lam in range(1, gf.q))


class Analyze(Workload):
    name = "analyze"

    def __init__(self, seed: int):
        WORKDIR.mkdir(exist_ok=True)
        self.items = []
        for stem, build in analyze_instances(seed):
            code = build()
            path = WORKDIR / f"{stem}.txt"
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            mc.write_matrix(code.gen, tmp, comment=stem)
            os.replace(tmp, path)
            golden = GOLDEN / f"analyze_{stem}.out"
            want = golden.read_text(encoding="utf-8") \
                if golden.exists() else None
            self.items.append((stem, str(path), code, want))
        self.probe = Probe(seed)

    def run_pass(self, rec: Recorder) -> tuple[float, float]:
        raw_total = cal_total = 0.0
        for stem, path, code, want in self.items:
            out = io.StringIO()

            def analyze():
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    return mc.cli.main(["analyze", "--in", path, "--json"])

            status, raw, factor = rec.cal.timed(analyze)
            raw_total += raw
            cal_total += raw * factor
            self.check(stem, code, status, out.getvalue(), want, rec)
            self.probe.round(rec)
        return raw_total, cal_total

    @staticmethod
    def check(stem, code, status, stdout, want, rec: Recorder) -> None:
        if want is not None:
            rec.check(f"exit {status}\n{stdout}" == want,
                      f"{stem}: stdout or exit code differs from the golden")
        try:
            report = json.loads(stdout)
        except ValueError:
            rec.check(False, f"{stem}: stdout is not JSON (exit {status})")
            return
        q, k = code.q, code.k
        counts = report["weight_distribution"]
        rec.check(sum(counts.values()) == q ** k,
                  f"{stem}: weight counts do not sum to q^k")
        if stem.startswith("first_"):
            t = int(stem.split("_")[1])
            rec.check(counts == first_distribution(t, q),
                      f"{stem}: distribution is not C(t,s)(q-1)^s at w_s")
        verdict = report["verdicts"]["minimality"]
        rec.check(status == (0 if verdict["is_minimal"] else 2),
                  f"{stem}: exit {status} for is_minimal = "
                  f"{verdict['is_minimal']}")
        if report["verdicts"]["ab"]["sufficient"]:
            rec.check(verdict["is_minimal"],
                      f"{stem}: sufficient weight ratio but not minimal")
        if not verdict["is_minimal"]:
            pair = verdict["witness"]
            covered, covering = pair["covered"], pair["covering"]
            inside = all(y for x, y in zip(covered, covering) if x)
            rec.check(inside and any(covered) and not proportional(
                code.field, covered, covering),
                f"{stem}: witness pair is not a non-proportional cover")


# -- sss --------------------------------------------------------------------


class Sss(Workload):
    name = "sss"

    def __init__(self, seed: int):
        self.schemes = (mc.SssScheme(mc.first(4, 4)),
                        mc.SssScheme(mc.random_code(24, 12, 2, seed=seed)))
        self.rng = random.Random(f"sss-{seed}")
        self.want = None

    def run_pass(self, rec: Recorder) -> tuple[float, float]:
        all_sets = []
        raw = rec.window(
            lambda: all_sets.extend(access(s, rec) for s in self.schemes))
        cal = raw * rec.factors[-1]
        for k in range(SSS_CHUNKS):  # every SSS_CHUNKS-th set: same mix
            chunk = all_sets[0][k::SSS_CHUNKS]
            part = rec.window(lambda: round_trips(
                self.schemes[0], chunk, 1, self.rng, rec))
            raw += part
            cal += part * rec.factors[-1]
        if self.want is None:
            self.want = all_sets
        rec.check(all_sets == self.want,
                  "access structure changed between passes")
        return raw, cal

    def verify(self, rec: Recorder) -> None:
        """The sets are antichains, and on first(3,3) the dual and search
        paths agree."""
        for label, sets in zip(("first(4,4)", "random(24,12,2)"), self.want):
            check_antichain(sets, rec, label)
        scheme = mc.SssScheme(mc.first(3, 3))
        dual = mc.minimal_authorized_sets(scheme, method="dual")
        search = mc.minimal_authorized_sets(scheme, method="search")
        rec.check(dual == search,
                  "first(3,3): dual and search access structures differ")


WORKLOADS = {w.name: w for w in (Sweep, Analyze, Sss)}
