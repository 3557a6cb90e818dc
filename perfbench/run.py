"""mincodes benchmark: one closed-loop workload per process, one client.

    python3 perfbench/run.py --workload sweep|analyze|sss --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each in its own process

The package is imported from ``src/`` next to this directory; nothing is
installed or built.  With ``--trace 0`` the run measures the end-to-end
metrics of ``BENCHMARK.json`` with every package function untouched (this
is asserted before and after).  With ``--trace 1`` it wraps the package's
public functions from outside (see ``tracing.py``) and reports the
per-layer metrics over one unit of work: the set-up plus the median traced
pass.  Traced and untraced passes alternate, so the tracing overhead is
measured in the same process.

Every output is checked (see ``workloads.py``).  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  Without the
package sources the script exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def import_package():
    """Import mincodes from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mincodes
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mincodes from {src}: {exc}")
    if Path(mincodes.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: mincodes came from {mincodes.__file__}, "
                 f"not from {src}")


def metadata() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(p * len(xs)))]


def measure(run_pass, rec, seconds: float, before=None, after=None):
    """Run passes until the next one would end past ``seconds``.

    Returns (raw, calibrated) seconds per pass.  An exception in a pass is
    a failed operation; the loop stops there.
    """
    times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        i = len(times)
        if before:
            before(i)
        t0 = time.perf_counter()
        try:
            times.append(run_pass(rec))
        except Exception:  # a crash is a failed operation, not a bench error
            rec.check(False, traceback.format_exc(limit=3))
            times.append((time.perf_counter() - t0,) * 2)
            break
        finally:
            if after:
                after(i)
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and \
                elapsed + statistics.median(t for t, _ in times) > seconds:
            break
    return times


def sample_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, calibrated) set-up seconds from fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_sample.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        raw, cal = proc.stdout.split()
        out.append((float(raw), float(cal)))
    return out


def windowed(windows: list[list[float]], factors: list[float]):
    """(raw, calibrated) median latency of each window that has calls."""
    pairs = []
    for samples, factor in zip(windows, factors):
        if samples:
            m = statistics.median(samples)
            pairs.append((m, m * factor))
    return pairs


def summary(name: str, unit: str, fmt: str, pairs) -> str:
    raw = [r for r, _ in pairs]
    cal = [c for _, c in pairs]
    q1, q2, q3 = quartiles(cal)
    return (f"{name:<19s}{q2:{fmt}} {unit}  (quartiles {q1:{fmt}} "
            f"{q3:{fmt}}, raw median {statistics.median(raw):{fmt}}, "
            f"{len(pairs)}")


def untraced(args, workloads, tracing):
    tracing.assert_pristine()
    setups = sample_setup(args.workload, args.seed)
    rec = workloads.Recorder()
    work = workloads.WORKLOADS[args.workload](args.seed)
    passes = measure(work.run_pass, rec, args.seconds)
    work.verify(rec)
    tracing.assert_pristine()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deal = windowed(rec.deal_us, rec.factors)
    recon = windowed(rec.reconstruct_us, rec.factors)
    access = [(a, a * f) for a, f in zip(rec.access_s, rec.factors)
              if a is not None]
    values = {
        "setup_s": statistics.median(c for _, c in setups),
        "pass_s": statistics.median(c for _, c in passes),
        "deal_us_p50": statistics.median(c for _, c in deal),
        "reconstruct_us_p50": statistics.median(c for _, c in recon),
        "access_s": statistics.median(c for _, c in access),
        "peak_rss_mb": peak_mb,
    }
    source = "sss passes" if args.workload == "sss" else "first(3,3) probe"
    calls = [x for w in rec.deal_us for x in w]
    rcalls = [x for w in rec.reconstruct_us for x in w]
    lines = [
        summary("setup_s", "s", ".4f", setups) + " fresh interpreters)",
        summary("pass_s", "s", ".4f", passes) + " passes)",
        summary("deal_us_p50", "us", ".2f", deal)
        + f" windows; raw p99 {percentile(calls, 0.99):.2f} us over "
        f"{len(calls)} calls; {source})",
        summary("reconstruct_us_p50", "us", ".2f", recon)
        + f" windows; raw p99 {percentile(rcalls, 0.99):.2f} us over "
        f"{len(rcalls)} calls; {source})",
        summary("access_s", "s", ".5f", access) + f" windows; {source})",
        f"{'peak_rss_mb':<19s}{peak_mb:.1f} MB",
    ]
    return values, rec, lines


def traced(args, workloads, tracing):
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    rec = workloads.Recorder()
    hooks.install()
    try:
        work = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        hooks.uninstall()
    setup = tracer.take()
    aggs: list[dict] = []

    def before(i):
        if i % 2:
            hooks.install()

    def after(i):
        if i % 2:
            hooks.uninstall()
            aggs.append(tracer.take())

    passes = [c for _, c in measure(work.run_pass, rec, args.seconds,
                                    before, after)]
    plain, timed = passes[0::2], passes[1::2]
    work.verify(rec)
    spans = {"setup": setup.pop("spans"), "pass": aggs[0]["spans"]}
    for a in aggs:
        a.pop("spans")
    values = tracing.layer_metrics(tracing.combine(setup, aggs))
    workloads.WORKDIR.mkdir(exist_ok=True)
    dump = workloads.WORKDIR / f"trace_{args.workload}_seed{args.seed}.json"
    dump.write_text(json.dumps(spans), encoding="utf-8")
    lines = [f"{k:<34s} {v:.6g}" for k, v in values.items()]
    overhead = statistics.median(timed) - statistics.median(plain)
    lines.append(
        f"tracing overhead: traced pass_s {statistics.median(timed):.4f} s - "
        f"untraced pass_s {statistics.median(plain):.4f} s = "
        f"{overhead:+.4f} s (calibrated medians of {len(timed)} traced and "
        f"{len(plain)} untraced passes)")
    lines += criterion_10_split(spans["pass"])
    lines.append(f"spans of the set-up and one traced pass: {dump}")
    return values, rec, lines


def criterion_10_split(spans: list[list]) -> list[str]:
    """Time inside sweep.criterion_10 by sss call, from one traced pass."""
    roots = {i for i, s in enumerate(spans) if s[0] == "sweep.criterion_10"}
    if not roots:
        return []
    inside: dict[str, float] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        if not name.startswith("sss."):
            continue
        p = parent
        while p >= 0 and p not in roots and not \
                spans[p][0].startswith("sss."):
            p = spans[p][3]
        if p in roots:
            inside[name] = inside.get(name, 0.0) + t1 - t0
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    parts = ", ".join(f"{k} {v:.4f} s ({v / total:.0%})"
                      for k, v in sorted(inside.items()))
    return [f"criterion 10 split: sweep.criterion_10.s {total:.4f} s; {parts}"]


def run_all(args) -> int:
    """Each workload in its own process; a combined table, one JSON line."""
    results = {}
    for name in ("sweep", "analyze", "sss"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<34s}" + "".join(f"{w:>14s}" for w in results))
    for m in names:
        unit = results["sweep"]["metrics"][m]["unit"]
        print(f"{m + ' [' + unit + ']':<34s}" + "".join(
            f"{r['metrics'][m]['value']:>14.6g}" for r in results.values()))
    print(f"{'fail_ratio':<34s}" + "".join(
        f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "analyze", "sss", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    import_package()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = metadata()
    run = traced if args.trace else untraced
    values, rec, lines = run(args, workloads, tracing)
    seed_note = " (unused: fixed config)" if args.workload == "sweep" else ""
    print(f"workload {args.workload}  seed {args.seed}{seed_note}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("metadata " + json.dumps(meta))
    print("\n".join(lines))
    print(f"fail_ratio         {rec.failed}/{rec.attempted} = "
          f"{rec.failed / max(rec.attempted, 1):.6g}")
    for what in rec.failures:
        print(f"FAILED: {what}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": int(values[m["name"]])
                                if m["unit"] == "count"
                                else values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
