"""Rewrite the golden outputs that the benchmark compares byte for byte.

    python3 perfbench/record_goldens.py

Records the default sweep's JSON report and table, and the stdout and
exit code of ``mincodes analyze --json`` on every analyze input of the
default seed.  Run it only on a commit whose outputs are known good, and
record any deliberate output change in CHANGES.md.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mincodes  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    os.chdir(HERE.parent)
    workloads.GOLDEN.mkdir(exist_ok=True)
    report = mincodes.run_sweep()
    (workloads.GOLDEN / "sweep_report.json").write_text(
        report.to_json(), encoding="utf-8")
    (workloads.GOLDEN / "sweep_table.txt").write_text(
        report.table(), encoding="utf-8")
    work = workloads.Analyze(workloads.DEFAULT_SEED)
    for stem, path, _, _ in work.items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = mincodes.cli.main(["analyze", "--in", path, "--json"])
        (workloads.GOLDEN / f"analyze_{stem}.out").write_text(
            f"exit {status}\n{out.getvalue()}", encoding="utf-8")


if __name__ == "__main__":
    main()
