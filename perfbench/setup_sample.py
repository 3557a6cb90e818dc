"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_sample.py WORKLOAD SEED

The clock starts before ``mincodes`` is imported, so the figure covers the
import, the field and code builds, and the input files that the workload
writes; interpreter start-up is not included.  ``run.py`` calls this
several times per run and reports the median as ``setup_s``.  Output:
raw seconds, then seconds calibrated by the kernel of
``workloads.Calibrator``, warmed once and then timed twice after the set-up.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed)
    raw = time.perf_counter() - START
    cal = workloads.Calibrator()
    cal.kernel()  # the first call pays one-time costs
    kernel = (cal.kernel() + cal.kernel()) / 2
    print(repr(raw), repr(raw * workloads.CAL_REF / kernel))


if __name__ == "__main__":
    main()
