"""Check that the traced counts repeat exactly at one seed.

    python3 perfbench/check_determinism.py [--seeds A,B] [--seconds S]

For each workload this makes two traced runs at seed A and one at seed B.
Every per-layer metric with unit ``count`` must be identical between the
two seed-A runs (exit status 1 otherwise).  Seed B shows the workload
shape under another seed: the table marks each count that differs from
seed A, which should happen only where the seed picks the inputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    a, b = (int(s) for s in args.seeds.split(","))
    status = 0
    for workload in ("sweep", "analyze", "sss"):
        first, again, other = (traced(workload, s, args.seconds)
                               for s in (a, a, b))
        print(f"{workload}: count, seed {a} (twice), seed {b}")
        for name in first:
            same = first[name] == again[name]
            status |= not same
            mark = "" if first[name] == other[name] else "  <- seed-dependent"
            print(f"  {name:<34s} {first[name]:>14} {again[name]:>14} "
                  f"{other[name]:>14}{mark}{'' if same else '  MISMATCH'}")
    print("counts repeat exactly" if status == 0
          else "counts differ between runs at the same seed")
    return status


if __name__ == "__main__":
    sys.exit(main())
