"""Rewrite the CLI and demo goldens that tier 1 compares byte for byte.

    python3 tests/record_goldens.py

Every CLI run that :func:`outputs` lists is recorded as
``tests/golden/<name>``: the exit code and stdout of ``mincodes`` run in
process from a scratch directory, into which the generator file it reads
was first written at the relative path its ``--in`` names (JSON output
repeats that path).  Each demo's exit code and stdout, run as the README
says, go to
``tests/golden/demo_<stem>.out``, and the files that ``mincodes sweep
--out-dir`` writes go to ``tests/golden/sweep_out_dir/``.  Run it only on a
commit whose outputs are known good, and record any deliberate output
change in CHANGES.md.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
SWEEP_DIR = GOLDEN / "sweep_out_dir"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
sys.path.insert(0, str(ROOT / "src"))

from mincodes import cli  # noqa: E402
from mincodes.codes import LinearCode, random_code  # noqa: E402
from mincodes.constructions import extended, first, lift, second  # noqa: E402
from mincodes.field import build_field  # noqa: E402
from mincodes.matrix import GFMatrix, write_matrix  # noqa: E402

# file stem -> builder of every generator file a run reads; the secret
# column of "independent_secret" is outside the span of the others, so its
# access structure is empty
INPUTS = {
    "first_3_3": lambda: first(3, 3),
    "first_4_4": lambda: first(4, 4),
    "random_24_12_2_s1": lambda: random_code(24, 12, 2, seed=1),
    "independent_secret":
        lambda: LinearCode(GFMatrix(build_field(2), [[1, 0, 0], [0, 1, 1]])),
    "second_4_3_2": lambda: second(4, 3, 2),
    "extended_3_4": lambda: extended(3, 4),
    "lift_extended_3_4_2": lambda: lift(extended(3, 4), 2),
}

# (sss access input stem, methods)
ACCESS = (
    ("first_3_3", ("auto", "dual", "search")),
    ("random_24_12_2_s1", ("auto", "dual")),
    ("first_4_4", ("auto", "search")),
    ("independent_secret", ("auto", "dual", "search")),
)

# (golden name, family flags) of each construct run: a field of order
# 4, 8 or 9 wherever the family takes one (cf needs odd q)
CONSTRUCT = (
    ("first_3_4", "--family first --t 3 --q 4"),
    ("second_4_3_4", "--family second --t 4 --k 3 --q 4"),
    ("weights_2_4_4", "--family weights --s 2 --t 4 --q 4"),
    ("extended_3_8", "--family extended --t 3 --q 8"),
    ("cf_4_2_9", "--family cf --n 4 --k 2 --q 9 --alphas 1,2"),
    ("cg_2_2_4", "--family cg --r 2 --k 2 --q 4"),
)


def _with_json(name: str, stem: str | None, argv: list[str]):
    yield f"{name}.out", stem, argv
    yield f"{name}_json.out", stem, argv + ["--json"]


def outputs():
    """(golden file name, input stem or None, argv) for every CLI run."""
    for stem, methods in ACCESS:
        for method in methods:
            yield from _with_json(
                f"sss_access_{stem}_{method}", stem,
                ["sss", "access", "--in", f"sss_inputs/{stem}.txt",
                 "--method", method])
    for stem in ("first_3_3", "random_24_12_2_s1"):
        yield from _with_json(f"distribution_{stem}", stem,
                              ["distribution", "--in", f"inputs/{stem}.txt"])
    for stem, secret in (("first_3_3", 2), ("first_4_4", 3)):
        yield from _with_json(
            f"sss_deal_{stem}", stem,
            ["sss", "deal", "--in", f"inputs/{stem}.txt",
             "--secret", str(secret), "--seed", "11"])
    for stem in ("second_4_3_2", "extended_3_4"):
        yield (f"analyze_{stem}_json.out", stem,
               ["analyze", "--in", f"inputs/{stem}.txt", "--json"])
    yield from _with_json("analyze_lift_extended_3_4_2", "lift_extended_3_4_2",
                          ["analyze", "--in", "inputs/lift_extended_3_4_2.txt"])
    for name, flags in CONSTRUCT:
        yield f"construct_{name}.out", None, ["construct"] + flags.split()


def _main_in(workdir: Path, argv: list[str]) -> str:
    """'exit N' and the stdout of ``mincodes argv`` run from workdir."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {status}\n{out.getvalue()}"


def run(workdir: Path, stem: str | None, argv: list[str]) -> str:
    """Write the run's input file (if any) where its ``--in`` names it,
    under workdir, and run it there."""
    if stem is not None:
        path = workdir / argv[argv.index("--in") + 1]
        path.parent.mkdir(exist_ok=True)
        write_matrix(INPUTS[stem]().gen, path, comment=stem)
    return _main_in(workdir, argv)


def run_demo(demo: Path) -> str:
    """'exit N' and the stdout of one demo run from the repo root."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    child = subprocess.run([sys.executable, str(demo)], capture_output=True,
                           text=True, env=env, cwd=ROOT, timeout=300)
    return f"exit {child.returncode}\n{child.stdout}"


def run_sweep_out_dir(workdir: Path) -> dict[str, bytes]:
    """File name -> bytes of everything ``sweep --out-dir`` writes."""
    _main_in(workdir, ["sweep", "--out-dir", "sweep_out"])
    return {p.name: p.read_bytes()
            for p in sorted((workdir / "sweep_out").iterdir())}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, stem, argv in outputs():
            (GOLDEN / name).write_text(run(Path(tmp), stem, argv),
                                       encoding="utf-8")
        SWEEP_DIR.mkdir(exist_ok=True)
        for old in SWEEP_DIR.iterdir():
            old.unlink()
        for name, data in run_sweep_out_dir(Path(tmp)).items():
            (SWEEP_DIR / name).write_bytes(data)
    for demo in DEMOS:
        (GOLDEN / f"demo_{demo.stem}.out").write_text(run_demo(demo),
                                                      encoding="utf-8")


if __name__ == "__main__":
    main()
