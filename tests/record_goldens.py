"""Rewrite the ``sss access`` goldens that tier 1 compares byte for byte.

    python3 tests/record_goldens.py

Each case writes one generator file to ``sss_inputs/<stem>.txt`` under a
scratch directory, runs ``mincodes sss access`` on it from there (the JSON
output names the relative path), and records the exit code and stdout in
``tests/golden/sss_access_<stem>_<method>[_json].out``.  Run it only on a
commit whose outputs are known good, and record any deliberate output
change in CHANGES.md.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE.parent / "src"))

from mincodes import cli  # noqa: E402
from mincodes.codes import LinearCode, random_code  # noqa: E402
from mincodes.constructions import first  # noqa: E402
from mincodes.field import build_field  # noqa: E402
from mincodes.matrix import GFMatrix, write_matrix  # noqa: E402

# (file stem, builder, methods); the last code's secret column is outside
# the span of the others, so its access structure is empty
CASES = (
    ("first_3_3", lambda: first(3, 3), ("auto", "dual", "search")),
    ("random_24_12_2_s1", lambda: random_code(24, 12, 2, seed=1),
     ("auto", "dual")),
    ("first_4_4", lambda: first(4, 4), ("auto", "search")),
    ("independent_secret",
     lambda: LinearCode(GFMatrix(build_field(2), [[1, 0, 0], [0, 1, 1]])),
     ("auto", "dual", "search")),
)


def outputs():
    """(golden file name, stem, builder, argv) for every recorded run."""
    for stem, build, methods in CASES:
        for method in methods:
            for json in (False, True):
                name = (f"sss_access_{stem}_{method}"
                        f"{'_json' if json else ''}.out")
                argv = ["sss", "access", "--in", f"sss_inputs/{stem}.txt",
                        "--method", method] + (["--json"] if json else [])
                yield name, stem, build, argv


def run(workdir: Path, stem: str, build, argv) -> str:
    """'exit N' and the stdout of the CLI run from workdir."""
    path = workdir / "sss_inputs" / f"{stem}.txt"
    path.parent.mkdir(exist_ok=True)
    write_matrix(build().gen, path, comment=stem)
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


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, stem, build, argv in outputs():
            (GOLDEN / name).write_text(run(Path(tmp), stem, build, argv),
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
