"""The README's examples run as written and print what they say.

Every fenced ``python`` block runs in one namespace, in order, so a later
block may use names from an earlier one.  Each ``print(...)`` line must
carry a comment that starts with the line it prints.  Every line of a
fenced ``sh`` block that starts with ``mincodes`` runs through
``cli.main``, in order, in one directory, and the sweep's expected output
is the table the default sweep prints.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from mincodes import cli
from mincodes.sweep import run_sweep

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT,
                                          re.M | re.S)
             for line in block.splitlines() if line.startswith("mincodes ")]
SWEEP_TABLE = re.search(
    r"Expected output of the full sweep:\n\n```\n(.*?)^```", TEXT,
    re.M | re.S).group(1)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run_and_print_their_comments():
    namespace = {}
    for block in BLOCKS:
        want = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        got = out.getvalue().splitlines()
        assert len(got) == len(want)
        for printed, comment in zip(got, want):
            assert comment.startswith(printed), (printed, comment)


def test_readme_cli_lines_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert len(CLI_LINES) >= 10
    for line in CLI_LINES:
        argv = shlex.split(line, comments=True)[1:]
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            status = cli.main(argv)
        # the default sweep exits 2: four criteria fail by design
        assert status == (2 if argv[0] == "sweep" else 0), line


def test_readme_sweep_table_is_the_default_sweep():
    assert SWEEP_TABLE == run_sweep().table()
