"""The README's Python examples run as written and print what they say.

Every fenced ``python`` block runs in one namespace, in order, so a later
block may use names from an earlier one.  Each ``print(...)`` line must
carry a comment that starts with the line it prints.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


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
