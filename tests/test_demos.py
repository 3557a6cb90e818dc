"""Every script under ``demos/`` runs from a checkout and prints something.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
the README says to run them, and must exit 0 with non-empty stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    child = subprocess.run([sys.executable, str(demo)], capture_output=True,
                           text=True, env=env, cwd=ROOT, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
