"""Every script under ``demos/`` runs from a checkout and prints its golden.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
the README says to run them, and must exit 0 with the stdout recorded in
``tests/golden/demo_<stem>.out`` by ``tests/record_goldens.py``.
"""

import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location(
    "record_goldens", HERE / "record_goldens.py")
record_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_goldens)

DEMOS = record_goldens.DEMOS


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    want = (record_goldens.GOLDEN / f"demo_{demo.stem}.out").read_text(
        encoding="utf-8")
    got = record_goldens.run_demo(demo)
    assert got.startswith("exit 0\n") and got != "exit 0\n"
    assert got == want
