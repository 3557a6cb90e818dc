"""CLI output matches its committed goldens.

``tests/golden/`` holds the exit code and stdout, text and ``--json``, of
every run that ``tests/record_goldens.py`` lists: ``sss access`` by each
method on first(3,3), random [24,12]_2 (seed 1), first(4,4) and a code
whose access structure is empty; ``distribution`` and a seeded
``sss deal``; ``analyze --json`` on a minimal and a non-minimal code;
``construct`` for every family; and every file that ``sweep --out-dir``
writes.  Each is compared byte for byte; the goldens are only read here.
``tests/test_demos.py`` compares the five demos' goldens.
"""

import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location(
    "record_goldens", HERE / "record_goldens.py")
record_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_goldens)

RUNS = list(record_goldens.outputs())
ACCESS_RUNS = [r for r in RUNS if r[0].startswith("sss_access_")]
OTHER_RUNS = [r for r in RUNS if not r[0].startswith("sss_access_")]


def test_every_golden_is_recorded():
    assert sorted(p.name for p in record_goldens.GOLDEN.glob("*.out")) == \
        sorted([name for name, *_ in RUNS]
               + [f"demo_{demo.stem}.out" for demo in record_goldens.DEMOS])


@pytest.mark.parametrize("name, stem, argv", ACCESS_RUNS,
                         ids=[name for name, *_ in ACCESS_RUNS])
def test_sss_access_matches_golden(name, stem, argv, tmp_path):
    want = (record_goldens.GOLDEN / name).read_text(encoding="utf-8")
    assert record_goldens.run(tmp_path, stem, argv) == want


@pytest.mark.parametrize("name, stem, argv", OTHER_RUNS,
                         ids=[name for name, *_ in OTHER_RUNS])
def test_cli_matches_golden(name, stem, argv, tmp_path):
    want = (record_goldens.GOLDEN / name).read_text(encoding="utf-8")
    assert record_goldens.run(tmp_path, stem, argv) == want


def test_sweep_out_dir_matches_golden(tmp_path):
    want = {p.name: p.read_bytes()
            for p in sorted(record_goldens.SWEEP_DIR.iterdir())}
    assert record_goldens.run_sweep_out_dir(tmp_path) == want
