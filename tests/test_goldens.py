"""``mincodes sss access`` output matches its committed goldens.

``tests/golden/sss_access_*.out`` hold the exit code and stdout, text and
``--json``, of every run that ``tests/record_goldens.py`` lists: the dual
and search methods and ``auto`` on first(3,3), random [24,12]_2 (seed 1),
first(4,4) and a code whose access structure is empty.  Each is compared
byte for byte; the goldens are only read here.
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


def test_every_golden_is_recorded():
    assert sorted(p.name for p in record_goldens.GOLDEN.glob("sss_*")) == \
        sorted(name for name, *_ in RUNS)


@pytest.mark.parametrize("name, stem, build, argv", RUNS,
                         ids=[name for name, *_ in RUNS])
def test_sss_access_matches_golden(name, stem, build, argv, tmp_path):
    want = (record_goldens.GOLDEN / name).read_text(encoding="utf-8")
    assert record_goldens.run(tmp_path, stem, build, argv) == want
