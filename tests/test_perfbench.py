"""The benchmark's analyze goldens and trace hooks agree with the package.

``perfbench/golden/analyze_*.out`` hold the exit code and stdout of
``mincodes analyze --in F --json`` on the six seed-1 analyze inputs, which
fix the witness, ``pairs_checked`` and the verdicts, so canonical class
order is checked here and not only by the benchmark.  The goldens are only
read.  ``perfbench/tracing.py`` binds ``codes.coeff_blocks`` and
``analysis.projective_blocks`` by name; the smoke test installs its hooks,
enumerates one code and checks that the counters moved and that every
wrapper comes off again.
"""

import importlib.util
from pathlib import Path

import pytest

from mincodes import analysis, cli, codes
from mincodes.constructions import first
from mincodes.matrix import write_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (file stem, builder) as perfbench/workloads.py builds them for seed 1
ANALYZE_INPUTS = (
    ("first_5_5", lambda: first(5, 5)),
    ("first_6_4", lambda: first(6, 4)),
    ("first_4_16", lambda: first(4, 16)),
    ("first_3_64", lambda: first(3, 64)),
    ("random_90_13_2_s1", lambda: codes.random_code(90, 13, 2, seed=1)),
    ("random_24_9_3_s1", lambda: codes.random_code(24, 9, 3, seed=1)),
)


@pytest.mark.parametrize("stem, build", ANALYZE_INPUTS,
                         ids=[stem for stem, _ in ANALYZE_INPUTS])
def test_analyze_matches_golden(stem, build, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = Path(".perfbench_work") / f"{stem}.txt"
    path.parent.mkdir()
    write_matrix(build().gen, path, comment=stem)
    status = cli.main(["analyze", "--in", str(path), "--json"])
    got = f"exit {status}\n" + capsys.readouterr().out
    want = (PERFBENCH / "golden" / f"analyze_{stem}.out").read_text(
        encoding="utf-8")
    assert got == want


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_count_and_uninstall():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    code = first(3, 3)
    hooks.install()
    try:
        words = sum(len(u) for u, _ in codes.codeword_blocks(code))
        report = analysis.is_minimal_code(code)
    finally:
        hooks.uninstall()
    tracing.assert_pristine()
    assert words == code.size == tracer.counts["codes.words"]
    assert tracer.counts["analysis.classes"] == report.classes
