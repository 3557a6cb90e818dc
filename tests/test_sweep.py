"""Tests for the sweep engine on small, fast configurations."""

import contextlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mincodes import analysis, sweep
from mincodes.codes import (DEFAULT_BUDGET, LinearCode, codeword_blocks,
                            weight_distribution)
from mincodes.constructions import extended, first
from mincodes.errors import BadParams
from mincodes.matrix import GFMatrix
from mincodes.sweep import (load_config, run_criterion, run_sweep,
                            validate_config, write_distribution_csvs)


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def by_check(result, name):
    return [c for c in result.checks if c.check == name]


@pytest.fixture(scope="module")
def default_report():
    return run_sweep()


def test_criterion_1_small_instances():
    res = run_criterion(1, instances=[(2, 2), (3, 3)])
    assert res.passed
    assert len(res.checks) == 6
    assert {c.check for c in res.checks} == {
        "params", "stratified-weights", "step-identity"}


def test_step_identity_fails_when_per_s_weights_are_not_single_valued():
    # extended(3,3) weighs w_s or w_s + 1 by its first coefficient
    checks = list(sweep._first_params(extended(3, 3), DEFAULT_BUDGET, 3, 3))
    assert [c[:2] for c in checks] == [
        ("params", False), ("stratified-weights", False),
        ("step-identity", False)]
    assert checks[-1][2] == "per-s weights are not single-valued"


def test_criterion_2_counter_instance_flagged():
    res = run_criterion(2, instances=[(3, 3)])
    assert res.passed
    counter, = by_check(res, "ratio-exceeds-threshold")
    assert counter.passed and counter.paper_discrepancy
    assert "5/7" in counter.detail


def test_criterion_2_strict_instance():
    res = run_criterion(2, instances=[(4, 3)])
    assert res.passed
    strict, = by_check(res, "ratio-below-threshold")
    assert strict.passed and not strict.paper_discrepancy
    assert "7/12" in strict.detail


@pytest.mark.parametrize("number", [1, 2, 3])
def test_first_family_criteria_pass_below_q_at_least_t_minus_2(number):
    # at q < t-2 the largest stratum is no longer w_(t-1); criterion 2 must
    # take its expected ratio from the same strata that criterion 1 checks
    res = run_criterion(number, instances=[(5, 2), (6, 2), (6, 3), (7, 2),
                                           (7, 3)])
    assert res.passed, [c.detail for c in res.checks if not c.passed]


def test_criterion_3_includes_count_note():
    res = run_criterion(3, instances=[(3, 3)])
    assert res.passed
    note, = by_check(res, "count-formula-note")
    assert note.passed and note.paper_discrepancy


def test_criterion_4_minimal_instance_passes():
    res = run_criterion(4, instances=[(4, 3, 3)])
    assert res.passed


def test_criterion_4_binary_instance_fails_flagged():
    res = run_criterion(4, instances=[(4, 3, 2)])
    assert not res.passed
    minimal, = by_check(res, "is-minimal")
    assert not minimal.passed and minimal.paper_discrepancy
    assert by_check(res, "params")[0].passed
    assert by_check(res, "distance-bound")[0].passed


@pytest.mark.parametrize("params", [(6, 3, 2), (8, 5, 2), (9, 5, 2)])
def test_non_default_second_failures_are_unflagged(params):
    # outside the record of default failures, a failure reads as a
    # regression, even where the same published argument fails
    minimal, = by_check(run_criterion(4, instances=[params]), "is-minimal")
    assert not minimal.passed and not minimal.paper_discrepancy


@pytest.mark.parametrize("number,instances,label", [
    (4, [(4, 3, 3)], "second(4,3,3)"),
    (5, [(3, 2, 2)], "weight_s(2,3,2)"),
    (7, None, "lift(gen(1,0),1)"),
])
def test_a_minimal_default_code_read_as_not_minimal_is_unflagged(
        number, instances, label):
    real = sweep.is_minimal_code

    def not_minimal(code, budget):
        word = analysis.minimal_codewords(code, budget)[0]
        return replace(real(code, budget), is_minimal=False,
                       witness=(word, word))

    with mock.patch.object(sweep, "is_minimal_code", not_minimal):
        res = run_criterion(number, instances=instances)
    minimal, = [c for c in by_check(res, "is-minimal") if c.instance == label]
    assert not minimal.passed and not minimal.paper_discrepancy


def test_every_recorded_discrepancy_fails_flagged(default_report):
    flagged = {(c.instance, c.check) for r in default_report.results
               for c in r.checks if not c.passed and c.paper_discrepancy}
    record = {(label, check) for check, labels
              in sweep._DISCREPANCIES.items() for label in labels}
    assert len(record) == 17 and record <= flagged


def test_only_the_record_and_a_proved_alternative_are_flagged(
        default_report):
    # a failing check flags itself only when it proves the published
    # claim's alternative: case-weights, at every extended instance
    flagged = {(c.instance, c.check) for r in default_report.results
               for c in r.checks if not c.passed and c.paper_discrepancy}
    record = {(label, check) for check, labels
              in sweep._DISCREPANCIES.items() for label in labels}
    proved = {(f"extended({t},{q})", "case-weights")
              for t, q in sweep.EXTENDED_INSTANCES}
    assert flagged == record | proved and len(flagged) == 20


def test_a_remark_failure_outside_the_record_is_unflagged():
    res = run_criterion(5, instances=[[6, 2, 2]])
    remark, = by_check(res, "minimum-at-r-equals-s")
    assert remark.instance == "weight_s(2,6,2)"
    assert not remark.passed and not remark.paper_discrepancy


def test_criterion_5_remark_fails_flagged():
    res = run_criterion(5, instances=[(3, 2, 2)])
    assert by_check(res, "stratified-weights")[0].passed
    assert by_check(res, "is-minimal")[0].passed
    remark, = by_check(res, "minimum-at-r-equals-s")
    assert not remark.passed and remark.paper_discrepancy


def test_criterion_6_case_weights_fail_flagged():
    res = run_criterion(6, instances=[(3, 3)])
    case, = by_check(res, "case-weights")
    assert not case.passed and case.paper_discrepancy
    assert "q-2" in case.detail
    for name in ("params", "is-minimal", "full-value"):
        assert by_check(res, name)[0].passed


def first_split_failure(code, ws):
    """The oracle of case-weights: every word in canonical order, one at a
    time, against w_s + (q-1)*[u_0 != 0]; also whether every word weighs
    w_s + (q-2)*[u_0 != 0] instead."""
    q, bad, offset = code.q, None, True
    for block, values in codeword_blocks(code):
        for u, word in zip(block, values):
            s, got = np.count_nonzero(u), np.count_nonzero(word)
            if not s:
                continue
            want = ws(s) + (q - 1) * bool(u[0])
            if bad is None and got != want:
                bad = tuple(int(x) for x in u), int(got), int(want)
            offset &= bool(got == want - bool(u[0]))
    return None if bad is None else bad + (offset,)


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("t,q", [(2, 2), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_case_weights_match_a_word_by_word_scan(t, q, shift):
    code = extended(t, q)
    real = sweep.predicted_ws
    with mock.patch.object(sweep, "predicted_ws",
                           lambda s, t, q: real(s, t, q) + shift):
        got = sweep._extended_case_counterexample(code, t, q, DEFAULT_BUDGET)
    assert got == first_split_failure(code, lambda s: real(s, t, q) + shift)


def test_case_weights_unflagged_when_neither_split_holds():
    real = sweep.predicted_ws
    with mock.patch.object(sweep, "predicted_ws",
                           lambda s, t, q: real(s, t, q) + 1):
        res = run_criterion(6, instances=[(3, 3)])
    case, = by_check(res, "case-weights")
    assert not case.passed and not case.paper_discrepancy
    assert case.detail == ("coeffs (0, 0, 1) have weight 5, the split "
                           "formula predicts 6")


def test_case_weights_pass_when_the_split_holds():
    # first(3,3) weighs w_s at coefficient weight s, and two columns 1, 2
    # in row 1 add exactly q-1 = 2 wherever u_0 != 0
    code = first(3, 3)
    extra = np.zeros((3, 2), dtype=code.gen.data.dtype)
    extra[0] = [1, 2]
    code = LinearCode(GFMatrix(code.field, np.hstack([code.gen.data, extra])))
    assert sweep._extended_case_counterexample(
        code, 3, 3, DEFAULT_BUDGET) is None
    assert first_split_failure(code, lambda s: sweep.predicted_ws(s, 3, 3)) \
        is None
    case = list(sweep._extended(code, DEFAULT_BUDGET, 3, 3))[-1]
    assert case == ("case-weights", True, "weights split as w_s and w_s + "
                    "(q-1) by the first coefficient", False)


def test_criterion_9_passes():
    res = run_criterion(9)
    assert res.passed
    assert len(res.checks) == 6


def test_criterion_10_passes():
    res = run_criterion(10)
    assert res.passed
    names = {c.check for c in res.checks}
    assert names == {"structure-agreement", "round-trip", "perfectness"}


def test_criterion_11_audits_shared_registry():
    reg = {}
    run_criterion(2, instances=[(2, 2)], registry=reg)
    res = run_criterion(11, registry=reg)
    assert res.passed
    labels = {c.instance for c in res.checks}
    assert labels == {"first(2,2)", "(registry)"}


def test_budget_overrun_is_a_failed_check():
    res = run_criterion(1, instances=[(5, 5)], budget=100)
    assert not res.passed
    budget, = by_check(res, "budget")
    assert "3125" in budget.detail


def test_budget_overrun_ends_only_its_instance():
    res = run_criterion(4, instances=[(5, 4, 2), (4, 3, 2)], budget=20)
    got = [(c.instance, c.check, c.passed) for c in res.checks]
    assert got == [
        ("second(5,4,2)", "params", True),
        ("second(5,4,2)", "budget", False),
        ("second(4,3,2)", "params", True),
        ("second(4,3,2)", "distance-bound", True),
        ("second(4,3,2)", "is-minimal", False),
    ]


def test_each_function_code_records_its_own_budget_overrun():
    # 100 points build both cf codes, whose 3^5 words are past the budget;
    # the repeated-alpha variant is an instance of its own, not skipped
    res = run_criterion(8, budget=100)
    got = [(c.instance, c.check, c.passed) for c in res.checks]
    assert got[-3:] == [
        ("cf(4,2,3;1,2)", "params", True),
        ("cf(4,2,3;1,2)", "budget", False),
        ("cf(4,2,3;1,1)", "budget", False),
    ]
    assert "243 words" in res.checks[-1].detail


def test_criterion_11_alone_rebuilds_the_default_corpus(default_report):
    alone = run_criterion(11)
    assert alone == default_report.results[10]
    coverage, = by_check(alone, "coverage")
    assert coverage.detail == ("38 codes registered; 14 met the ratio "
                               "bound, 24 were inconclusive")


@pytest.mark.parametrize("number", range(1, 11))
def test_first_checks_register_what_a_full_run_registers(number):
    # every body obtains its codes before its first check, which is what
    # lets a lone criterion 11 fill its corpus without the other checks
    _, defaults, runner = sweep._CRITERIA[number]
    full, prefix = {}, {}
    sweep._collect(runner(defaults, DEFAULT_BUDGET, full))
    for _, body in runner(defaults, DEFAULT_BUDGET, prefix):
        next(body, None)
    assert list(prefix) == list(full)
    assert all(prefix[label].gen == full[label].gen for label in full)


def test_bodies_run_after_their_runner_check_their_own_instance():
    # each body is bound to its instance: draining every runner first and
    # running the bodies afterwards gives _collect's checks and codes
    eager, late = {}, {}
    for number in range(1, 11):
        _, defaults, runner = sweep._CRITERIA[number]
        bodies = list(runner(defaults, DEFAULT_BUDGET, late))
        got = sweep._collect(bodies)
        assert got == sweep._collect(runner(defaults, DEFAULT_BUDGET, eager))
    assert late.keys() == eager.keys()


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 100])
def test_coverage_note_counts_the_registry_before_any_body(default_report,
                                                           budget):
    registry = default_report.registry
    _, _, runner = sweep._CRITERIA[11]
    label, note = list(runner(None, budget, registry))[-1]
    assert label == "(registry)"
    (check, passed, detail), = note  # before any body of criterion 11
    collected = sweep._collect(runner(None, budget, registry))
    assert (check, passed, detail) == (
        "coverage", True, collected[-1].detail)
    vacuous = {DEFAULT_BUDGET: 24, 100: 14}[budget]
    assert detail == ("38 codes registered; 14 met the ratio bound, "
                      f"{vacuous} were inconclusive")


def test_criterion_11_alone_runs_no_check_past_a_first_one():
    names = ("perfectness_batch", "reconstruct_batch", "deal_batch",
             "_extended_case_counterexample")
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(
            sweep, name, wraps=getattr(sweep, name))) for name in names]
        assert run_criterion(11).passed
    assert [spy.call_count for spy in spies] == [0] * len(names)


def test_sweep_budget_is_checked_as_an_integer():
    with pytest.raises(BadParams, match="^budget must be an integer"):
        run_sweep({"criteria": []}, budget="x")
    with pytest.raises(BadParams, match="^budget must be an integer"):
        run_criterion(1, budget=1e7)
    # the criterion id is checked first
    with pytest.raises(BadParams, match="^unknown criterion 12"):
        run_criterion(12, budget="x")


def test_numpy_integer_budget_gives_a_json_report():
    report = run_sweep({"criteria": [1]}, budget=np.int64(10**7))
    assert type(report.budget) is int
    assert json.loads(report.to_json())["budget"] == 10**7


def test_default_sweep_matches_goldens(default_report):
    golden_json = (GOLDEN / "sweep_report.json").read_text(encoding="utf-8")
    golden_table = (GOLDEN / "sweep_table.txt").read_text(encoding="utf-8")
    assert default_report.to_json() == golden_json
    assert default_report.table() == golden_table


def test_unknown_criterion():
    with pytest.raises(BadParams):
        run_criterion(12)


def test_instances_rejected_where_fixed():
    with pytest.raises(BadParams):
        run_criterion(7, instances=[(3, 3)])


def test_wrong_instance_arity():
    with pytest.raises(BadParams):
        run_criterion(4, instances=[(4, 3)])


def test_non_list_instances_rejected():
    with pytest.raises(BadParams):
        validate_config({"criteria": [{"id": 1, "instances": 5}]})


def test_non_integer_version_rejected():
    with pytest.raises(BadParams):
        validate_config({"version": "x", "criteria": []})


def test_null_version_rejected():
    with pytest.raises(BadParams):
        validate_config({"version": None, "criteria": []})


def test_unsupported_version_rejected():
    for version in (0, 2, 7, True):
        with pytest.raises(BadParams, match="version must be 1"):
            validate_config({"version": version, "criteria": [1]})
    assert validate_config({"version": 1, "criteria": []})["version"] == 1


def test_boolean_criterion_id_rejected():
    with pytest.raises(BadParams):
        validate_config({"criteria": [{"id": True}]})
    with pytest.raises(BadParams):
        run_criterion(True)


def test_boolean_instance_value_rejected():
    with pytest.raises(BadParams):
        run_criterion(1, instances=[(2, True)])


def test_unknown_entry_key_rejected():
    with pytest.raises(BadParams, match="'instance'"):
        validate_config({"criteria": [{"id": 1, "instance": [[2, 2]]}]})


def test_distribution_csvs_skip_codes_over_budget(tmp_path):
    cfg = {"criteria": [{"id": 1, "instances": [[2, 2], [5, 5]]}]}
    report = run_sweep(cfg, budget=1000)
    paths = write_distribution_csvs(report, tmp_path)
    assert [p.name for p in paths] == ["dist_first_2_2.csv"]


def test_consistency_budget_overrun_is_a_failed_check():
    report = run_sweep({"criteria": [1, 11]}, budget=1000)
    consistency = report.results[1]
    overruns = by_check(consistency, "budget")
    assert overruns and not consistency.passed
    assert {c.instance for c in overruns} == {"first(5,4)", "first(5,5)"}


def test_default_config_lists_all_criteria():
    cfg = load_config()
    assert cfg == validate_config({"criteria": list(range(1, 12))})
    assert [entry["id"] for entry in cfg["criteria"]] == list(range(1, 12))
    # no instances listed: each criterion runs on its default instances
    assert all(entry["instances"] is None for entry in cfg["criteria"])


def test_config_validation():
    with pytest.raises(BadParams):
        validate_config({"criteria": [{"id": 99}]})
    with pytest.raises(BadParams):
        validate_config({"criteria": [{"id": 7, "instances": [[3, 3]]}]})
    with pytest.raises(BadParams):
        validate_config({"criteria": [{"id": 4, "instances": [[4, 3]]}]})
    with pytest.raises(BadParams):
        validate_config([1, 2, 3])
    ok = validate_config({"criteria": [9, {"id": 1, "instances": [[2, 2]]}]})
    assert ok["criteria"][0] == {"id": 9, "instances": None}
    assert ok["criteria"][1]["instances"] == ((2, 2),)


def test_empty_config_gives_empty_passing_report():
    report = run_sweep({"criteria": []})
    assert report.passed
    assert report.results == []
    assert report.table() == "no criteria configured\n"
    assert report.as_dict()["summary"]["criteria_total"] == 0


def test_sweep_reports_are_byte_identical():
    cfg = {"criteria": [{"id": 1, "instances": [[2, 2], [3, 3]]}, 9]}
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a.to_json() == b.to_json()
    assert a.table() == b.table()


def test_sweep_table_shape():
    report = run_sweep({"criteria": [{"id": 1, "instances": [[2, 2]]}]})
    table = report.table()
    assert "criterion  1" in table and "PASS" in table
    assert "1/1 criteria passed" in table


def test_failed_criterion_marks_report():
    report = run_sweep({"criteria": [{"id": 4, "instances": [[4, 3, 2]]}]})
    assert not report.passed
    assert "FAIL" in report.table()
    failed = [c for r in report.results for c in r.checks if not c.passed]
    assert len(failed) == 1
    assert report.as_dict()["summary"]["flagged"] >= 1


def test_distribution_csvs(tmp_path):
    report = run_sweep({"criteria": [{"id": 1, "instances": [[2, 2]]}]})
    paths = write_distribution_csvs(report, tmp_path)
    assert [p.name for p in paths] == ["dist_first_2_2.csv"]
    assert paths[0].read_text() == "weight,count\n0,1\n2,3\n"


def test_json_shape():
    report = run_sweep({"criteria": [{"id": 9}]})
    d = report.as_dict()
    assert d["version"] == 1
    assert d["criteria"][0]["id"] == 9
    check = d["criteria"][0]["checks"][0]
    assert set(check) == {"instance", "check", "passed",
                          "paper_discrepancy", "detail"}


def test_default_sweep_walks_each_registered_code_once():
    # column_ranks is bound once per fresh walk of a code's classes
    calls = []
    real = analysis.column_ranks

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(analysis, "column_ranks", spy):
        report = run_sweep()
    assert len(calls) == len(report.registry) == 38


def test_default_sweep_passes_over_extended_codes_once_more():
    # the walks take one projective_blocks pass per registered code, and
    # criterion 6's case-weights one more per extended code it checks
    passes = {analysis: [], sweep: []}

    def spy(module):
        real = module.projective_blocks

        def pass_over(code, *args, **kwargs):
            passes[module].append(code)
            return real(code, *args, **kwargs)
        return mock.patch.object(module, "projective_blocks", pass_over)

    with spy(analysis), spy(sweep):
        report = run_sweep()
    label = {id(code): name for name, code in report.registry.items()}
    assert len(passes[analysis]) == len(report.registry) == 38
    assert {id(code) for code in passes[analysis]} == set(label)
    assert [label[id(code)] for code in passes[sweep]] == [
        "extended(3,3)", "extended(3,4)", "extended(4,3)"]


def test_criterion_10_builds_and_walks_each_dual_once():
    # the registry keeps the scheme's own dual, so the dual scan and every
    # later whole-code read of that dual share one walk
    walked = []
    real = analysis.projective_blocks

    def spy(code, *args, **kwargs):
        walked.append(code)
        return real(code, *args, **kwargs)

    registry = {}
    with mock.patch.object(analysis, "projective_blocks", spy):
        assert run_criterion(10, registry=registry).passed
        duals = [code for label, code in registry.items()
                 if label.startswith("dual(")]
        for code in duals:
            weight_distribution(code)
    assert len(duals) == 3
    assert [id(code) for code in walked] == [id(code) for code in duals]
