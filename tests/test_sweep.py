"""Tests for the sweep engine on small, fast configurations."""

from pathlib import Path
from unittest import mock

import pytest

from mincodes import analysis
from mincodes.codes import weight_distribution
from mincodes.errors import BadParams
from mincodes.sweep import (CodeRegistry, load_config, run_criterion,
                            run_sweep, validate_config,
                            write_distribution_csvs)


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
    reg = CodeRegistry()
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


def test_criterion_10_builds_and_walks_each_dual_once():
    # the registry keeps the scheme's own dual, so the dual scan and every
    # later whole-code read of that dual share one walk
    walked = []
    real = analysis.projective_blocks

    def spy(code, *args, **kwargs):
        walked.append(code)
        return real(code, *args, **kwargs)

    registry = CodeRegistry()
    with mock.patch.object(analysis, "projective_blocks", spy):
        assert run_criterion(10, registry=registry).passed
        duals = [code for label, code in registry.items()
                 if label.startswith("dual(")]
        for code in duals:
            weight_distribution(code)
    assert len(duals) == 3
    assert [id(code) for code in walked] == [id(code) for code in duals]
