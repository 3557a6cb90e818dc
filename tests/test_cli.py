"""End-to-end tests of the command line, run in process."""

import json

import pytest

from mincodes.cli import main


def run_cli(capsys, *args):
    status = main(list(args))
    out, err = capsys.readouterr()
    return status, out, err


@pytest.fixture
def first33(tmp_path, capsys):
    path = tmp_path / "a.txt"
    status, _, _ = run_cli(capsys, "construct", "--family", "first",
                           "--t", "3", "--q", "3", "--out", str(path))
    assert status == 0
    return path


@pytest.fixture
def first22(tmp_path, capsys):
    path = tmp_path / "f22.txt"
    assert run_cli(capsys, "construct", "--family", "first", "--t", "2",
                   "--q", "2", "--out", str(path))[0] == 0
    return path


def test_construct_writes_expected_header(first33):
    lines = first33.read_text().splitlines()
    assert lines[0] == "# first(3,3)"
    assert lines[1] == "3 3 9"
    assert len(lines) == 5


def test_construct_to_stdout(capsys):
    status, out, _ = run_cli(capsys, "construct", "--family", "first",
                             "--t", "2", "--q", "2")
    assert status == 0
    assert out == "# first(2,2)\n2 2 3\n1 0 1\n0 1 1\n"


def test_construct_missing_and_extra_params(capsys):
    status, _, err = run_cli(capsys, "construct", "--family", "first",
                             "--t", "3")
    assert status == 1 and "missing --q" in err
    status, _, err = run_cli(capsys, "construct", "--family", "first",
                             "--t", "3", "--q", "3", "--k", "2")
    assert status == 1 and "unexpected --k" in err


def test_construct_rejects_large_q(capsys):
    status, _, err = run_cli(capsys, "construct", "--family", "first",
                             "--t", "2", "--q", "67")
    assert status == 1
    assert "caps q at 64" in err


def test_construct_all_families(tmp_path, capsys):
    cases = (
        ["--family", "second", "--t", "4", "--k", "3", "--q", "2"],
        ["--family", "weights", "--s", "2", "--t", "3", "--q", "2"],
        ["--family", "extended", "--t", "3", "--q", "3"],
        ["--family", "cf", "--n", "4", "--k", "2", "--q", "3",
         "--alphas", "1,2"],
        ["--family", "cg", "--r", "2", "--k", "2", "--q", "2"],
    )
    for extra in cases:
        out = tmp_path / "code.txt"
        status, _, _ = run_cli(capsys, "construct", *extra,
                               "--out", str(out))
        assert status == 0
        assert out.exists()


def test_analyze_json_matches_known_values(first33, capsys):
    status, out, _ = run_cli(capsys, "analyze", "--in", str(first33),
                             "--json")
    assert status == 0
    report = json.loads(out)
    assert report["code"] == {"n": 9, "k": 3, "q": 3, "d": 5}
    assert report["verdicts"]["minimality"]["is_minimal"] is True
    assert report["verdicts"]["ab"]["w_min"] == 5
    assert report["verdicts"]["ab"]["w_max"] == 7
    assert report["verdicts"]["ab"]["ratio"] == "5/7"
    assert report["weight_distribution"] == {"0": 1, "5": 6, "6": 8, "7": 12}


def test_analyze_human_output(first33, capsys):
    status, out, _ = run_cli(capsys, "analyze", "--in", str(first33))
    assert status == 0
    assert "minimal: yes" in out
    assert "5/7" in out


def test_analyze_rank_deficient_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 3\n1 0 1\n1 0 1\n")
    status, _, err = run_cli(capsys, "analyze", "--in", str(bad))
    assert status == 1
    assert "RankDeficient" in err


def test_analyze_non_minimal_exits_2(tmp_path, capsys):
    nm = tmp_path / "nm.txt"
    nm.write_text("2 2 3\n1 0 1\n0 0 1\n")
    status, out, _ = run_cli(capsys, "analyze", "--in", str(nm))
    assert status == 2
    assert "minimal: no" in out


def test_analyze_missing_file_exits_1(capsys):
    status, _, err = run_cli(capsys, "analyze", "--in", "/nonexistent.txt")
    assert status == 1
    assert "error" in err


def test_analyze_reports_are_byte_identical(first33, capsys):
    a = run_cli(capsys, "analyze", "--in", str(first33), "--json")[1]
    b = run_cli(capsys, "analyze", "--in", str(first33), "--json")[1]
    assert a == b


def test_distribution_csv_and_json(first33, tmp_path, capsys):
    status, out, _ = run_cli(capsys, "distribution", "--in", str(first33))
    assert status == 0
    assert out == "weight,count\n0,1\n5,6\n6,8\n7,12\n"
    csv = tmp_path / "d.csv"
    status, out, _ = run_cli(capsys, "distribution", "--in", str(first33),
                             "--out", str(csv))
    assert status == 0 and out == ""
    assert csv.read_text() == "weight,count\n0,1\n5,6\n6,8\n7,12\n"
    status, out, _ = run_cli(capsys, "distribution", "--in", str(first33),
                             "--json")
    assert json.loads(out)["weight_distribution"]["7"] == 12


def test_lift_roundtrip(first22, tmp_path, capsys):
    lifted = tmp_path / "l.txt"
    status, _, _ = run_cli(capsys, "lift", "--in", str(first22),
                           "--s", "1", "--out", str(lifted))
    assert status == 0
    assert lifted.read_text().splitlines()[1] == "2 3 6"
    status, out, _ = run_cli(capsys, "analyze", "--in", str(lifted))
    assert status == 0 and "minimal: yes" in out


def test_lift_refuses_unfit_base(tmp_path, capsys):
    nm = tmp_path / "nm.txt"
    nm.write_text("2 2 3\n1 0 1\n0 0 1\n")
    status, _, err = run_cli(capsys, "lift", "--in", str(nm), "--s", "1",
                             "--out", str(tmp_path / "x.txt"))
    assert status == 1
    assert "PreconditionFailed" in err


def test_tensor(first22, tmp_path, capsys):
    out = tmp_path / "t.txt"
    status, _, _ = run_cli(capsys, "tensor", "--in1", str(first22),
                           "--in2", str(first22), "--out", str(out))
    assert status == 0
    assert out.read_text().splitlines()[1] == "2 4 9"


def test_sss_deal_frozen_shares(first22, capsys):
    status, out, _ = run_cli(capsys, "sss", "deal", "--in", str(first22),
                             "--secret", "1", "--seed", "1", "--json")
    assert status == 0
    assert json.loads(out)["shares"] == {"2": 0, "3": 1}


def test_sss_deal_reconstruct_roundtrip(first33, capsys):
    status, out, _ = run_cli(capsys, "sss", "deal", "--in", str(first33),
                             "--secret", "2", "--seed", "5", "--json")
    assert status == 0
    shares = json.loads(out)["shares"]
    subset = "2,4"
    values = ",".join(str(shares[i]) for i in ("2", "4"))
    status, out, _ = run_cli(capsys, "sss", "reconstruct",
                             "--in", str(first33), "--subset", subset,
                             "--shares", values, "--json")
    assert status == 0
    assert json.loads(out)["secret"] == 2


def test_sss_deal_without_seed_reconstructs(first33, capsys):
    status, out, _ = run_cli(capsys, "sss", "deal", "--in", str(first33),
                             "--secret", "1", "--json")
    assert status == 0
    dealt = json.loads(out)
    assert dealt["parameters"]["seed"] is None
    for subset in (("2", "4"), ("3", "5", "8")):
        values = ",".join(str(dealt["shares"][i]) for i in subset)
        status, out, _ = run_cli(capsys, "sss", "reconstruct",
                                 "--in", str(first33),
                                 "--subset", ",".join(subset),
                                 "--shares", values, "--json")
        assert status == 0
        assert json.loads(out)["secret"] == 1
    status, out, _ = run_cli(capsys, "sss", "deal", "--in", str(first33),
                             "--secret", "1")
    assert status == 0
    assert out.splitlines()[0] == "secret 1, unseeded, [9,3]_3 scheme"


def test_sss_deal_seed_help_says_what_omitting_does(capsys):
    status, out, _ = run_cli(capsys, "sss", "deal", "--help")
    assert status == 0
    help_text = " ".join(out.split())
    assert "without it the shares come from the system's randomness" \
        in help_text


def test_sss_reconstruct_unauthorized_exits_1(first33, capsys):
    status, _, err = run_cli(capsys, "sss", "reconstruct",
                             "--in", str(first33), "--subset", "2",
                             "--shares", "0")
    assert status == 1
    assert "Unauthorized" in err


def test_sss_access_json_sorted_arrays(first22, capsys):
    status, out, _ = run_cli(capsys, "sss", "access", "--in", str(first22),
                             "--json")
    assert status == 0
    assert json.loads(out)["minimal_authorized_sets"] == [[2, 3]]
    status, out, _ = run_cli(capsys, "sss", "access", "--in", str(first22),
                             "--method", "search", "--json")
    assert json.loads(out)["minimal_authorized_sets"] == [[2, 3]]


def test_sss_secret_column_flag(first22, capsys):
    status, out, _ = run_cli(capsys, "sss", "access", "--in", str(first22),
                             "--secret-column", "3", "--json")
    assert status == 0
    assert json.loads(out)["minimal_authorized_sets"] == [[1, 2]]


def test_sweep_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"criteria": []}')
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 0
    assert out == "no criteria configured\n"


def test_sweep_passing_config(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": [[2, 2]]}, 9]}')
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 0
    assert "2/2 criteria passed" in out


def test_sweep_failing_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "fail.json"
    cfg.write_text('{"criteria": [{"id": 4, "instances": [[4, 3, 2]]}]}')
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 2
    assert "FAIL" in out and "paper_discrepancy" in out


def test_sweep_strict_stops_early(tmp_path, capsys):
    cfg = tmp_path / "fail.json"
    cfg.write_text(
        '{"criteria": [{"id": 4, "instances": [[4, 3, 2]]}, 9]}')
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--strict")
    assert status == 2
    assert "criterion  9" not in out
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert "criterion  9" in out


def test_sweep_out_dir(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": [[2, 2]]}]}')
    out_dir = tmp_path / "out"
    status, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--out-dir", str(out_dir), "--json")
    assert status == 0
    assert (out_dir / "dist_first_2_2.csv").read_text() == \
        "weight,count\n0,1\n2,3\n"
    report = json.loads((out_dir / "sweep_report.json").read_text())
    assert report["summary"]["criteria_total"] == 1


def test_sweep_out_dir_keeps_report_on_budget_overrun(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": [[5, 5]]}]}')
    out_dir = tmp_path / "out"
    status, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--budget", "1000", "--out-dir", str(out_dir))
    assert status == 2
    assert "FAIL" in out and "error" not in err
    assert [p.name for p in out_dir.iterdir()] == ["sweep_report.json"]
    report = json.loads((out_dir / "sweep_report.json").read_text())
    assert report["summary"]["criteria_passed"] == 0


def test_sweep_json_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": [[3, 3]]}]}')
    a = run_cli(capsys, "sweep", "--config", str(cfg), "--json")[1]
    b = run_cli(capsys, "sweep", "--config", str(cfg), "--json")[1]
    assert a == b


def test_sweep_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"criteria": [{"id": 99}]}')
    status, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 1
    assert "unknown criterion" in err


def test_sweep_malformed_instances_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": 5}]}')
    status, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 1
    assert "error: BadParams" in err


@pytest.mark.parametrize("number, instance", [
    (1, [2, 67]), (2, [2, 67]), (3, [2, 67]),
    (4, [4, 3, 67]), (5, [3, 2, 67]), (6, [3, 67]),
])
def test_sweep_config_keeps_the_q_cap(tmp_path, capsys, number, instance):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"criteria": [
        {"id": number, "instances": [instance[:-1] + [3], instance]}]}))
    status, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 1
    assert out == ""
    assert "caps q at 64" in err


def test_sweep_unknown_entry_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text('{"criteria": [{"id": 1, "instance": [[2, 2]]}]}')
    status, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert status == 1
    assert out == ""
    assert "error: BadParams" in err and "'instance'" in err


def test_sweep_budget_overrun_in_consistency_exits_2(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"criteria": [{"id": 1, "instances": [[5, 5]]}, 11]}')
    status, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--budget", "1000")
    assert status == 2
    assert "criterion 11" in out and "FAIL" in out


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "sss")[0] == 1


def test_budget_overrun_exits_1(first33, capsys):
    status, _, err = run_cli(capsys, "analyze", "--in", str(first33),
                             "--budget", "5")
    assert status == 1
    assert "BudgetExceeded" in err


def test_access_search_budget_names_coalitions(first33, capsys):
    status, out, err = run_cli(capsys, "sss", "access", "--in", str(first33),
                               "--method", "search", "--budget", "10")
    assert status == 1
    assert out == ""
    assert ("error: BudgetExceeded: enumeration needs 92 coalitions, "
            "budget is 10") in err
