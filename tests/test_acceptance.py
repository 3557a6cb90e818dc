"""The eleven scripted acceptance criteria, one test per criterion.

Each test prints its one-line verdict (through the capture, so the line
is visible in any pytest run) and then asserts that every check of the
criterion passed.

Four criteria contain checks whose expected values come from published
closed-form claims that exhaustive enumeration contradicts. Those
checks carry paper_discrepancy=True together with a detail message
saying what enumeration found instead, and their tests fail here
honestly rather than encode weakened expectations. A failing check
WITHOUT that flag is a genuine regression and is reported separately.
"""

import sys

import pytest

from mincodes.sweep import run_criterion

# shared across the module so criterion 11 audits the codes criteria
# 1 to 10 actually built
registry = {}


def run_and_report(number: int, capsys) -> None:
    result = run_criterion(number, registry=registry)
    with capsys.disabled():
        sys.stdout.write("\n" + result.line() + "\n")
    failing = [c for c in result.checks if not c.passed]
    unflagged = [c for c in failing if not c.paper_discrepancy]
    if unflagged:
        pytest.fail(
            "unflagged check failures (genuine regressions):\n" + "\n".join(
                f"  {c.instance} [{c.check}]: {c.detail}"
                for c in unflagged))
    if failing:
        pytest.fail(
            f"{len(failing)} checks failed; each is a recorded discrepancy "
            "between exhaustive enumeration and a published claim:\n"
            + "\n".join(f"  {c.instance} [{c.check}]: {c.detail}"
                        for c in failing))


def test_criterion_01_first_family_parameters(capsys):
    run_and_report(1, capsys)


def test_criterion_02_first_family_minimality(capsys):
    run_and_report(2, capsys)


def test_criterion_03_first_family_weight_counts(capsys):
    run_and_report(3, capsys)


def test_criterion_04_second_family(capsys):
    run_and_report(4, capsys)


def test_criterion_05_weight_bounded_family(capsys):
    run_and_report(5, capsys)


def test_criterion_06_extended_family(capsys):
    run_and_report(6, capsys)


def test_criterion_07_lift(capsys):
    run_and_report(7, capsys)


def test_criterion_08_function_codes(capsys):
    run_and_report(8, capsys)


def test_criterion_09_tensor_products(capsys):
    run_and_report(9, capsys)


def test_criterion_10_secret_sharing(capsys):
    run_and_report(10, capsys)


def test_criterion_11_ratio_bound_consistency(capsys):
    run_and_report(11, capsys)
