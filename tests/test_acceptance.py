"""Acceptance gate: the full built-in verification suite must pass.

Each criterion is one parametrized test, so a -v run shows one pass/fail
line per criterion; the detail string is printed for the log as well.
"""

import pytest

from tolrep import verify

NAMES = [fn.__name__.removeprefix("check_").replace("_", "-") for fn in verify.CHECKS]


@pytest.fixture(scope="module")
def results():
    return {res.name: res for res in verify.run_all()}


def test_every_criterion_is_covered():
    assert len(verify.CHECKS) == 12


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    res = results[name]
    line = f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
    print(line)
    assert res.passed, line


def test_run_all_reports_failures(monkeypatch):
    @verify._check
    def check_condition_breaks():
        raise verify.CheckFailed("theta escaped")

    @verify._check
    def check_body_crashes():
        raise KeyError("theta")

    monkeypatch.setattr(verify, "CHECKS", (check_condition_breaks, check_body_crashes))
    assert verify.run_all() == [
        verify.CheckResult("condition-breaks", False, "theta escaped"),
        verify.CheckResult("body-crashes", False, "raised KeyError('theta')"),
    ]
