import pytest

from jchm import validation
from jchm import classify
from jchm.validation import (
    CheckResult,
    check_forbidden_frontier,
    check_invariants,
    check_sector_crossing,
    check_sector_zero,
)


def test_check_result_line_format():
    res = CheckResult(name="demo", passed=True, measured=1.25, expected=1.3,
                      tolerance=0.1, seconds=2.0)
    assert res.line() == "[PASS] demo: measured=1.25 expected=1.3 tol=0.1 (2.0s)"
    res = CheckResult(name="demo", passed=False, measured="x", expected="y",
                      tolerance="-", seconds=0.0, detail="why")
    assert res.line().startswith("[FAIL] demo:")
    assert res.line().endswith("-- why")


def test_closed_form_checks_pass_fast():
    for check in (check_sector_zero, check_sector_crossing, check_invariants):
        res = check()
        assert res.passed, res.line()
        assert res.seconds < 30.0


def test_forbidden_check_is_sensitive_to_pin_fraction(monkeypatch):
    # with the pin threshold pushed above 1 nothing can ever count as pinned,
    # so the runaway point comes back indeterminate and the check must fail
    # rather than silently pass
    monkeypatch.setattr(classify, "PIN_FRACTION", 2.0)
    res = check_forbidden_frontier()
    assert not res.passed
    assert "Indeterminate" in res.detail


def test_crashed_check_reports_failure_not_exception(monkeypatch):
    # same knob through the public entry: a crash inside a check becomes a
    # failed CheckResult carrying the exception text
    monkeypatch.setattr(classify, "PIN_FRACTION", 1.5)
    res = check_forbidden_frontier()
    assert isinstance(res, CheckResult)
    assert not res.passed
    assert res.measured == "error"


def test_forbidden_check_classifies_each_point_once(monkeypatch):
    calls = []
    original = validation.classify_at

    def counted(l, x, y, *args, **kwargs):
        calls.append((x, y))
        return original(l, x, y, *args, **kwargs)
    monkeypatch.setattr(validation, "classify_at", counted)
    res = check_forbidden_frontier()
    assert res.passed, res.line()
    assert len(calls) == len(set(calls)) == 12
