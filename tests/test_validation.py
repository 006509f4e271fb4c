import dataclasses
import math

import pytest

from jchm import validation
from jchm import classify
from jchm.operators import ModelParams
from jchm.sweep import params_for
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


def test_quick_run_returns_its_seven_checks_in_order():
    # the benchmark splits each validate --quick pass into these parts
    names = [r.name for r in validation.run_all(quick=True)]
    assert names == ["sector-zero-l2", "sector-crossing-l2", "invariant-suite",
                     "lobe-threshold-l2", "forbidden-frontier-l2",
                     "sf-boundary-l1", "strong-coupling-match-l1"]


def faulty_builder(monkeypatch, fault):
    """Route the invariant suite's matrix builds through fault(params, psi,
    n_max, band), which may edit the band in place."""
    original = validation.build_mean_field

    def build(params, psi, n_max):
        h = original(params, psi, n_max)
        fault(params, psi, n_max, h.band)
        return h
    monkeypatch.setattr(validation, "build_mean_field", build)


def test_invariant_suite_catches_a_wrong_sector_block(monkeypatch):
    # the coupling of the one block {|e,3>, |g,5>} at l=2, omega=1, 1% off
    def fault(params, psi, n_max, band):
        if params == ModelParams.resonant(2, 1.0) and psi == 0.0 and n_max == 5:
            band[3, 7] *= 1.01
    faulty_builder(monkeypatch, fault)
    res = check_invariants()
    assert not res.passed
    assert res.measured == "1 violations"
    assert res.detail.startswith("sector vs matrix mismatch ")
    assert res.detail.endswith(" at l=2, L=5, omega=1.0")


def test_invariant_suite_catches_a_term_that_breaks_L(monkeypatch):
    # at zero drive, an entry joining |g,0> (L = 0) to |e,0> (L = l)
    def fault(params, psi, n_max, band):
        if psi == 0.0:
            band[1, 0] = 0.5
    faulty_builder(monkeypatch, fault)
    res = check_invariants()
    assert not res.passed
    violations = res.detail.split("; ")
    assert len(violations) == 5
    assert all(v.startswith("[H, L] = ") for v in violations)


@pytest.mark.parametrize("move, message", [
    (lambda sol: sol.psi_star + 1e-3, "stationarity E'(psi*) = "),
    (lambda sol: 0.0, "no interior superfluid minimum "),
    (lambda sol: math.sqrt(sol.n_max_used) / 2, "no interior superfluid minimum "),
], ids=["off-root", "at-zero", "at-psi-max"])
def test_invariant_suite_catches_a_non_stationary_minimum(monkeypatch, move,
                                                          message):
    # psi_star moved at one of the listed superfluid points: off the root
    # of the slope, or onto psi = 0, where stationarity would hold
    # vacuously, or onto psi_max, where no root of the slope is sought
    original = validation.minimize_over_psi

    def minimize(params, *args):
        sol = original(params, *args)
        if params == params_for(3, -0.9, -0.6):
            return dataclasses.replace(sol, psi_star=move(sol))
        return sol
    monkeypatch.setattr(validation, "minimize_over_psi", minimize)
    res = check_invariants()
    assert not res.passed
    assert res.measured == "1 violations"
    assert res.detail.startswith(message)
    assert "at l=3, x=-0.9, y=-0.6" in res.detail
