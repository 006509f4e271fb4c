"""End-to-end gate: every reference result, one pass/fail line each.

Each test re-derives one reference number (or census) through the public
pipeline and asserts the stated tolerance.  Run with `pytest -v
tests/test_acceptance.py -s` to see the per-check lines; the same checks back
the `jchm validate` command.
"""

from jchm.validation import (
    check_forbidden_frontier,
    check_invariants,
    check_lobe_threshold,
    check_phase_census,
    check_sector_crossing,
    check_sector_zero,
    check_sf_boundaries,
    check_strong_coupling_match,
)


def _gate(result, budget_s=None):
    print(result.line())
    assert result.passed, result.line()
    if budget_s is not None:
        assert result.seconds < budget_s, (
            f"{result.name} took {result.seconds:.1f}s, budget {budget_s}s"
        )


def test_c1_two_photon_lobe_edge_closed_form():
    # vacuum / MI(2) degeneracy of the zero-hopping sector problem
    _gate(check_sector_zero())


def test_c2_two_photon_level_crossing_closed_form():
    # L=2 / L=3 crossing bounding the MI(2) lobe from above
    _gate(check_sector_crossing())


def test_c3_classified_lobe_threshold_matches_closed_form():
    # full classification pipeline reproduces the sector result at x=-4
    _gate(check_lobe_threshold(), budget_s=30.0)


def test_c4_forbidden_region_frontier():
    # onset of unbounded occupation above the l=2 lobes
    _gate(check_forbidden_frontier(), budget_s=60.0)


def test_c5_single_photon_superfluid_boundaries():
    # two reference cuts through the l=1 lobe tips
    _gate(check_sf_boundaries(), budget_s=120.0)


def test_c6_phase_census_all_photon_orders():
    # default diagrams: l=1 lobes cover 0,1,2; l=2 exactly {0,2}; none above
    _gate(check_phase_census(), budget_s=900.0)


def test_c7_strong_coupling_expansion_agreement():
    # classified MI(0) edge vs the small-kappa closed form, three hoppings
    _gate(check_strong_coupling_match(), budget_s=120.0)


def test_c8_model_invariants():
    # band layout, conservation, parity, truncation monotonicity, sector forms
    _gate(check_invariants(), budget_s=300.0)
