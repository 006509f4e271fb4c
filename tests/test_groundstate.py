import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jchm import groundstate
from jchm.classify import PSI_EPS, SolverSettings
from jchm.eigen import DEFAULT_TOL, smallest_eigpair
from jchm.groundstate import (
    ENERGY_TIE_EPS,
    REFINE_TOL,
    BracketExhausted,
    MeanFieldSolution,
    energy_at_psi,
    expected_L,
    minimize_over_psi,
    solution_at,
)
from jchm.operators import ModelParams, build_mean_field

from conftest import zero_drive_ground_oracle, zero_drive_sector_energies

ONE_MINUS_SQRT3 = -0.7320508075688772


def spec_for(n_max, **overrides):
    return SolverSettings(n_max=n_max, **overrides)


def test_psi_search_spec_validation():
    # golden section must resolve psi well inside the SF threshold
    assert REFINE_TOL < PSI_EPS
    with pytest.raises(ValueError, match=r"^psi_max: must exceed psi_eps = "
                                         r"0\.001, got 0\.0005$"):
        SolverSettings(psi_max=5e-4).for_l(1)
    spec = SolverSettings().for_l(1)
    assert spec.search_max() == pytest.approx(math.sqrt(40) / 2)


def test_vacuum_energy_is_zero():
    params = ModelParams.resonant(1, 3.0)
    assert energy_at_psi(params, 0.0, 30) == pytest.approx(0.0, abs=1e-12)


def test_zero_drive_energy_example():
    # two-photon model at omega = 2: the L=2 sector gives 1 - sqrt(3)
    params = ModelParams.resonant(2, 2.0)
    assert energy_at_psi(params, 0.0, 40) == pytest.approx(
        ONE_MINUS_SQRT3, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(l=st.integers(1, 2), omega=st.floats(2.2, 4.0), mu=st.floats(0.0, 1.0),
       n_extra=st.integers(4, 20))
def test_zero_drive_energy_matches_sector_enumeration(l, omega, mu, n_extra):
    # bounded regime: compare the full matrix against the sector oracle
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=mu)
    expected = zero_drive_ground_oracle(l, omega, mu, l + n_extra)
    got = energy_at_psi(params, 0.0, l + n_extra)
    assert got == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


@settings(max_examples=30, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.5, 4.0), psi=st.floats(0.0, 2.0),
       kappa=st.floats(0.0, 1.0))
def test_energy_even_in_psi(l, omega, psi, kappa):
    params = ModelParams(l=l, omega=omega, Omega=omega, kappa=kappa)
    plus = energy_at_psi(params, psi, l + 12)
    minus = energy_at_psi(params, -psi, l + 12)
    assert abs(plus - minus) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.2, 4.0),
       delta=st.floats(-1.0, 1.0), mu=st.floats(0.0, 3.0), z=st.integers(1, 6),
       kappa=st.floats(0.0, 1.0), n_extra=st.integers(2, 76))
# a soft cavity at large mu: the ground state is the edge state |e,3>,
# whose partner |g,4> lies past the truncation
@example(l=1, omega=0.2, delta=-1.0, mu=2.75, z=2, kappa=0.0, n_extra=2)
def test_sector_solution_matches_the_band_solve(l, omega, delta, mu, z, kappa,
                                                n_extra):
    # psi = 0 from the sector blocks against dsbevx on the full band
    assume(omega - delta > 0.0)
    n_max = min(l + n_extra, 80)
    params = ModelParams(l=l, omega=omega, Omega=omega - delta, mu=mu,
                         kappa=kappa, z=z)
    sol = solution_at(params, 0.0, n_max, DEFAULT_TOL)
    pair = smallest_eigpair(build_mean_field(params, 0.0, n_max))
    low = sorted(zero_drive_sector_energies(l, omega, mu, n_max, omega - delta))
    if low[1] - low[0] <= DEFAULT_TOL * max(1.0, abs(low[0])):
        # a tie: the sectors leave the state open, the band solve is returned
        assert sol.energy == pair.value
        assert sol.l_expect == expected_L(pair.vector, l)
        return
    assert abs(sol.energy - pair.value) <= DEFAULT_TOL * max(1.0, abs(pair.value))
    # the same state: the band solve's vector lies in the sector's L
    assert sol.l_expect == round(sol.l_expect)
    assert sol.l_expect == pytest.approx(expected_L(pair.vector, l), abs=1e-8)
    assert sol.psi_star == 0.0 and sol.n_max_used == n_max


def test_sector_tie_falls_back_to_the_band_solve(monkeypatch):
    # at l = 2, omega = (3 + sqrt 5)/2 the L = 2 sector ties with the
    # vacuum to rounding: the sectors cannot say which state dsbevx picks,
    # so the band is solved and its answer returned unchanged
    params = ModelParams.resonant(2, (3.0 + math.sqrt(5.0)) / 2.0)
    n_max = 40
    pair = smallest_eigpair(build_mean_field(params, 0.0, n_max))
    assert abs(pair.value) < 1e-14
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return smallest_eigpair(*args, **kwargs)

    monkeypatch.setattr(groundstate, "smallest_eigpair", counted)
    sol = solution_at(params, 0.0, n_max, DEFAULT_TOL)
    assert calls == [2 * (n_max + 1)]
    assert sol.energy == pair.value
    assert sol.l_expect == expected_L(pair.vector, 2)
    assert sol.psi_star == 0.0 and sol.n_max_used == n_max


def test_expected_l_examples():
    dim = 2 * (4 + 1)  # l = 2, n_max = 4
    v = np.zeros(dim)
    v[2 * 3] = 1.0  # |g,3>
    assert expected_L(v, 2) == pytest.approx(3.0, abs=1e-14)
    w = np.zeros(dim)
    w[2 * 2] = 1.0 / math.sqrt(2)   # |g,2>
    w[1] = -1.0 / math.sqrt(2)      # |e,0>, L = 2 as well
    assert expected_L(w, 2) == pytest.approx(2.0, abs=1e-14)
    u = np.zeros(dim)
    u[0] = u[2 * 4] = 1.0 / math.sqrt(2)  # mix of L = 0 and L = 4
    assert expected_L(u, 2) == pytest.approx(2.0, abs=1e-14)


def test_minimize_deep_insulator():
    # vacuum lobe: psi collapses to exactly zero, energy exactly the vacuum
    params = ModelParams.resonant(1, 2.7, kappa=1e-4)
    sol = minimize_over_psi(params, spec_for(40))
    assert sol.psi_star == 0.0
    assert sol.energy == pytest.approx(0.0, abs=1e-12)
    assert sol.l_expect == pytest.approx(0.0, abs=1e-6)
    assert sol.n_max_used == 40


def test_minimize_single_occupancy_insulator():
    params = ModelParams.resonant(1, 1.7, kappa=10 ** -1.3)
    sol = minimize_over_psi(params, spec_for(40))
    assert sol.psi_star == 0.0
    assert sol.energy == pytest.approx(1.7 - 2.0, abs=1e-9)
    assert sol.l_expect == pytest.approx(1.0, abs=1e-6)


def test_minimize_superfluid():
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    spec = spec_for(40)
    psi_max = spec.search_max()
    sol = minimize_over_psi(params, spec)
    assert sol.psi_star > PSI_EPS
    assert sol.energy < -1e-4
    # the reported energy beats (or ties) every energy of a 64-point scan
    for psi in np.linspace(0.0, psi_max, 64):
        assert sol.energy <= energy_at_psi(params, psi, 40) + ENERGY_TIE_EPS + 1e-9


def test_minimize_monotone_in_truncation():
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    e_small = minimize_over_psi(params, spec_for(30)).energy
    e_large = minimize_over_psi(params, spec_for(60)).energy
    assert e_large <= e_small + 1e-9


def test_minimize_reports_bracket_exhaustion():
    # a deliberately tiny interval in a superfluid region: the minimum sits
    # at the edge and must be reported, carrying the edge solution
    params = ModelParams.resonant(1, 2.2, kappa=1.0)
    spec = spec_for(30, psi_max=0.05)
    with pytest.raises(BracketExhausted) as exc:
        minimize_over_psi(params, spec)
    sol = exc.value.solution
    assert sol.psi_star == pytest.approx(0.05, abs=2e-3)
    assert sol.energy < 0.0


def test_minimize_l_expect_lies_within_the_truncation():
    params = ModelParams.resonant(2, 2.3, kappa=0.05)
    sol = minimize_over_psi(params, spec_for(30))
    assert 0.0 <= sol.l_expect <= 30 + 2


@pytest.mark.parametrize("kappa, vector_solves", [(1e-4, 1), (10 ** -0.5, 2)])
def test_minimize_solves_with_vectors_only_where_used(monkeypatch, kappa,
                                                       vector_solves):
    # psi = 0 is solved once, from the sector blocks with no band
    # eigensolve, and returned for an insulator; the branch and bound and
    # its polish take eigenvalues only, and a superfluid adds one band
    # vector solve at psi_star.  The deep insulator is pruned after its
    # seeds; the superfluid takes fewer value solves than the 63 a 64-point
    # scan spends before any refinement
    calls = {"sector": 0, "pair": 0, "value": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groundstate, "_sector_solution",
                        counted("sector", groundstate._sector_solution))
    monkeypatch.setattr(groundstate, "smallest_eigpair",
                        counted("pair", groundstate.smallest_eigpair))
    monkeypatch.setattr(groundstate, "smallest_eigenvalue",
                        counted("value", groundstate.smallest_eigenvalue))
    sol = minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=kappa),
                            spec_for(40))
    assert (sol.psi_star > 0) == (vector_solves == 2)
    assert calls["sector"] == 1
    assert calls["pair"] == vector_solves - 1
    if vector_solves == 1:
        assert calls["value"] <= 16
    else:
        assert calls["value"] < 63


def test_minimize_finds_a_minimum_narrower_than_a_scan_step(monkeypatch):
    # a synthetic level crossing: E = c psi^2 + min(line1, line2), concave in
    # its second term as the true energy is.  Each line gives a parabola of
    # curvature c; the global minimum is the vertex of the second, just past
    # the crossing, in a well whose part below the first basin's minimum is
    # 0.5 scan steps wide and falls between two points of a 64-point scan
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = spec_for(40).search_max()
    step = psi_max / 63
    psi1, e1 = 20 * step, -0.5           # broad basin, on a scan point
    psi2 = 40.37 * step                  # narrow global minimum
    e2 = e1 - c * (0.25 * step) ** 2

    def energy(psi):
        line1 = -2 * c * psi1 * psi + c * psi1 ** 2 + e1
        line2 = -2 * c * psi2 * psi + c * psi2 ** 2 + e2
        return c * psi * psi + min(line1, line2)

    def solution(params, psi, n_max, tol):
        return MeanFieldSolution(psi_star=float(psi), energy=energy(psi),
                                 l_expect=0.0, n_max_used=n_max)

    monkeypatch.setattr(groundstate, "energy_at_psi",
                        lambda params, psi, n_max, tol: energy(psi))
    monkeypatch.setattr(groundstate, "solution_at", solution)
    sol = minimize_over_psi(params, spec_for(40))
    assert sol.psi_star == pytest.approx(psi2, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(e2, abs=1e-12)

    scan = np.linspace(0.0, psi_max, 64)
    best = min(scan, key=energy)
    assert best == pytest.approx(psi1)
    assert energy(best) - e2 > 0.5 * (e1 - e2)
