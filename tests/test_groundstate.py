import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jchm import groundstate
from jchm.classify import SolverSettings
from jchm.groundstate import (
    COARSE_STEPS,
    ENERGY_TIE_EPS,
    BracketExhausted,
    energy_at_psi,
    expected_L,
    minimize_over_psi,
)
from jchm.operators import ModelParams

from conftest import zero_drive_ground_oracle

ONE_MINUS_SQRT3 = -0.7320508075688772


def spec_for(n_max, **overrides):
    return SolverSettings(n_max=n_max, **overrides)


def test_psi_search_spec_validation():
    with pytest.raises(ValueError, match="psi_zero_eps"):
        SolverSettings(psi_max=1.0, psi_eps=2.0).for_l(1)
    with pytest.raises(ValueError, match="refine_tol"):
        SolverSettings(psi_max=1.0, psi_eps=1e-7).for_l(1)
    spec = SolverSettings().for_l(1)
    assert spec.psi_bounds()[0] == pytest.approx(math.sqrt(40) / 2)
    assert COARSE_STEPS == 64


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
    psi_max, psi_zero_eps = spec.psi_bounds()
    sol = minimize_over_psi(params, spec)
    assert sol.psi_star > psi_zero_eps
    assert sol.energy < -1e-4
    # the reported energy beats (or ties) every coarse-scan energy
    for psi in np.linspace(0.0, psi_max, COARSE_STEPS):
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
    spec = spec_for(30, psi_max=0.05, psi_eps=1e-3)
    with pytest.raises(BracketExhausted) as exc:
        minimize_over_psi(params, spec)
    sol = exc.value.solution
    assert sol.psi_star == pytest.approx(0.05, abs=2e-3)
    assert sol.energy < 0.0


def test_minimize_ground_vector_is_normalised():
    params = ModelParams.resonant(2, 2.3, kappa=0.05)
    sol = minimize_over_psi(params, spec_for(30))
    assert np.linalg.norm(sol.ground_vector) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= sol.l_expect <= 30 + 2


@pytest.mark.parametrize("kappa, vector_solves", [(1e-4, 1), (10 ** -0.5, 2)])
def test_minimize_solves_with_vectors_only_where_used(monkeypatch, kappa,
                                                       vector_solves):
    # psi = 0 is solved once with its vector (and returned for an
    # insulator); the scan and refinement take eigenvalues only, and a
    # superfluid adds one vector solve at psi_star
    calls = {"pair": 0, "value": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groundstate, "smallest_eigpair",
                        counted("pair", groundstate.smallest_eigpair))
    monkeypatch.setattr(groundstate, "smallest_eigenvalue",
                        counted("value", groundstate.smallest_eigenvalue))
    sol = minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=kappa),
                            spec_for(40))
    assert (sol.psi_star > 0) == (vector_solves == 2)
    assert calls["pair"] == vector_solves
    assert calls["value"] >= COARSE_STEPS - 1
