import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from jchm.analytic import (
    Branch,
    SectorSpec,
    Side,
    asymptotic_slope,
    coupling_strength,
    resonant_ground_energy,
    resonant_sector_energy,
    sector_energy,
    solve_sector_crossing,
    solve_sector_zero,
    strong_coupling_boundary,
)

from conftest import sector_eigs, sector_matrix

GOLDEN_PLUS_ONE = 2.618033988749895          # (3 + sqrt(5)) / 2
ONE_PLUS_INV_SQRT2 = 1.7071067811865475      # 1 + 1/sqrt(2)


def test_coupling_strength_matches_factorials():
    for l in (1, 2, 3, 4):
        for L in range(l, 31):
            exact = math.factorial(L) // math.factorial(L - l)
            assert coupling_strength(l, L) == pytest.approx(
                math.sqrt(exact), rel=1e-14)
    # no overflow far beyond factorial range
    assert math.isfinite(coupling_strength(4, 400))


def test_sector_spec_validation():
    with pytest.raises(ValueError, match="L"):
        SectorSpec(l=2, L=1, omega=1.0, Omega=1.0)
    with pytest.raises(ValueError, match="l"):
        SectorSpec(l=0, L=1, omega=1.0, Omega=1.0)


@settings(max_examples=120, deadline=None)
@given(l=st.integers(1, 4), dL=st.integers(0, 26), omega=st.floats(0.1, 5.0),
       Omega=st.floats(0.1, 5.0), mu=st.floats(0.0, 2.0))
def test_sector_energy_matches_numpy(l, dL, omega, Omega, mu):
    L = l + dL
    spec = SectorSpec(l=l, L=L, omega=omega, Omega=Omega, mu=mu)
    lo, hi = sector_eigs(l, L, omega, Omega, mu)
    scale = max(1.0, abs(lo), abs(hi))
    assert sector_energy(spec, Branch.MINUS) == pytest.approx(lo, abs=1e-10 * scale)
    assert sector_energy(spec, Branch.PLUS) == pytest.approx(hi, abs=1e-10 * scale)
    assert sector_energy(spec, Branch.MINUS) <= sector_energy(spec, Branch.PLUS)


def test_resonant_form_consistency():
    # closed resonant expression against the general 2x2 eigenvalue
    for l in (1, 2, 3, 4):
        for L in range(l, 31):
            for omega in (0.5, 1.0, 2.0, 3.0):
                spec = SectorSpec(l=l, L=L, omega=omega, Omega=omega)
                for branch in (Branch.MINUS, Branch.PLUS):
                    assert abs(sector_energy(spec, branch)
                               - resonant_sector_energy(l, L, omega, branch)) <= 1e-12


def test_resonant_examples():
    assert resonant_sector_energy(2, 2, GOLDEN_PLUS_ONE, Branch.MINUS) == \
        pytest.approx(0.0, abs=1e-12)
    assert resonant_sector_energy(1, 1, 2.0, Branch.MINUS) == \
        pytest.approx(0.0, abs=1e-12)
    assert resonant_sector_energy(2, 2, 2.0, Branch.MINUS) == \
        pytest.approx(1.0 - math.sqrt(3.0), abs=1e-12)
    assert resonant_sector_energy(2, 2, 3.0, Branch.MINUS) == \
        pytest.approx(0.4384471871911697, abs=1e-12)


def test_resonant_ground_energy_small_sectors():
    # 1x1 sectors below the photon step
    assert resonant_ground_energy(3, 0, 2.5) == 0.0
    assert resonant_ground_energy(3, 2, 2.5) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="L"):
        resonant_ground_energy(2, -1, 1.0)


def test_ground_state_mix_at_resonance():
    # for l = 1 the two sector diagonals are degenerate at zero detuning, so
    # the ground state is the even superposition (|g,L> - |e,L-1>)/sqrt(2)
    for L in (1, 2, 7):
        m = sector_matrix(1, L, 1.9)
        w, v = np.linalg.eigh(m)
        vec = v[:, 0]
        assert abs(vec[0]) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)
        assert abs(vec[1]) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)
        assert vec[0] * vec[1] < 0
    # above l = 1 the diagonals split by (l - 1) omega and the state leans
    # onto whichever branch sits lower (the excited one, for omega > mu)
    for l, L in [(2, 2), (2, 5), (4, 7)]:
        m = sector_matrix(l, L, 1.9)
        assert m[0, 0] < m[1, 1]
        w, v = np.linalg.eigh(m)
        vec = v[:, 0]
        assert abs(vec[0]) > 1.0 / math.sqrt(2) > abs(vec[1]) > 0.0


def test_solve_sector_zero_values():
    assert solve_sector_zero(2, 2) == pytest.approx(GOLDEN_PLUS_ONE, abs=1e-8)
    assert solve_sector_zero(1, 1) == pytest.approx(2.0, abs=1e-8)
    # for l=1 the zero sits at 1 + 1/sqrt(L)
    assert solve_sector_zero(1, 2) == pytest.approx(ONE_PLUS_INV_SQRT2, abs=1e-8)
    assert solve_sector_zero(1, 9) == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-8)


def test_solve_sector_zero_validation_and_bracket():
    with pytest.raises(ValueError, match="L"):
        solve_sector_zero(2, 1)
    # deep sectors of the four-photon model stay negative over the whole
    # bracket: the solver must say so, not invent a root
    with pytest.raises(ValueError, match="sign change"):
        solve_sector_zero(4, 30)


def test_solve_sector_crossing_values():
    # independent route: bisect the difference of numpy sector eigenvalues
    def oracle(l, L1, L2):
        def diff(w):
            def ground(L):
                if L < l:
                    return L * (w - 1.0)
                return sector_eigs(l, L, w)[0]
            return ground(L1) - ground(L2)
        return scipy.optimize.brentq(diff, 1e-6, 10.0, xtol=1e-12)

    assert solve_sector_crossing(2, 2, 3) == pytest.approx(oracle(2, 2, 3), abs=1e-9)
    assert solve_sector_crossing(2, 3, 4) == pytest.approx(oracle(2, 3, 4), abs=1e-9)
    assert solve_sector_crossing(3, 3, 4) == pytest.approx(oracle(3, 3, 4), abs=1e-9)
    # reference value for the two-photon model
    assert 2.0 - solve_sector_crossing(2, 2, 3) == pytest.approx(0.0785, abs=1e-3)
    # vacuum crossing reduces to the sector zero
    assert solve_sector_crossing(2, 0, 2) == pytest.approx(solve_sector_zero(2, 2), abs=1e-9)
    assert solve_sector_crossing(1, 0, 1) == pytest.approx(2.0, abs=1e-8)


def test_solve_sector_crossing_validation():
    with pytest.raises(ValueError, match="L1"):
        solve_sector_crossing(1, 2, 1)
    with pytest.raises(ValueError, match="L2"):
        solve_sector_crossing(3, 0, 2)


def test_asymptotic_slope_values():
    assert asymptotic_slope(1, 2.5) == pytest.approx(1.5)
    assert asymptotic_slope(2, 1.5) == pytest.approx(-0.5)
    assert asymptotic_slope(2, 2.5) == pytest.approx(0.5)
    assert asymptotic_slope(3, 1.0) == float("-inf")
    assert asymptotic_slope(4, 3.0) == float("-inf")
    with pytest.raises(ValueError, match="l"):
        asymptotic_slope(5, 1.0)


def test_asymptotic_slope_matches_large_l():
    # the quoted per-excitation slopes really are the large-L limits; at
    # L = 2500 the leftover corrections (1/sqrt(L) for l = 1, (omega-1)/sqrt(L)
    # for l = 3) are all safely inside 0.05
    L = 2500
    for omega in (0.5, 1.0, 2.0, 3.0):
        e1 = resonant_ground_energy(1, L, omega) / L
        assert abs(e1 - asymptotic_slope(1, omega)) < 0.05
        e2 = resonant_ground_energy(2, L, omega) / L
        assert abs(e2 - asymptotic_slope(2, omega)) < 0.05
        e3 = resonant_ground_energy(3, L, omega) / L ** 1.5
        assert abs(e3 + 1.0) < 0.05
        e4 = resonant_ground_energy(4, L, omega) / L ** 2
        assert abs(e4 + 1.0) < 0.05


def test_strong_coupling_boundary_values():
    assert strong_coupling_boundary(0, Side.UPPER, 0.0) == pytest.approx(-1.0)
    assert strong_coupling_boundary(0, Side.UPPER, 0.01) == pytest.approx(-1.01)
    assert strong_coupling_boundary(1, Side.LOWER, 0.0) == pytest.approx(-1.0)
    assert strong_coupling_boundary(1, Side.UPPER, 0.0) == pytest.approx(
        1.0 - math.sqrt(2.0))
    assert strong_coupling_boundary(2, Side.LOWER, 0.0) == pytest.approx(
        1.0 - math.sqrt(2.0))
    # first-order degeneracy at kappa = 0 between adjacent lobes, split at
    # second order: upper edge of L falls below lower edge of L+1
    for kappa in (0.001, 0.01, 0.1):
        assert strong_coupling_boundary(0, Side.UPPER, kappa) < \
            strong_coupling_boundary(1, Side.LOWER, kappa)
        assert strong_coupling_boundary(1, Side.UPPER, kappa) < \
            strong_coupling_boundary(2, Side.LOWER, kappa)


def test_strong_coupling_boundary_validation():
    with pytest.raises(ValueError, match="upper"):
        strong_coupling_boundary(3, Side.UPPER, 0.0)
    with pytest.raises(ValueError, match="lower"):
        strong_coupling_boundary(0, Side.LOWER, 0.0)
    with pytest.raises(ValueError, match="kappa"):
        strong_coupling_boundary(0, Side.UPPER, -0.1)
