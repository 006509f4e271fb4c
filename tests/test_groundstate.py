import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jchm import groundstate
from jchm.classify import PSI_EPS
from jchm.eigen import smallest_eigenvalue, smallest_eigpair, tolerance
from jchm.groundstate import (
    ENERGY_TIE_EPS,
    REFINE_TOL,
    BracketExhausted,
    MeanFieldSolution,
    energy_at_psi,
    energy_unless_above,
    expected_L,
    minimize_over_psi,
    resolve_n_max,
    solution_at,
)
from jchm.operators import ModelParams, build_mean_field

from conftest import zero_drive_ground_oracle, zero_drive_sector_energies

ONE_MINUS_SQRT3 = -0.7320508075688772


def test_psi_search_spec_validation():
    # the polish must resolve psi well inside the SF threshold
    assert REFINE_TOL < PSI_EPS
    assert (resolve_n_max(1, None), resolve_n_max(3, None)) == (40, 24)
    assert resolve_n_max(2, 4) == 4
    with pytest.raises(ValueError, match=r"^n_max: must be at least l \+ 2 "
                                         r"= 4, got 3$"):
        resolve_n_max(2, 3)


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
@given(l=st.integers(1, 4), omega=st.floats(0.5, 4.0), mu=st.floats(0.0, 2.0),
       kappa=st.floats(0.0, 1.0), psi=st.floats(0.0, 3.0),
       n_extra=st.integers(2, 40), above=st.booleans(),
       log_gap=st.floats(-9.5, 1.0))
def test_energy_unless_above_is_sound(l, omega, mu, kappa, psi, n_extra,
                                      above, log_gap):
    # the band Cholesky reports "above t" only when the smallest eigenvalue
    # is, and otherwise returns bitwise what energy_at_psi returns; t sits a
    # random distance, never within the certificate's tolerance, either side
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=mu, kappa=kappa)
    n_max = l + n_extra
    energy = energy_at_psi(params, psi, n_max)
    gap = 10.0 ** log_gap * max(1.0, abs(energy))
    assert gap > tolerance(energy)
    t = energy - gap if above else energy + gap
    got = energy_unless_above(params, psi, n_max, t)
    if above:
        assert got is None
    else:
        assert got is not None and got.hex() == energy.hex()


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
    sol = solution_at(params, 0.0, n_max)
    pair = smallest_eigpair(build_mean_field(params, 0.0, n_max))
    low = sorted(zero_drive_sector_energies(l, omega, mu, n_max, omega - delta))
    if low[1] - low[0] <= tolerance(low[0]):
        # a tie: the sectors leave the state open, the band solve is returned
        assert sol.energy == pair.value
        assert sol.l_expect == expected_L(pair.vector, l)
        return
    assert abs(sol.energy - pair.value) <= tolerance(pair.value)
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
    sol = solution_at(params, 0.0, n_max)
    assert calls == [2 * (n_max + 1)]
    assert sol.energy == pair.value
    assert sol.l_expect == expected_L(pair.vector, 2)
    assert sol.psi_star == 0.0 and sol.n_max_used == n_max


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.2, 4.0),
       delta=st.floats(-1.0, 1.0), mu=st.floats(0.0, 3.0), z=st.integers(1, 6),
       log_kappa=st.floats(-5.0, 0.0), n_extra=st.integers(2, 40),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=6))
# the MI(1) point of test_minimize_single_occupancy_insulator, 0 < h* < psi_max
@example(l=1, omega=1.7, delta=0.0, mu=1.0, z=2, log_kappa=-1.3, n_extra=38,
         fractions=[0.5, 0.99])
def test_zero_reach_is_sound(l, omega, delta, mu, z, log_kappa, n_extra,
                             fractions):
    # every energy within the proven reach h* lies above the psi = 0 energy
    # less ENERGY_TIE_EPS; h* itself, and psi past psi_max, are sampled too
    assume(omega - delta > 0.0)
    params = ModelParams(l=l, omega=omega, Omega=omega - delta, mu=mu,
                         kappa=10.0 ** log_kappa, z=z)
    n_max = l + n_extra
    reach = groundstate.zero_reach(params, n_max)
    assert reach >= 0.0
    floor = solution_at(params, 0.0, n_max).energy - ENERGY_TIE_EPS
    top = min(reach, math.sqrt(n_max))             # at most 2 psi_max
    for f in [1.0] + fractions:
        assert energy_at_psi(params, f * top, n_max) > floor


def test_zero_reach_pins():
    psi_max = math.sqrt(40) / 2
    # a deep insulator is proven over all of [0, psi_max]
    assert groundstate.zero_reach(ModelParams.resonant(1, 2.7, kappa=1e-4),
                                  40) >= psi_max
    # zero hopping: the energy is E0 at every psi
    assert groundstate.zero_reach(ModelParams.resonant(1, 2.2), 40) == math.inf
    # a sector tie is not certified (test_sector_tie_falls_back...)
    tied = ModelParams.resonant(2, (3.0 + math.sqrt(5.0)) / 2.0, kappa=1e-4)
    assert groundstate.zero_reach(tied, 40) == 0.0
    # a superfluid whose second-order coefficient a2, from the full sum over
    # a dense eigendecomposition, is negative: nothing is proven
    sf = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    c = sf.z * sf.kappa
    values, vectors = np.linalg.eigh(build_mean_field(sf, 0.0, 40).dense())
    x = np.diag(np.repeat(np.sqrt(np.arange(1.0, 41.0)), 2), 2)
    amps = vectors.T @ (x + x.T) @ vectors[:, 0]
    a2 = c - c * c * np.sum(amps[1:] ** 2 / (values[1:] - values[0]))
    assert a2 < 0.0
    assert groundstate.zero_reach(sf, 40) == 0.0


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
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == 0.0
    assert sol.energy == pytest.approx(0.0, abs=1e-12)
    assert sol.l_expect == pytest.approx(0.0, abs=1e-6)
    assert sol.n_max_used == 40


def test_minimize_single_occupancy_insulator():
    params = ModelParams.resonant(1, 1.7, kappa=10 ** -1.3)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == 0.0
    assert sol.energy == pytest.approx(1.7 - 2.0, abs=1e-9)
    assert sol.l_expect == pytest.approx(1.0, abs=1e-6)


def test_minimize_superfluid():
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    psi_max = math.sqrt(40) / 2
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star > PSI_EPS
    assert sol.energy < -1e-4
    # the reported energy beats (or ties) every energy of a 64-point scan
    for psi in np.linspace(0.0, psi_max, 64):
        assert sol.energy <= energy_at_psi(params, psi, 40) + ENERGY_TIE_EPS + 1e-9


def test_minimize_monotone_in_truncation():
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    e_small = minimize_over_psi(params, 30).energy
    e_large = minimize_over_psi(params, 60).energy
    assert e_large <= e_small + 1e-9


def test_minimize_reports_bracket_exhaustion():
    # z kappa = 2 exceeds the large-L slope omega - 1 = 1.2, so the energy
    # falls without bound as psi grows: the minimum sits at the edge
    # psi_max = sqrt(n_max)/2 of every truncation and must be reported,
    # carrying the edge solution
    params = ModelParams.resonant(1, 2.2, kappa=1.0)
    with pytest.raises(BracketExhausted,
                       match=r"^energy minimum sits at psi_max=2\.73861; "
                             r"raise n_max$") as exc:
        minimize_over_psi(params, 30)
    sol = exc.value.solution
    assert sol.psi_star == pytest.approx(math.sqrt(30) / 2, abs=2e-6)
    assert sol.energy < 0.0 and sol.n_max_used == 30


def test_minimize_runaway_takes_its_seeds_only(monkeypatch):
    # the runaway point of test_minimize_reports_bracket_exhaustion: the
    # seed at psi_max is the incumbent and is not polished, and the steep
    # fall into the edge prunes both seed intervals at once, so the edge
    # is reported exactly after at most 3 value solves
    values = []

    def counted(a):
        values.append(len(a))
        return smallest_eigenvalue(a)

    monkeypatch.setattr(groundstate, "smallest_eigenvalue", counted)
    with pytest.raises(BracketExhausted) as exc:
        minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=1.0), 30)
    assert exc.value.solution.psi_star == math.sqrt(30) / 2
    assert len(values) <= 3


def test_minimize_l_expect_lies_within_the_truncation():
    params = ModelParams.resonant(2, 2.3, kappa=0.05)
    sol = minimize_over_psi(params, 30)
    assert 0.0 <= sol.l_expect <= 30 + 2


@pytest.mark.parametrize("kappa, vector_solves", [(1e-4, 1), (10 ** -0.5, 2)])
def test_minimize_solves_with_vectors_only_where_used(monkeypatch, kappa,
                                                       vector_solves):
    # psi = 0 is solved once, from the sector blocks with no band
    # eigensolve, and returned for an insulator; the branch and bound and
    # its polish take eigenvalues only, and a superfluid adds one band
    # vector solve at psi_star.  The deep insulator is proven by zero_reach
    # over all of [0, psi_max] and builds no band at all; the superfluid,
    # tested before solving and polished by Brent's method, takes 13 value
    # solves
    calls = {"sector": 0, "pair": 0, "value": 0, "build": 0}

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
    monkeypatch.setattr(groundstate, "build_mean_field",
                        counted("build", groundstate.build_mean_field))
    sol = minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=kappa), 40)
    assert (sol.psi_star > 0) == (vector_solves == 2)
    assert calls["sector"] == 1
    assert calls["pair"] == vector_solves - 1
    if vector_solves == 1:
        assert calls["value"] == calls["build"] == 0
    else:
        assert calls["value"] <= 13


def test_minimize_opens_a_partly_proven_insulator_at_the_reach(monkeypatch):
    # the MI(1) point of test_minimize_single_occupancy_insulator: zero_reach
    # proves psi = 0 over [0, h*] with 0 < h* < psi_max, so the first seed
    # interval opens at h* and the cascade toward psi = 0 is skipped:
    # 5 value solves (10 without the reach), none of them below h*
    params = ModelParams.resonant(1, 1.7, kappa=10 ** -1.3)
    reach = groundstate.zero_reach(params, 40)
    assert 0.0 < reach < math.sqrt(40) / 2
    built = []

    def counted(params, psi, n_max):
        built.append(psi)
        return build_mean_field(params, psi, n_max)

    values = []

    def counted_value(a):
        values.append(len(a))
        return smallest_eigenvalue(a)

    monkeypatch.setattr(groundstate, "build_mean_field", counted)
    monkeypatch.setattr(groundstate, "smallest_eigenvalue", counted_value)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == 0.0 and sol.l_expect == 1.0
    assert len(values) <= 5
    assert min(built) == reach


def synthetic_landscape(monkeypatch, energy) -> list[float]:
    """Make minimize_over_psi see energy(psi) alone, through every seam it
    solves by: energy_at_psi, the test before solving energy_unless_above
    and solution_at, with zero_reach proving nothing.  The real
    Hamiltonian is never built.  Returns the psi of every energy_at_psi
    call, in order."""
    solved = []

    def energy_at(params, psi, n_max):
        solved.append(psi)
        return energy(psi)

    def unless_above(params, psi, n_max, t):
        e = energy(psi)
        return None if e > t else e

    def solution(params, psi, n_max):
        return MeanFieldSolution(psi_star=float(psi), energy=energy(psi),
                                 l_expect=0.0, n_max_used=n_max)

    def no_matrix(*args, **kwargs):
        raise AssertionError("a synthetic landscape builds no matrix")

    monkeypatch.setattr(groundstate, "energy_at_psi", energy_at)
    monkeypatch.setattr(groundstate, "energy_unless_above", unless_above)
    monkeypatch.setattr(groundstate, "solution_at", solution)
    monkeypatch.setattr(groundstate, "zero_reach", lambda params, n_max: 0.0)
    monkeypatch.setattr(groundstate, "build_mean_field", no_matrix)
    return solved


def crossing(c, *wells):
    """E = min over the (p, e) wells of c (psi - p)^2 + e: c psi^2 plus a
    minimum of lines, concave in its second term as the true energy is."""
    def energy(psi):
        return c * psi * psi + min(-2 * c * p * psi + c * p * p + e
                                   for p, e in wells)
    return energy


def test_minimize_finds_a_minimum_narrower_than_a_scan_step(monkeypatch):
    # a synthetic level crossing: E = c psi^2 + min(line1, line2), concave in
    # its second term as the true energy is.  Each line gives a parabola of
    # curvature c; the global minimum is the vertex of the second, just past
    # the crossing, in a well whose part below the first basin's minimum is
    # 0.5 scan steps wide and falls between two points of a 64-point scan
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    step = psi_max / 63
    psi1, e1 = 20 * step, -0.5           # broad basin, on a scan point
    psi2 = 40.37 * step                  # narrow global minimum
    e2 = e1 - c * (0.25 * step) ** 2

    energy = crossing(c, (psi1, e1), (psi2, e2))
    synthetic_landscape(monkeypatch, energy)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(psi2, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(e2, abs=1e-12)

    scan = np.linspace(0.0, psi_max, 64)
    best = min(scan, key=energy)
    assert best == pytest.approx(psi1)
    assert energy(best) - e2 > 0.5 * (e1 - e2)


def test_minimize_leaves_an_edge_minimum_to_the_bounds(monkeypatch):
    # a synthetic landscape whose minimum sits at psi_max: a shallow basin
    # at 0.3 psi_max and a deeper well whose vertex lies past the edge.
    # The seed at psi_max is the incumbent and is not polished, so
    # energy_at_psi runs at the two seeds only; the heap's tests settle the
    # rest, and the edge is reported exactly
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    energy = crossing(c, (0.3 * psi_max, -0.5), (1.2 * psi_max, -1.5))
    solved = synthetic_landscape(monkeypatch, energy)
    with pytest.raises(BracketExhausted) as exc:
        minimize_over_psi(params, 40)
    assert solved == [psi_max / 2, psi_max]
    sol = exc.value.solution
    assert sol.psi_star == psi_max and sol.energy == energy(psi_max)
    assert min(energy(p) for p in np.linspace(0.0, psi_max, 1001)) == (
        energy(psi_max))


def test_minimize_bounds_find_a_well_below_an_edge_incumbent(monkeypatch):
    # the seed at psi_max is the first incumbent and is not polished, but a
    # deeper well at 0.8 psi_max, missed by the seeds, lies below it: the
    # chord bounds of the edge interval must still lead the heap to it
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    energy = crossing(c, (0.8 * psi_max, -1.05), (1.2 * psi_max, -1.2))
    synthetic_landscape(monkeypatch, energy)
    assert energy(psi_max) < min(energy(0.0), energy(psi_max / 2))
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(0.8 * psi_max, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(-1.05, abs=1e-12)


def test_minimize_searches_past_a_patched_reach_only(monkeypatch):
    # zero_reach patched to 0.2 psi_max, between the seeds 0 and psi_max/2:
    # a well at 0.3 psi_max, below psi = 0 and missed by the seeds, must
    # still be found, and no energy may be taken inside [0, reach)
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    reach = 0.2 * psi_max
    energy = crossing(c, (0.0, 0.0), (0.3 * psi_max, -0.01))
    solved = synthetic_landscape(monkeypatch, energy)
    tested = []
    unless_above = groundstate.energy_unless_above

    def recorded(params, psi, n_max, t):
        tested.append(psi)
        return unless_above(params, psi, n_max, t)

    monkeypatch.setattr(groundstate, "energy_unless_above", recorded)
    monkeypatch.setattr(groundstate, "zero_reach", lambda params, n_max: reach)
    assert min(energy(psi_max / 2), energy(psi_max)) > energy(0.0)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(0.3 * psi_max, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(-0.01, abs=1e-12)
    assert tested[0] == reach
    assert min(solved + tested) >= reach
