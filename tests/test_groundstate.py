import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jchm import eigen, groundstate
from jchm.analytic import Branch, SectorSpec, sector_energy
from jchm.classify import convergence_probe
from jchm.eigen import (
    EigensolverError,
    EigPair,
    SymmetricMatrix,
    smallest_eigpair,
    tolerance,
)
from jchm.groundstate import (
    ENERGY_TIE_EPS,
    MARGIN,
    REFINE_TOL,
    MeanFieldSolution,
    energy_at_psi,
    expected_L,
    minimize_over_psi,
    resolve_n_max,
    zero_sectors,
)
from jchm.operators import (
    ModelParams,
    build_l_diag,
    build_mean_field,
    build_mpjc,
)
from jchm.sweep import GridSpec, classify_at, params_for

from conftest import (
    count_band_builds,
    count_band_solves,
    count_certificates,
    count_factorisations,
    zero_drive_ground_oracle,
    zero_drive_sector_energies,
)

ONE_MINUS_SQRT3 = -0.7320508075688772


def zero_reach(params: ModelParams, n_max: int) -> float:
    """The reach h* that params' psi = 0 entry proves at its hopping."""
    return zero_sectors(params, n_max).reach(params.z * params.kappa)


def test_psi_search_spec_validation():
    assert (resolve_n_max(1, None), resolve_n_max(3, None)) == (40, 24)
    assert resolve_n_max(2, 4) == 4
    with pytest.raises(ValueError, match=r"^n_max: must be at least l \+ 2 "
                                         r"= 4, got 3$"):
        resolve_n_max(2, 3)


def test_vacuum_energy_is_zero():
    params = ModelParams.resonant(1, 3.0)
    assert smallest_eigpair(build_mean_field(params, 0.0, 30)).value == (
        pytest.approx(0.0, abs=1e-12))


def test_zero_drive_energy_example():
    # two-photon model at omega = 2: the L=2 sector gives 1 - sqrt(3)
    params = ModelParams.resonant(2, 2.0)
    assert smallest_eigpair(build_mean_field(params, 0.0, 40)).value == (
        pytest.approx(ONE_MINUS_SQRT3, abs=1e-9))


@settings(max_examples=50, deadline=None)
@given(l=st.integers(1, 2), omega=st.floats(2.2, 4.0), mu=st.floats(0.0, 1.0),
       n_extra=st.integers(4, 20))
def test_zero_drive_energy_matches_sector_enumeration(l, omega, mu, n_extra):
    # bounded regime: compare the full matrix against the sector oracle
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=mu)
    expected = zero_drive_ground_oracle(l, omega, mu, l + n_extra)
    got = smallest_eigpair(build_mean_field(params, 0.0, l + n_extra)).value
    assert got == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


@settings(max_examples=30, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.5, 4.0), psi=st.floats(0.0, 2.0),
       kappa=st.floats(0.0, 1.0))
def test_energy_even_in_psi(l, omega, psi, kappa):
    params = ModelParams(l=l, omega=omega, Omega=omega, kappa=kappa)
    plus = smallest_eigpair(build_mean_field(params, psi, l + 12)).value
    minus = smallest_eigpair(build_mean_field(params, -psi, l + 12)).value
    assert abs(plus - minus) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.5, 4.0), mu=st.floats(0.0, 2.0),
       kappa=st.floats(0.0, 1.0), psi=st.floats(0.0, 3.0),
       n_extra=st.integers(2, 40), above=st.booleans(),
       log_gap=st.floats(-9.5, 1.0), width=st.floats(0.0, 2.0))
def test_bounded_energy_is_sound(l, omega, mu, kappa, psi, n_extra, above,
                                 log_gap, width):
    # the rule (energy_at_psi) solves a point only when its energy is at or
    # below the threshold, and then returns bitwise the pair smallest_eigpair
    # returns on the band at psi; any
    # other return is a bound at or above the threshold and below the
    # energy, up to the tolerance every eigenvalue check holds to.  The
    # threshold sits a random distance, never within that tolerance,
    # either side of the energy
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=mu, kappa=kappa)
    n_max = l + n_extra
    solved = smallest_eigpair(build_mean_field(params, psi, n_max))
    energy = solved.value
    gap = 10.0 ** log_gap * max(1.0, abs(energy))
    assert gap > tolerance(energy)
    threshold = energy - gap if above else energy + gap
    value, pair = energy_at_psi(params, psi, n_max, threshold, width)
    if above:
        assert pair is None
        assert threshold <= value < energy + tolerance(energy)
    else:
        assert pair is not None and value.hex() == energy.hex()
        assert pair.value.hex() == energy.hex()
        assert np.array_equal(pair.vector, solved.vector)


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
    sol = zero_sectors(params, n_max).solution
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


@pytest.mark.usefixtures("cold_zero_cache")
def test_sector_tie_falls_back_to_the_band_solve(monkeypatch):
    # at l = 2, omega = (3 + sqrt 5)/2 the L = 2 sector ties with the
    # vacuum to rounding at both levels: the sectors cannot say which state
    # dsbevx picks, so each level's band is solved, both when the key is
    # first read, and its answer returned unchanged; the entry assembles
    # its own 2 n_max band, and the n_max level is solved on the cached
    # n_max band
    params = ModelParams.resonant(2, (3.0 + math.sqrt(5.0)) / 2.0)
    n_max = 40
    pairs = [smallest_eigpair(build_mean_field(params, 0.0, n))
             for n in (n_max, 2 * n_max)]
    assert abs(pairs[0].value) < 1e-14
    groundstate._sectors.cache_clear()
    built = count_band_builds(monkeypatch)
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return smallest_eigpair(*args, **kwargs)

    monkeypatch.setattr(groundstate, "smallest_eigpair", counted)
    sectors = zero_sectors(params, n_max)
    assert calls == [2 * (n_max + 1), 2 * (2 * n_max + 1)]
    assert built == [2 * n_max]
    for level, pair, n in ((sectors.solution, pairs[0], n_max),
                           (sectors.fine, pairs[1], 2 * n_max)):
        assert level.energy == pair.value
        assert level.l_expect == expected_L(pair.vector, 2)
        assert level.psi_star == 0.0 and level.n_max_used == n


@pytest.mark.usefixtures("cold_zero_cache")
def test_psi_zero_solution_is_certified_once_per_key(monkeypatch):
    # every kappa shares the psi = 0 entry of its key, read-only: one
    # 2 n_max band, and, as both levels share their lowest sector (MI:2),
    # one pair of band Choleskys that certifies both when it is first read
    built = count_band_builds(monkeypatch)
    certified = count_certificates(monkeypatch)
    factored = count_factorisations(monkeypatch)
    entry = zero_sectors(ModelParams.resonant(2, 2.3, kappa=1e-4), 40)
    first, fine = entry.solution, entry.fine
    assert first.l_expect == 2.0
    assert built == [80]
    assert certified == [(162, first.energy, (82, 162))]
    assert factored == [162, 82]
    for kappa in (0.0, 1e-2, 0.3):
        params = ModelParams.resonant(2, 2.3, kappa=kappa)
        assert zero_sectors(params, 40) is entry
        zero_reach(params, 40)
    assert fine == MeanFieldSolution(0.0, first.energy, 2.0, 80)
    assert built == [80] and len(certified) == 1 and len(factored) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.fine = first
    # another truncation is another key
    zero_sectors(ModelParams.resonant(2, 2.3), 80)
    assert built == [80, 160]
    assert len(certified) == 2 and len(factored) == 4


@pytest.mark.usefixtures("cold_zero_cache")
def test_levels_with_different_lowest_sectors_are_certified_apart(
        monkeypatch):
    # at l = 1, omega = 1.0646 the 2 n_max argmin, L = 60, lies above
    # n_max = 40: each level is certified at its own value when the key is
    # first read, the n_max level on the leading part of the one 2 n_max
    # band and the 2 n_max level on the whole band
    params = ModelParams.resonant(1, 1.0646, kappa=1e-6)
    built = count_band_builds(monkeypatch)
    certified = count_certificates(monkeypatch)
    entry = zero_sectors(params, 40)
    sol, fine = entry.solution, entry.fine
    assert fine.l_expect == 60.0 and sol.l_expect <= 40
    assert fine.energy < sol.energy
    assert certified == [(162, sol.energy, (82,)), (162, fine.energy, ())]
    assert zero_sectors(params, 40) is entry
    assert len(certified) == 2 and built == [80]


@pytest.mark.parametrize("params", [
    ModelParams.resonant(2, 2.3),        # MI:2, levels share the sector
    ModelParams.resonant(3, 3.0),        # forbidden, levels differ
])
def test_planted_wrong_sector_fails_the_certificate(monkeypatch, params):
    # the n_max level handed its second-lowest sector energy, as a wrong
    # argmin would, must fail the inertia certificate, not be cached
    lowest = groundstate._lowest_sector
    planted = []

    def second(energies):
        L, value, following, tied = lowest(energies)
        if planted:
            return L, value, following, tied
        planted.append(following)
        return L, following, following, False

    groundstate._sectors.cache_clear()
    monkeypatch.setattr(groundstate, "_lowest_sector", second)
    with pytest.raises(EigensolverError,
                       match="not certified: an eigenvalue lies below"):
        zero_sectors(params, groundstate.default_n_max(params.l))
    assert planted and groundstate._sectors.cache_info().currsize == 0


def psi_zero_reference(params: ModelParams, n: int) -> MeanFieldSolution:
    """The certified psi = 0 solution at truncation n from a band of its own,
    build_mpjc less mu L: its lowest closed-form sector energy certified on
    that band, or that band's solve at a sector tie."""
    l = params.l
    band = build_mpjc(params, n).band
    if params.mu != 0.0:
        band[0] -= params.mu * build_l_diag(l, n)
    exc, gnd = band[0, 1::2], band[0, 0::2]
    k = n - l + 1
    half = 0.5 * (exc[:k] - gnd[l:])
    root = np.hypot(half, band[2 * l - 1, 1:2 * k:2])
    energies = np.concatenate((gnd[:l], 0.5 * (exc[:k] + gnd[l:]) - root,
                               exc[k:]))
    low = sorted(energies.tolist())
    a = SymmetricMatrix(band)
    if low[1] - low[0] <= tolerance(low[0]):
        pair = smallest_eigpair(a)
        return MeanFieldSolution(0.0, pair.value, expected_L(pair.vector, l), n)
    eigen.certify_smallest(a, low[0])
    return MeanFieldSolution(0.0, low[0], float(energies.argmin()), n)


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.2, 4.0),
       delta=st.floats(-1.0, 1.0), mu=st.floats(0.0, 3.0),
       n_extra=st.integers(2, 40))
# the l = 2 sector tie of test_sector_tie_falls_back_to_the_band_solve, and
# the edge state |e,3> of test_sector_solution_matches_the_band_solve
@example(l=2, omega=(3.0 + math.sqrt(5.0)) / 2.0, delta=0.0, mu=1.0,
         n_extra=38)
@example(l=1, omega=0.2, delta=-1.0, mu=2.75, n_extra=2)
def test_both_levels_match_a_reference_per_level(l, omega, delta, mu,
                                                 n_extra):
    # one entry per key gives, bit for bit, what each level's own band
    # gives: the entry's solution at n and the probe at 2 n
    assume(omega - delta > 0.0)
    params = ModelParams(l=l, omega=omega, Omega=omega - delta, mu=mu)
    n = l + n_extra
    assert repr(zero_sectors(params, n).solution) == repr(psi_zero_reference(params, n))
    assert repr(convergence_probe(params, n)) == repr(
        psi_zero_reference(params, 2 * n))


def test_psi_zero_certificate_is_keyed_by_the_tolerance(monkeypatch):
    # a cached certificate holds at the tolerance it was proven at: under
    # one below rounding the same key is certified afresh, and fails
    params = ModelParams.resonant(2, 2.3, kappa=1e-4)
    zero_sectors(params, 40).solution
    monkeypatch.setattr(eigen, "TOL", 1e-17)
    with pytest.raises(EigensolverError, match="not certified"):
        zero_sectors(params, 40).solution


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
    reach = zero_reach(params, n_max)
    assert reach >= 0.0
    floor = zero_sectors(params, n_max).solution.energy - ENERGY_TIE_EPS
    top = min(reach, math.sqrt(n_max))             # at most 2 psi_max
    for f in [1.0] + fractions:
        pair = smallest_eigpair(build_mean_field(params, f * top, n_max))
        assert pair.value > floor


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.2, 4.0),
       delta=st.floats(-1.0, 1.0), mu=st.floats(0.0, 3.0), z=st.integers(1, 6),
       f=st.floats(0.0, 1.0), n_extra=st.integers(2, 40),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=6))
# the MI(1) point of test_minimize_single_occupancy_insulator, 0 < h* < psi_max
@example(l=1, omega=1.7, delta=0.0, mu=1.0, z=2, f=1.0, n_extra=38,
         fractions=[0.5, 0.99])
def test_insulating_hopping_is_sound(l, omega, delta, mu, z, f, n_extra,
                                     fractions):
    # at every hopping c = f c_ins up to the entry's threshold c_ins, every
    # energy at psi in [0, 2 psi_max] lies above the psi = 0 energy less
    # ENERGY_TIE_EPS; psi_max, 2 psi_max and f = 1 are sampled too
    assume(omega - delta > 0.0)
    n_max = l + n_extra
    key = ModelParams(l=l, omega=omega, Omega=omega - delta, mu=mu, z=z)
    entry = zero_sectors(key, n_max)
    assert entry.c_ins >= 0.0
    floor = entry.solution.energy - ENERGY_TIE_EPS
    top = math.sqrt(n_max)                          # 2 psi_max
    for share in (f, 1.0):
        params = dataclasses.replace(key, kappa=share * entry.c_ins / z)
        for psi in [0.0, top / 2, top] + [g * top for g in fractions]:
            pair = smallest_eigpair(build_mean_field(params, psi, n_max))
            assert pair.value > floor


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4), omega=st.floats(0.2, 4.0),
       delta=st.floats(-1.0, 1.0), mu=st.floats(0.0, 3.0), z=st.integers(1, 6),
       log_kappa=st.floats(-5.0, 0.0), n_extra=st.integers(2, 40))
# the MI(1) point of test_zero_reach_is_sound, and a deep MI:0 point whose
# reach covers psi_max
@example(l=1, omega=1.7, delta=0.0, mu=1.0, z=2, log_kappa=-1.3, n_extra=38)
@example(l=1, omega=2.7, delta=0.0, mu=1.0, z=2, log_kappa=-4.0, n_extra=38)
def test_a_reach_over_psi_max_lies_below_the_threshold(l, omega, delta, mu, z,
                                                       log_kappa, n_extra):
    # N <= n_max turns the reach's proof over [0, psi_max] into both
    # conditions of the threshold, so no cell loses its early exit
    assume(omega - delta > 0.0)
    params = ModelParams(l=l, omega=omega, Omega=omega - delta, mu=mu,
                         kappa=10.0 ** log_kappa, z=z)
    n_max = l + n_extra
    if zero_reach(params, n_max) >= math.sqrt(n_max) / 2:
        assert params.z * params.kappa <= zero_sectors(params, n_max).c_ins


def test_insulating_hopping_pins():
    # l = 1 at resonance, omega = 2.2: the vacuum (MI:0) drives only into
    # sector 1, whose two roots E-+ each hold half of |g,1>, so the exact
    # second-order edge is 1 / (1/(2 E-) + 1/(2 E+)); the threshold is half
    # of it, as the photon-number bound doubles the drive's weight
    vacuum = zero_sectors(ModelParams.resonant(1, 2.2), 40)
    assert vacuum.solution.l_expect == 0.0
    spec = SectorSpec(l=1, L=1, omega=2.2, Omega=2.2)
    lower, upper = (sector_energy(spec, branch)
                    for branch in (Branch.MINUS, Branch.PLUS))
    edge = 1.0 / (0.5 / lower + 0.5 / upper)
    assert vacuum.c_ins == pytest.approx(edge / 2, rel=1e-8)
    # a sector tie is not certified (test_zero_reach_pins)
    tied = ModelParams.resonant(2, (3.0 + math.sqrt(5.0)) / 2.0, kappa=1e-4)
    assert zero_sectors(tied, 40).c_ins == 0.0
    # the MI(1) point of test_minimize_opens_a_partly_proven_insulator_at_
    # the_reach lies above its threshold, so it still opens at the reach
    mi1 = ModelParams.resonant(1, 1.7, kappa=10 ** -1.3)
    assert zero_sectors(mi1, 40).c_ins == pytest.approx(0.0885, abs=1e-4)
    assert zero_sectors(mi1, 40).c_ins < mi1.z * mi1.kappa


def certified_at(params: ModelParams, n_max: int, c: float) -> bool:
    """Both conditions of the hopping threshold at c, from a dense
    eigendecomposition of H0: Q (H0 - c N - floor) Q is positive
    semidefinite on the complement of the psi = 0 state |0>, and
    c <x| (that block)^-1 |x> <= 1 for x = (a + a+)|0>, with floor =
    E0 - ENERGY_TIE_EPS + MARGIN."""
    values, vectors = np.linalg.eigh(build_mean_field(params, 0.0, n_max)
                                     .dense())
    photons = np.diag(np.repeat(np.arange(n_max + 1.0), 2))
    a = np.diag(np.repeat(np.sqrt(np.arange(1.0, n_max + 1.0)), 2), 2)
    rest = vectors[:, 1:]
    floor = values[0] - ENERGY_TIE_EPS + MARGIN
    block = (np.diag(values[1:] - floor) - c * rest.T @ photons @ rest)
    if np.linalg.eigvalsh(block)[0] < 0.0:
        return False
    x = rest.T @ (a + a.T) @ vectors[:, 0]
    return c * float(x @ np.linalg.solve(block, x)) <= 1.0


@pytest.mark.parametrize("l, x, y", [
    (1, -2.5, -1.1), (1, -1.5, -0.7), (1, -1.5, 0.3), (2, -2.0, -0.5),
    (2, -2.0, -0.9), (2, -2.5, 0.1), (3, -1.5, -0.8), (4, -1.0, -1.0),
])
def test_insulating_hopping_is_the_largest_certified_hopping(l, x, y):
    # the closed form against a dense route: both conditions hold just below
    # the threshold and one fails just above it.  At (2, -2.0, -0.9), MI:0,
    # a sector the drive does not reach from |0> turns indefinite first
    # (i); elsewhere c S reaches 1 first (ii)
    params = params_for(l, x, y)
    n_max = resolve_n_max(l, None)
    entry = zero_sectors(params, n_max)
    assert not entry.tied and entry.c_ins > 0.0
    assert certified_at(params, n_max, entry.c_ins * (1.0 - 1e-6))
    assert not certified_at(params, n_max, entry.c_ins * (1.0 + 1e-6))


def test_a_certified_insulator_builds_no_band(monkeypatch):
    # validate's MI:0 cell (l, x, y) = (1, -2.5, -1.1): its reach stops
    # short of psi_max, but its hopping lies below the entry's threshold,
    # so once the entry is read the cell builds no mean-field band and
    # runs no band Cholesky
    params = params_for(1, -2.5, -1.1)
    entry = zero_sectors(params, 40)
    c = params.z * params.kappa
    assert entry.reach(c) < math.sqrt(40) / 2 and c <= entry.c_ins
    built = []
    monkeypatch.setattr(groundstate, "build_mean_field",
                        lambda *args: built.append(args))
    factored = count_factorisations(monkeypatch)
    assert classify_at(1, -2.5, -1.1).token == "MI:0"
    assert built == [] and factored == []


def test_zero_reach_pins():
    psi_max = math.sqrt(40) / 2
    # a deep insulator is proven over all of [0, psi_max]
    assert zero_reach(ModelParams.resonant(1, 2.7, kappa=1e-4),
                                  40) >= psi_max
    # zero hopping: the energy is E0 at every psi
    assert zero_reach(ModelParams.resonant(1, 2.2), 40) == math.inf
    # a sector tie is not certified (test_sector_tie_falls_back...)
    tied = ModelParams.resonant(2, (3.0 + math.sqrt(5.0)) / 2.0, kappa=1e-4)
    assert zero_reach(tied, 40) == 0.0
    # a superfluid whose second-order coefficient a2, from the full sum over
    # a dense eigendecomposition, is negative: nothing is proven
    sf = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    c = sf.z * sf.kappa
    values, vectors = np.linalg.eigh(build_mean_field(sf, 0.0, 40).dense())
    x = np.diag(np.repeat(np.sqrt(np.arange(1.0, 41.0)), 2), 2)
    amps = vectors.T @ (x + x.T) @ vectors[:, 0]
    a2 = c - c * c * np.sum(amps[1:] ** 2 / (values[1:] - values[0]))
    assert a2 < 0.0
    assert zero_reach(sf, 40) == 0.0


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


@pytest.mark.parametrize("params, n_max, depth", [
    pytest.param(ModelParams.resonant(1, 2.2, kappa=10 ** -0.5), 40, 1e-4,
                 id="resonant"),
    # interior superfluids: two near lobe edges, whose minimum lies barely
    # below psi = 0, two flat minima and a deep one
    pytest.param(params_for(1, -1.132, -0.7), 40, ENERGY_TIE_EPS,
                 id="l1-edge-y-0.7"),
    pytest.param(params_for(1, -0.73671875, -1.2), 40, ENERGY_TIE_EPS,
                 id="l1-edge-y-1.2"),
    pytest.param(params_for(2, -2.8125, 0.12), 40, ENERGY_TIE_EPS,
                 id="l2-flat"),
    pytest.param(params_for(3, -1.0075, -0.618), 24, ENERGY_TIE_EPS,
                 id="l3-flat"),
    pytest.param(params_for(3, -0.9794, -1.2821), 24, ENERGY_TIE_EPS,
                 id="l3-deep"),
])
def test_minimize_superfluid(params, n_max, depth):
    psi_max = math.sqrt(n_max) / 2
    sol = minimize_over_psi(params, n_max)
    assert sol.psi_star > 1e-3
    assert sol.energy < smallest_eigpair(
        build_mean_field(params, 0.0, n_max)).value - depth
    # the reported energy beats (or ties) every energy of an independent
    # 401-point scan
    for psi in np.linspace(0.0, psi_max, 401):
        pair = smallest_eigpair(build_mean_field(params, psi, n_max))
        assert sol.energy <= pair.value + ENERGY_TIE_EPS + 1e-9


def slope_at(params: ModelParams, psi: float, n_max: int) -> float:
    """E'(psi) = z kappa (2 psi - <a + a+>) by Hellmann-Feynman, with the
    vector from smallest_eigpair and a + a+ written out densely here."""
    vector = smallest_eigpair(build_mean_field(params, psi, n_max)).vector
    x = np.diag(np.repeat(np.sqrt(np.arange(1.0, n_max + 1.0)), 2), 2)
    c = params.z * params.kappa
    return c * (2.0 * psi - vector @ (x + x.T) @ vector)


def stationary(params: ModelParams, n_max: int,
               sol: MeanFieldSolution) -> bool:
    """Whether an interior minimiser is a root of the slope to within
    2 z kappa REFINE_TOL.  g is concave, so E'' <= 2 z kappa everywhere,
    and a point within REFINE_TOL of the root can miss it by no more."""
    assert 0.0 < sol.psi_star < math.sqrt(n_max) / 2
    bound = 2.0 * params.z * params.kappa * REFINE_TOL
    return abs(slope_at(params, sol.psi_star, n_max)) <= bound


def test_interior_superfluid_minima_are_stationary():
    # every interior superfluid of 300 seeded points in the default windows
    # (75 per l) is a root of the slope, by the independent vector route
    rng = np.random.default_rng(2024)
    interior = 0
    for l in (1, 2, 3, 4):
        spec = GridSpec.default(l)
        n_max = resolve_n_max(l, None)
        for _ in range(75):
            params = params_for(l, rng.uniform(spec.x_lo, spec.x_hi),
                                rng.uniform(spec.y_lo, spec.y_hi))
            sol = minimize_over_psi(params, n_max)
            if sol.psi_star > 0.0 and not sol.at_psi_max:
                interior += 1
                assert stationary(params, n_max, sol)
    assert interior >= 10


@pytest.mark.parametrize("l, x, y, n_max", [
    # two flat minima whose psi_star, fixed by energies alone, moved by
    # 1.8e-5 and 3.0e-5 when only the order of evaluation changed
    (2, -2.8125, 0.12, 40),
    (3, -1.0075, -0.618, 24),
])
def test_flat_superfluid_minima_are_stationary(l, x, y, n_max):
    params = params_for(l, x, y)
    assert stationary(params, n_max, minimize_over_psi(params, n_max))


def test_minimize_monotone_in_truncation():
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    e_small = minimize_over_psi(params, 30).energy
    e_large = minimize_over_psi(params, 60).energy
    assert e_large <= e_small + 1e-9


def test_minimize_reports_bracket_exhaustion():
    # z kappa = 2 exceeds the large-L slope omega - 1 = 1.2, so the energy
    # falls without bound as psi grows: the minimum sits at the edge
    # psi_max = sqrt(n_max)/2 of every truncation and must be reported as
    # the edge solution, flagged at_psi_max
    params = ModelParams.resonant(1, 2.2, kappa=1.0)
    sol = minimize_over_psi(params, 30)
    assert sol.at_psi_max
    assert sol.psi_star == pytest.approx(math.sqrt(30) / 2, abs=2e-6)
    assert sol.energy < 0.0 and sol.n_max_used == 30


@pytest.mark.usefixtures("cold_zero_cache")
def test_minimize_runaway_solves_the_edge_only(monkeypatch):
    # the runaway point of test_minimize_reports_bracket_exhaustion: psi_max
    # is solved first and becomes the incumbent, unpolished, and the steep
    # fall into the edge prunes the one opening interval at once, so the
    # edge is reported exactly after 1 band solve, whose pair is the
    # reported solution
    solves = count_band_solves(monkeypatch)
    sol = minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=1.0), 30)
    assert sol.at_psi_max and sol.psi_star == math.sqrt(30) / 2
    assert solves == [2 * (30 + 1)]


def test_at_psi_max_is_the_edge_test_of_the_search():
    # psi_star within 2 REFINE_TOL of psi_max = sqrt(n_max_used)/2, by the
    # same float arithmetic, and never at psi = 0
    edge = math.sqrt(30) / 2.0 - 2.0 * REFINE_TOL

    def at(psi):
        return MeanFieldSolution(psi, -1.0, 0.0, 30).at_psi_max

    assert at(edge)
    assert not at(math.nextafter(edge, 0.0))
    assert not at(0.0)


def test_minimize_l_expect_lies_within_the_truncation():
    params = ModelParams.resonant(2, 2.3, kappa=0.05)
    sol = minimize_over_psi(params, 30)
    assert 0.0 <= sol.l_expect <= 30 + 2


@pytest.mark.usefixtures("cold_zero_cache")
@pytest.mark.parametrize("kappa, vector_solves", [(1e-4, 1), (10 ** -0.5, 2)])
def test_minimize_solves_with_vectors_only_where_used(monkeypatch, kappa,
                                                       vector_solves):
    # psi = 0 is read once, from one entry of sector data with no band
    # eigensolve, and returned for an insulator.  The deep insulator lies
    # below its entry's hopping threshold and builds no
    # mean-field band at all.  The superfluid, tested before solving, takes one cold solve:
    # its split point is solved once, for its pair, from which the
    # polish on the slope starts, and every later point is solved warm from
    # the last pair, 7 evaluations in all; it reports its own best pair, so
    # psi_star is not solved again
    calls = {"build": 0, "warm": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groundstate, "build_mean_field",
                        counted("build", groundstate.build_mean_field))
    monkeypatch.setattr(groundstate, "warm_eigpair",
                        counted("warm", groundstate.warm_eigpair))
    # every dsbevx call, the warm solve's fallback to it included
    solves = count_band_solves(monkeypatch)
    sol = minimize_over_psi(ModelParams.resonant(1, 2.2, kappa=kappa), 40)
    assert (sol.psi_star > 0) == (vector_solves == 2)
    lookups = groundstate._sectors.cache_info()
    assert lookups.hits + lookups.misses == 1
    assert len(solves) == vector_solves - 1
    if vector_solves == 1:
        assert calls["build"] == calls["warm"] == 0
    else:
        assert len(solves) + calls["warm"] <= 7


@pytest.mark.usefixtures("cold_zero_cache")
def test_minimize_opens_a_partly_proven_insulator_at_the_reach(monkeypatch):
    # the MI(1) point of test_minimize_single_occupancy_insulator: its
    # entry's reach proves psi = 0 over [0, h*] with 0 < h* < psi_max, so
    # the search opens on [h*, psi_max] and the cascade toward psi = 0 is
    # skipped, and
    # every point the search evaluates is bounded by band Choleskys: no
    # band solve, and no matrix built below h*
    params = ModelParams.resonant(1, 1.7, kappa=10 ** -1.3)
    reach = zero_reach(params, 40)
    assert 0.0 < reach < math.sqrt(40) / 2
    assert zero_sectors(params, 40).c_ins < params.z * params.kappa
    built = []

    def counted(params, psi, n_max):
        built.append(psi)
        return build_mean_field(params, psi, n_max)

    monkeypatch.setattr(groundstate, "build_mean_field", counted)
    solves = count_band_solves(monkeypatch)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == 0.0 and sol.l_expect == 1.0
    assert solves == []
    assert min(built) == reach


@pytest.mark.usefixtures("cold_zero_cache")
def test_minimize_bounds_a_near_critical_insulator_without_solving(
        monkeypatch):
    # an MI(1) point just inside its lobe edge, where the energy is flattest
    # near psi = 0 and its entry's reach proves nothing: the branch and bound
    # splits down toward psi = 0, and every point it evaluates is proven
    # above the pruning threshold by band Choleskys, so no band solve runs
    params = params_for(1, -1.1328125, -0.7)
    assert zero_reach(params, 40) == 0.0
    solves = count_band_solves(monkeypatch)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == 0.0 and sol.l_expect == 1.0
    assert solves == []


def synthetic_landscape(monkeypatch, energy, slope,
                        reach: float = 0.0) -> list[float]:
    """Make minimize_over_psi see energy(psi) and its slope alone, through
    every seam it solves or tests by: the cold solve (smallest_eigpair),
    the psi = 0 entry (zero_sectors: its solution, its hopping threshold
    pinned at 0, so that no hopping skips the search, and its reach proving
    reach), the polish's slope (_slope) and warm steps (_slope_point) and the band
    Cholesky of the rule (energy_at_psi).  The real Hamiltonian is never built: build_mean_field
    hands the rule psi itself, its Cholesky of A - t I succeeds when
    energy(psi) > t, and its solve of A is the pair at psi.  Returns the psi
    of every cold solve and warm polish step, in order."""
    solved = []

    def pair_at(psi):
        # a one-site vector: expected_L reads L = 0 from it
        solved.append(psi)
        return EigPair(value=energy(psi), vector=np.zeros(4))

    def zero(params, n_max):
        solution = MeanFieldSolution(psi_star=0.0, energy=energy(0.0),
                                     l_expect=0.0, n_max_used=n_max)
        return SimpleNamespace(solution=solution, c_ins=0.0,
                               reach=lambda c: reach)

    def no_solve(*args, **kwargs):
        raise AssertionError("a synthetic landscape solves no matrix")

    monkeypatch.setattr(groundstate, "smallest_eigpair", pair_at)
    monkeypatch.setattr(groundstate, "zero_sectors", zero)
    monkeypatch.setattr(groundstate, "_slope",
                        lambda params, psi, pair: slope(psi))
    monkeypatch.setattr(groundstate, "_slope_point",
                        lambda params, psi, n_max, previous:
                        (pair_at(psi), slope(psi)))
    monkeypatch.setattr(groundstate, "build_mean_field",
                        lambda params, psi, n_max: psi)
    monkeypatch.setattr(groundstate, "_positive_definite",
                        lambda psi, t: energy(psi) > t)
    monkeypatch.setattr(eigen, "_lowest", no_solve)
    return solved


def crossing(c, *wells):
    """E = min over the (p, e) wells of c (psi - p)^2 + e: c psi^2 plus a
    minimum of lines, concave in its second term as the true energy is.
    Returns E and its slope 2 c (psi - p) in the well whose line is lowest."""
    def line(psi, p, e):
        return -2 * c * p * psi + c * p * p + e

    def energy(psi):
        return c * psi * psi + min(line(psi, p, e) for p, e in wells)

    def slope(psi):
        p, _ = min(wells, key=lambda well: line(psi, *well))
        return 2 * c * (psi - p)
    return energy, slope


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

    energy, slope = crossing(c, (psi1, e1), (psi2, e2))
    synthetic_landscape(monkeypatch, energy, slope)
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
    # psi_max is solved first and becomes the incumbent, unpolished, so
    # the cold solve runs there only; the heap's tests settle the rest, and
    # the edge is reported exactly
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    energy, slope = crossing(c, (0.3 * psi_max, -0.5), (1.2 * psi_max, -1.5))
    solved = synthetic_landscape(monkeypatch, energy, slope)
    sol = minimize_over_psi(params, 40)
    assert solved == [psi_max]
    assert sol.at_psi_max
    assert sol.psi_star == psi_max and sol.energy == energy(psi_max)
    assert min(energy(p) for p in np.linspace(0.0, psi_max, 1001)) == (
        energy(psi_max))


def test_minimize_bounds_find_a_well_below_an_edge_incumbent(monkeypatch):
    # psi_max is the first incumbent and is not polished, but a deeper well
    # at 0.8 psi_max, above psi = 0 and psi_max/2, lies below it: the chord
    # bounds of the opening interval must still lead the heap to it
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    energy, slope = crossing(c, (0.8 * psi_max, -1.05), (1.2 * psi_max, -1.2))
    synthetic_landscape(monkeypatch, energy, slope)
    assert energy(psi_max) < min(energy(0.0), energy(psi_max / 2))
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(0.8 * psi_max, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(-1.05, abs=1e-12)


def test_minimize_searches_past_a_patched_reach_only(monkeypatch):
    # the reach patched to 0.2 psi_max: a well at 0.3 psi_max, below
    # psi = 0 while psi_max/2 and psi_max lie above it, must still be found,
    # and no energy may be taken inside [0, reach)
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    reach = 0.2 * psi_max
    energy, slope = crossing(c, (0.0, 0.0), (0.3 * psi_max, -0.01))
    solved = synthetic_landscape(monkeypatch, energy, slope, reach)
    tested = []
    rule = groundstate.energy_at_psi

    def recorded(params, psi, n_max, threshold, width):
        tested.append(psi)
        return rule(params, psi, n_max, threshold, width)

    monkeypatch.setattr(groundstate, "energy_at_psi", recorded)
    assert min(energy(psi_max / 2), energy(psi_max)) > energy(0.0)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(0.3 * psi_max, abs=REFINE_TOL)
    assert sol.energy == pytest.approx(-0.01, abs=1e-12)
    # psi_max comes first, then the opening at the reach
    assert tested[:2] == [psi_max, reach]
    assert min(solved + tested) >= reach


def test_minimize_never_takes_a_bound_as_the_incumbent(monkeypatch):
    # two wells whose depths differ by MARGIN/2: the one at 0.75 psi_max
    # becomes the incumbent first, and the deeper one at 0.25 psi_max
    # cannot beat it by MARGIN, so its points are bounded, not solved.  A
    # bound there lies below the incumbent's energy but is no energy of any
    # point: it must not replace the incumbent
    params = ModelParams.resonant(1, 2.2, kappa=0.5)
    c = params.z * params.kappa
    psi_max = math.sqrt(40) / 2
    energy, slope = crossing(c, (0.75 * psi_max, -1.0),
                             (0.25 * psi_max, -1.0 - MARGIN / 2))
    solved = synthetic_landscape(monkeypatch, energy, slope)
    bounds = []
    rule = groundstate.energy_at_psi

    def recorded(params, psi, n_max, threshold, width):
        value, pair = rule(params, psi, n_max, threshold, width)
        if pair is None:
            bounds.append((psi, value))
        return value, pair

    monkeypatch.setattr(groundstate, "energy_at_psi", recorded)
    sol = minimize_over_psi(params, 40)
    assert sol.psi_star == pytest.approx(0.75 * psi_max, abs=REFINE_TOL)
    assert sol.energy == energy(sol.psi_star)
    assert energy(0.25 * psi_max) < sol.energy
    assert any(value < sol.energy for _, value in bounds)
    assert 0.25 * psi_max not in solved
