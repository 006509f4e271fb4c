import math
import pickle
from dataclasses import replace

import pytest

from jchm import classify, eigen, groundstate
from jchm.classify import (
    IndeterminatePhaseError,
    PhaseKind,
    PhaseLabel,
    classify_point,
    convergence_probe,
)
from jchm.groundstate import (
    MeanFieldSolution,
    default_n_max,
    minimize_over_psi,
    zero_sectors,
)
from jchm.operators import ModelParams
from jchm.sweep import GridSpec, classify_at, run_grid

from conftest import (
    count_band_builds,
    count_band_solves,
    count_certificates,
    count_factorisations,
    sector_eigs,
    zero_drive_sector_energies,
)


def test_default_n_max():
    assert default_n_max(1) == 40
    assert default_n_max(2) == 40
    assert default_n_max(3) == 24
    assert default_n_max(4) == 24
    with pytest.raises(ValueError):
        default_n_max(0)


def test_phase_label_invariants():
    assert PhaseLabel(PhaseKind.MOTT_INSULATOR, 2).token == "MI:2"
    assert PhaseLabel(PhaseKind.SUPERFLUID).token == "SF"
    assert PhaseLabel(PhaseKind.FORBIDDEN).token == "FORBIDDEN"
    with pytest.raises(ValueError):
        PhaseLabel(PhaseKind.SUPERFLUID, 1)
    with pytest.raises(ValueError):
        PhaseLabel(PhaseKind.MOTT_INSULATOR)
    with pytest.raises(ValueError):
        PhaseLabel(PhaseKind.MOTT_INSULATOR, -1)


def test_probe_vacuum_converges():
    # the probe is the certified psi = 0 state at twice the truncation: the
    # vacuum, held at n_max, so an insulator
    params = ModelParams.resonant(1, 3.0)
    fine = convergence_probe(params, 6)
    assert fine == MeanFieldSolution(0.0, fine.energy, 0.0, 12)
    assert abs(fine.energy) < 1e-12
    assert classify_point(params, 6).token == "MI:0"


def test_probe_detects_unbounded_two_photon_sector():
    # omega < 2 at l=2: energy per excitation approaches omega - 2 < 0, the
    # ground state rides the truncation edge
    params = ModelParams.resonant(2, 1.5)
    coarse, fine = convergence_probe(params, 10), convergence_probe(params, 20)
    assert fine.n_max_used == 40
    assert fine.l_expect >= classify.PIN_FRACTION * fine.n_max_used
    slope = (fine.energy - coarse.energy) / (40 - 20)
    assert slope == pytest.approx(1.5 - 2.0, abs=0.02)


def test_probe_detects_superlinear_three_photon_runaway():
    params = ModelParams.resonant(3, 3.0)
    coarse, fine = convergence_probe(params, 8), convergence_probe(params, 16)
    assert fine.l_expect >= classify.PIN_FRACTION * fine.n_max_used
    assert fine.l_expect == pytest.approx(32.0, abs=0.5)
    # the coupling root overwhelms the linear terms: doubling the truncation
    # much more than doubles the depth, unlike the linear single-photon pin
    ratio = fine.energy / coarse.energy
    assert ratio > 2.5
    assert fine.energy < -100.0


def expected_token(l: int, omega: float, n: int) -> tuple[str, int, float]:
    """The label rule applied to the independent oracle: the lowest sector
    L of the psi = 0 problem at 2 n, FORBIDDEN when L reaches PIN_FRACTION
    of 2 n, INDET when n < L below that, MI:L otherwise; with L and E_L."""
    energies = zero_drive_sector_energies(l, omega, 1.0, 2 * n)
    L = min(range(len(energies)), key=energies.__getitem__)
    if L >= classify.PIN_FRACTION * 2 * n:
        token = "FORBIDDEN"
    elif L > n:
        token = "INDET"
    else:
        token = f"MI:{L}"
    return token, L, energies[L]


@pytest.mark.parametrize("l, omega, token", [
    (1, 2.5, "MI:0"), (1, 1.35, "MI:2"), (1, 1.0646, "INDET"),
    (1, 1.05, "FORBIDDEN"),
    (2, 3.0, "MI:0"), (2, 2.3, "MI:2"), (2, 1.8, "FORBIDDEN"),
    (3, 9.0, "MI:0"), (3, 3.0, "FORBIDDEN"),
])
def test_label_is_the_oracle_sector_at_twice_n_max(l, omega, token):
    # the psi = 0 label, energy and <L> are those of the lowest sector of an
    # independent enumeration at 2 n_max, under the integer rule
    n = default_n_max(l)
    expected, L, energy = expected_token(l, omega, n)
    assert expected == token
    try:
        pt = classify_point(ModelParams.resonant(l, omega, kappa=1e-4))
    except IndeterminatePhaseError as err:
        pt = err.point
        assert pt.note == f"indeterminate: {err}"
    assert pt.token == token
    assert pt.psi_star == 0.0 and pt.n_max_used == 2 * n
    assert pt.l_expect == L
    assert pt.energy == pytest.approx(energy, abs=1e-9 * max(1.0, abs(energy)))
    assert pt.converged == token.startswith("MI:")


def test_classify_vacuum_insulator():
    pt = classify_point(ModelParams.resonant(1, 2.5, kappa=1e-4))
    assert pt.token == "MI:0"
    assert pt.psi_star == 0.0
    assert pt.energy == pytest.approx(0.0, abs=1e-12)
    assert pt.l_expect == pytest.approx(0.0, abs=1e-9)
    assert pt.n_max_used == 80
    assert pt.converged and pt.note == ""


def test_classify_two_photon_lobes():
    assert classify_point(ModelParams.resonant(2, 3.0, kappa=1e-4)).token == "MI:0"
    pt = classify_point(ModelParams.resonant(2, 2.3, kappa=1e-4))
    assert pt.token == "MI:2"
    assert pt.energy == pytest.approx(float(sector_eigs(2, 2, 2.3)[0]), abs=1e-9)


def test_classify_superfluid():
    pt = classify_point(ModelParams.resonant(1, 2.2, kappa=10 ** -0.5))
    assert pt.token == "SF"
    assert pt.psi_star > 1e-3
    assert pt.converged
    assert pt.n_max_used == 40


def test_classify_forbidden_high_photon_orders():
    for l in (3, 4):
        pt = classify_point(ModelParams.resonant(l, float(l), kappa=1e-4))
        assert pt.token == "FORBIDDEN"
        assert pt.psi_star == 0.0
        assert pt.l_expect >= classify.PIN_FRACTION * pt.n_max_used
        assert not pt.converged


def test_classify_forbidden_two_photon_above_lobes():
    # omega < 2 with small hopping: no convergent ground state
    pt = classify_point(ModelParams.resonant(2, 1.8, kappa=1e-4))
    assert pt.token == "FORBIDDEN"


def test_classify_label_matches_sector_argmin():
    # wherever the probe converges, the label must agree with the sector
    # whose oracle energy is lowest at the probed truncation
    for omega in (2.05, 2.2, 2.4, 2.8, 3.2):
        pt = classify_point(ModelParams.resonant(2, omega, kappa=1e-4))
        assert pt.label is not None and pt.label.kind is PhaseKind.MOTT_INSULATOR
        n_used = pt.n_max_used
        energies = {0: 0.0}
        for L in range(2, n_used + 1):
            energies[L] = float(sector_eigs(2, L, omega)[0])
        best = min(energies, key=energies.get)
        assert pt.label.L == best


def test_classify_stable_under_truncation_doubling():
    for base in (40, 80):
        pt = classify_point(ModelParams.resonant(2, 2.3, kappa=1e-4), base)
        assert pt.token == "MI:2"


def test_classify_indeterminate_near_escape():
    # a single-photon lobe with optimum occupation just below the pin
    # threshold: its sector lies beyond n_max, so only 2 n_max holds it
    params = ModelParams.resonant(1, 1.0646, kappa=1e-4)
    with pytest.raises(IndeterminatePhaseError) as exc:
        classify_point(params)
    pt = exc.value.point
    assert pt.token == "INDET" and not pt.converged
    assert 40 < pt.l_expect < classify.PIN_FRACTION * pt.n_max_used
    assert pt.l_expect == round(pt.l_expect)


def test_inconclusive_probe_message_names_n_max():
    # the rule reads 2 n_max, so the remedy is a larger n_max
    with pytest.raises(IndeterminatePhaseError,
                       match=r"^<L> = 60 at n_max = 80 lies above n_max = 40 "
                             r"and below the pin at 64; increase n_max$"):
        classify_point(ModelParams.resonant(1, 1.0646, kappa=1e-6))


def test_non_integer_l_expect_is_indeterminate(monkeypatch):
    # only a band solve at a sector tie returns a non-integer <L>: no MI(L)
    # is guessed for it
    params = ModelParams.resonant(2, 2.3, kappa=1e-4)
    tied = MeanFieldSolution(0.0, -1.0, 2.5, 80)
    monkeypatch.setattr(classify, "convergence_probe", lambda *args: tied)
    with pytest.raises(IndeterminatePhaseError,
                       match=r"^<L> = 2\.5 is not close to an integer "
                             r"\(degenerate sectors"):
        classify_point(params)


def test_errors_survive_pickling():
    # the error carries its point across a process boundary, as a pool
    # worker's exception would
    with pytest.raises(IndeterminatePhaseError) as indet:
        classify_point(ModelParams.resonant(1, 1.0646, kappa=1e-4))
    err = indet.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    assert back.point == err.point


def test_classify_rejects_small_truncation():
    with pytest.raises(ValueError, match="n_max"):
        classify_point(ModelParams.resonant(2, 2.5, kappa=1e-4), 3)


def test_classify_custom_schedule_and_coordinates():
    # the label is read at twice the base truncation
    pt = classify_point(ModelParams.resonant(1, 2.5, kappa=1e-2), 20)
    assert pt.token == "MI:0"
    assert pt.n_max_used == 40
    assert pt.x == pytest.approx(-2.0, abs=1e-12)
    assert pt.y == pytest.approx(1.0 - 2.5, abs=1e-12)


def test_probe_and_minimiser_resolve_their_own_settings():
    # an unset n_max is default_n_max(l), and a too small one is rejected
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    sol = minimize_over_psi(params)
    assert sol.psi_star > 0
    assert sol == minimize_over_psi(params, default_n_max(1))
    assert convergence_probe(params) == convergence_probe(params, 40)
    for step in (minimize_over_psi, convergence_probe):
        with pytest.raises(ValueError, match="^n_max: must be at least"):
            step(params, 2)


@pytest.mark.usefixtures("cold_zero_cache")
@pytest.mark.parametrize("params, token", [
    (ModelParams.resonant(2, 3.0, kappa=1e-4), "MI:0"),
    (ModelParams.resonant(2, 2.3, kappa=1e-4), "MI:2"),
    (ModelParams.resonant(3, 3.0, kappa=1e-4), "FORBIDDEN"),
])
def test_probe_reuses_the_minimiser_psi_zero_solution(monkeypatch, params,
                                                      token):
    # psi = 0 is solved from the sector blocks with no band vector solve,
    # and both levels are read from the minimiser's entry, certified when
    # it is first read: each level once, on a band of its own truncation,
    # the cached band at n and one at 2 n, one pair of band Choleskys each
    dims = count_band_solves(monkeypatch)
    built = count_band_builds(monkeypatch)
    certified = count_certificates(monkeypatch)
    factored = count_factorisations(monkeypatch)
    pt = classify_point(params)
    n = default_n_max(params.l)
    assert pt.token == token
    assert dims == [] and built == [n, 2 * n]
    part, whole = 2 * (n + 1), 2 * (2 * n + 1)
    solution = zero_sectors(params, n).solution
    assert certified == [(part, solution.energy), (whole, pt.energy)]
    assert factored == [part, part, whole, whole]


@pytest.mark.usefixtures("cold_zero_cache")
def test_any_nonzero_psi_star_is_superfluid(monkeypatch):
    # the minimiser returns psi_star > 0 only for a minimum that beats
    # psi = 0 by more than ENERGY_TIE_EPS, so however small psi_star is the
    # point is superfluid and no truncation probe runs
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    sol = replace(minimize_over_psi(params, 20), psi_star=5e-4)
    monkeypatch.setattr(classify, "minimize_over_psi", lambda *args: sol)
    dims = count_band_solves(monkeypatch)
    certified = count_certificates(monkeypatch)
    pt = classify_point(params, 20)
    assert pt.token == "SF" and pt.psi_star == 5e-4
    assert pt.energy == sol.energy and pt.n_max_used == 20
    assert dims == [] and certified == []


@pytest.mark.usefixtures("cold_zero_cache")
@pytest.mark.parametrize("l, x, y, edge", [
    (1, -0.5, 0.0, True),      # a minimum against psi_max
    (1, -0.6, -1.2, False),    # interior minima, polished on the slope
    (3, -0.9, -0.6, False),
])
def test_no_band_is_diagonalised_twice_per_classification(monkeypatch, l,
                                                          x, y, edge):
    # the psi search builds a point's band once, solves it once, for its
    # certified pair, and builds the answer from that pair: no build and no
    # dsbevx call of one classification repeats a band
    bands, built = [], []
    lowest, build = eigen._lowest, groundstate.build_mean_field

    def counted(a):
        bands.append((a.band.shape, a.band.tobytes()))
        return lowest(a)

    def counted_build(*args):
        a = build(*args)
        built.append((a.band.shape, a.band.tobytes()))
        return a

    monkeypatch.setattr(eigen, "_lowest", counted)
    monkeypatch.setattr(groundstate, "build_mean_field", counted_build)
    pt = classify_at(l, x, y)
    assert pt.token == "SF"
    assert (pt.psi_star == math.sqrt(pt.n_max_used) / 2) == edge
    assert bands and len(set(bands)) == len(bands)
    assert built and len(set(built)) == len(built)


# classify_at reprs recorded before settled cells shared their labels: MI,
# FORBIDDEN and INDET (message, then point) read closed-form sector data
RECORDED = {
    (2, -4.0, -0.3): "PhasePoint(x=-4.0, y=-0.3, psi_star=0.0, energy=-0.3727726133558187, l_expect=2.0, label=PhaseLabel(kind=<PhaseKind.MOTT_INSULATOR: 'MI'>, L=2), n_max_used=80, note='')",
    (2, -4.0, 0.2): "PhasePoint(x=-4.0, y=0.2, psi_star=0.0, energy=-16.403521934565887, l_expect=80.0, label=PhaseLabel(kind=<PhaseKind.FORBIDDEN: 'FORBIDDEN'>, L=None), n_max_used=80, note='')",
    (1, -6.0, -0.0646): (
        "'<L> = 60 at n_max = 80 lies above n_max = 40 and below the pin at 64; increase n_max'",
        "PhasePoint(x=-6.0, y=-0.0646, psi_star=0.0, energy=-3.8699666924148364, l_expect=60.0, label=None, n_max_used=80, note='indeterminate: <L> = 60 at n_max = 80 lies above n_max = 40 and below the pin at 64; increase n_max')"),
}
# the SF point's floats come from eigensolves, so a BLAS build may move their
# last digits: its repr is pinned with them zeroed, and they to 1e-12
RECORDED_SF = (
    (1, -1.0, -1.0),
    "PhasePoint(x=-1.0, y=-1.0, psi_star=0.0, energy=0.0, l_expect=0.0, label=PhaseLabel(kind=<PhaseKind.SUPERFLUID: 'SF'>, L=None), n_max_used=40, note='')",
    (0.47978285133921583, -0.034095654610807026, 0.5942612387461532),
)


def test_classify_at_reprs_are_unchanged():
    for (l, x, y), recorded in RECORDED.items():
        try:
            assert repr(classify_at(l, x, y)) == recorded
        except IndeterminatePhaseError as err:
            assert (repr(str(err)), repr(err.point)) == recorded
    at, recorded, floats = RECORDED_SF
    pt = classify_at(*at)
    assert repr(replace(pt, psi_star=0.0, energy=0.0, l_expect=0.0)) == recorded
    assert (pt.psi_star, pt.energy, pt.l_expect) == pytest.approx(floats, rel=1e-12)


def test_shared_labels_equal_fresh_ones():
    # settled cells share one label per phase (per L for MI): each equals,
    # and hashes like, a freshly built label, serially and from a pool
    spec = GridSpec(l=1, x_lo=-4.0, x_hi=-0.5, nx=3, y_lo=-1.4, y_hi=0.2, ny=5)
    serial = list(run_grid(spec, jobs=1).iter_cells())
    assert list(run_grid(spec, jobs=2).iter_cells()) == serial
    assert {pt.token for pt in serial} >= {"MI:0", "MI:1", "SF", "FORBIDDEN"}
    for pt in serial:
        fresh = PhaseLabel(pt.label.kind, pt.label.L)
        assert pt.label == fresh and hash(pt.label) == hash(fresh)
