import pytest

from jchm import classify, eigen, groundstate
from jchm.classify import (
    IndeterminatePhaseError,
    PhaseKind,
    PhaseLabel,
    classify_point,
    convergence_probe,
)
from jchm.groundstate import default_n_max, minimize_over_psi
from jchm.operators import ModelParams

from conftest import sector_eigs


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
    params = ModelParams.resonant(1, 3.0)
    report = convergence_probe(params, 6)
    assert report.n_max_sequence == (6, 12)
    assert report.converged
    assert not report.pinned_at_truncation
    assert all(abs(e) < 1e-12 for e in report.energies)
    assert all(abs(v) < 1e-9 for v in report.l_expects)


def test_probe_detects_unbounded_two_photon_sector():
    # omega < 2 at l=2: energy per excitation approaches omega - 2 < 0, the
    # ground state rides the truncation edge
    params = ModelParams.resonant(2, 1.5)
    report = convergence_probe(params, 20)
    assert report.pinned_at_truncation
    assert not report.converged
    slope = (report.energies[1] - report.energies[0]) / (40 - 20)
    assert slope == pytest.approx(1.5 - 2.0, abs=0.02)


def test_probe_detects_superlinear_three_photon_runaway():
    params = ModelParams.resonant(3, 3.0)
    report = convergence_probe(params, 16)
    assert report.pinned_at_truncation
    assert report.l_expects[1] == pytest.approx(32.0, abs=0.5)
    # the coupling root overwhelms the linear terms: doubling the truncation
    # much more than doubles the depth, unlike the linear single-photon pin
    ratio = report.energies[1] / report.energies[0]
    assert ratio > 2.5
    assert report.energies[1] < -100.0


def test_classify_vacuum_insulator():
    pt = classify_point(ModelParams.resonant(1, 2.5, kappa=1e-4))
    assert pt.token == "MI:0"
    assert pt.psi_star == 0.0
    assert pt.energy == pytest.approx(0.0, abs=1e-12)
    assert pt.l_expect == pytest.approx(0.0, abs=1e-9)
    assert pt.n_max_used == 80
    assert pt.converged
    assert pt.report is not None and not pt.report.pinned_at_truncation


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
        assert pt.report is not None and pt.report.pinned_at_truncation


def test_classify_forbidden_two_photon_above_lobes():
    # omega < 2 with small hopping: no convergent ground state
    pt = classify_point(ModelParams.resonant(2, 1.8, kappa=1e-4))
    assert pt.token == "FORBIDDEN"


def test_forbidden_wins_over_loose_convergence(monkeypatch):
    # an enormous TOL_CONV makes the probe "converged", but a pinned <L>
    # must still be called forbidden
    monkeypatch.setattr(classify, "TOL_CONV", 1e6)
    pt = classify_point(ModelParams.resonant(2, 1.5, kappa=1e-4))
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
    # threshold: level one cannot see it, level two is not yet converged
    params = ModelParams.resonant(1, 1.0646, kappa=1e-4)
    with pytest.raises(IndeterminatePhaseError) as exc:
        classify_point(params)
    assert exc.value.report is not None
    assert not exc.value.report.converged
    assert not exc.value.report.pinned_at_truncation


def test_inconclusive_probe_message_names_n_max():
    # the probe always runs (n_max, 2 n_max), so the remedy is a larger n_max
    with pytest.raises(IndeterminatePhaseError, match="increase n_max"):
        classify_point(ModelParams.resonant(1, 1.0646, kappa=1e-6))


def test_classify_rejects_small_truncation():
    with pytest.raises(ValueError, match="n_max"):
        classify_point(ModelParams.resonant(2, 2.5, kappa=1e-4), 3)


def test_classify_custom_schedule_and_coordinates():
    # the probe schedule follows the base truncation: (n_max, 2 n_max)
    pt = classify_point(ModelParams.resonant(1, 2.5, kappa=1e-2), 20)
    assert pt.token == "MI:0"
    assert pt.report.n_max_sequence == (20, 40)
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


def count_vector_solves(monkeypatch) -> tuple[list[int], list[int]]:
    """Dimensions of the band vector solves (smallest_eigpair) and
    truncations of the psi = 0 sector solves made from here on."""
    dims: list[int] = []
    sectors: list[int] = []
    original = eigen.smallest_eigpair
    sector_solution = groundstate._sector_solution

    def counted(h, *args, **kwargs):
        dims.append(len(h))
        return original(h, *args, **kwargs)

    def counted_sector(params, n_max):
        sectors.append(n_max)
        return sector_solution(params, n_max)
    for module in (eigen, groundstate, classify):
        if hasattr(module, "smallest_eigpair"):
            monkeypatch.setattr(module, "smallest_eigpair", counted)
    monkeypatch.setattr(groundstate, "_sector_solution", counted_sector)
    return dims, sectors


@pytest.mark.parametrize("params, token", [
    (ModelParams.resonant(2, 3.0, kappa=1e-4), "MI:0"),
    (ModelParams.resonant(2, 2.3, kappa=1e-4), "MI:2"),
    (ModelParams.resonant(3, 3.0, kappa=1e-4), "FORBIDDEN"),
])
def test_probe_reuses_the_minimiser_psi_zero_solution(monkeypatch, params,
                                                      token):
    # psi = 0 is solved from its sector blocks once at n_max (by the
    # minimiser) and once at 2 n_max (by the probe), with no band vector
    # solve
    dims, sectors = count_vector_solves(monkeypatch)
    pt = classify_point(params)
    n = default_n_max(params.l)
    assert pt.token == token
    assert dims == []
    assert sectors == [n, 2 * n]


def test_probe_solves_the_base_level_when_psi_star_is_small(monkeypatch):
    # a psi_star in (0, PSI_EPS] is not the psi = 0 solution, so the probe
    # solves n_max itself; only psi_star takes a band vector solve
    params = ModelParams.resonant(1, 2.2, kappa=10 ** -0.5)
    psi_star = minimize_over_psi(params, 20).psi_star
    assert psi_star > 0
    dims, sectors = count_vector_solves(monkeypatch)
    monkeypatch.setattr(classify, "PSI_EPS", 2 * psi_star)
    pt = classify_point(params, 20)
    assert pt.token == "MI:0" and pt.psi_star == psi_star
    assert dims == [42]
    assert sectors == [20, 20, 40]
    assert pt.report.n_max_sequence == (20, 40)
