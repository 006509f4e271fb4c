"""Zero-temperature mean-field phase diagrams of l-photon Jaynes-Cummings-Hubbard lattices.

A two-level atom in every cavity exchanges l photons at a time; cavities are
coupled by photon hopping, treated in the mean-field decoupling with a real
order parameter psi.  The package classifies parameter points as Mott
insulator MI(L), superfluid, or forbidden (no convergent ground state),
sweeps phase diagrams, and carries the closed-form zero-hopping results the
numerics are checked against.
"""

from .analytic import (
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
from .classify import (
    IndeterminatePhaseError,
    PhaseKind,
    PhaseLabel,
    PhasePoint,
    classify_point,
    convergence_probe,
)
from .eigen import (
    EigPair,
    EigensolverError,
    smallest_eigpair,
)
from .groundstate import (
    MeanFieldSolution,
    default_n_max,
    energy_at_psi,
    expected_L,
    minimize_over_psi,
)
from .operators import (
    ModelParams,
    SymmetricMatrix,
    build_l_diag,
    build_mean_field,
    build_mpjc,
    coupling_elements,
)
from .sweep import (
    GridSpec,
    PhaseGrid,
    classify_at,
    energy_scan,
    params_for,
    refine_boundary,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "SymmetricMatrix", "build_mpjc", "build_mean_field",
    "build_l_diag", "coupling_elements",
    "EigPair", "EigensolverError", "smallest_eigpair",
    "MeanFieldSolution",
    "energy_at_psi", "minimize_over_psi", "expected_L",
    "PhaseKind", "PhaseLabel", "PhasePoint",
    "IndeterminatePhaseError", "classify_point",
    "convergence_probe", "default_n_max",
    "Branch", "Side", "SectorSpec", "sector_energy",
    "resonant_sector_energy", "resonant_ground_energy", "solve_sector_zero",
    "solve_sector_crossing", "asymptotic_slope", "strong_coupling_boundary",
    "coupling_strength",
    "GridSpec", "PhaseGrid", "run_grid", "refine_boundary",
    "energy_scan", "classify_at", "params_for",
    "__version__",
]
