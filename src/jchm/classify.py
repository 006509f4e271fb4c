"""Phase assignment for one parameter point, with truncation evidence.

A point is superfluid when the minimised drive amplitude is resolvably
nonzero.  Otherwise the psi = 0 problem is re-solved at the base truncation
and at twice it: a ground state whose L expectation chases the truncation
edge has no converged thermodynamic limit and the point is
forbidden; a stable integer L is a Mott insulator MI(L).  Anything else is
reported as indeterminate rather than guessed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .eigen import DEFAULT_TOL, smallest_eigpair
from .groundstate import (
    REFINE_TOL,
    BracketExhausted,
    expected_L,
    minimize_over_psi,
)
from .operators import ModelParams, build_mean_field

DEFAULT_TOL_CONV = 1e-8
DEFAULT_PIN_FRACTION = 0.8
DEFAULT_PSI_EPS = 1e-3
# <L> drift between the last two truncation levels still counted as converged,
# and the widest distance from an integer accepted for an MI label.
_L_DRIFT_TOL = 0.01


def default_n_max(l: int) -> int:
    """Default base truncation: the coupling grows as n^(l/2), so the
    high-order models get a shorter ladder for the same matrix budget."""
    if not 1 <= l <= 4:
        raise ValueError(f"l must be between 1 and 4, got {l}")
    return 40 if l <= 2 else 24


@dataclass(frozen=True)
class SolverSettings:
    """Solver settings shared by every point of a run.

    n_max is the base truncation, psi_max the top of the psi search, psi_eps
    the psi_star below which a point is not superfluid, tol the eigensolver
    residual bound, and tol_conv and pin_fraction the truncation probe's
    convergence and pin thresholds (see convergence_probe).  None means the
    default: default_n_max(l) for n_max (see for_l), and sqrt(n_max)/2 and
    DEFAULT_PSI_EPS for psi_max and psi_eps (see psi_bounds).
    """

    n_max: int | None = None
    psi_max: float | None = None
    psi_eps: float | None = None
    tol: float = DEFAULT_TOL
    tol_conv: float = DEFAULT_TOL_CONV
    pin_fraction: float = DEFAULT_PIN_FRACTION

    def for_l(self, l: int) -> "SolverSettings":
        """These settings with n_max resolved for photon order l.

        Raises ValueError for a truncation too small to resolve the coupling,
        an unusable psi search, or a probe threshold (tol_conv,
        pin_fraction) that is not positive.
        """
        n_max = default_n_max(l) if self.n_max is None else self.n_max
        if n_max < l + 2:
            raise ValueError(f"n_max: must be at least l + 2 = {l + 2}, got {n_max}")
        resolved = replace(self, n_max=n_max)
        psi_max, psi_eps = resolved.psi_bounds()
        if not 0.0 < REFINE_TOL < psi_eps < psi_max:
            raise ValueError(
                "psi_max/psi_eps: need 0 < refine_tol < psi_zero_eps < psi_max, "
                f"got refine_tol={REFINE_TOL}, psi_zero_eps={psi_eps}, "
                f"psi_max={psi_max}"
            )
        for name in ("tol_conv", "pin_fraction"):
            value = getattr(self, name)
            if not 0.0 < value:
                raise ValueError(f"{name}: must be positive, got {value}")
        return resolved

    def psi_bounds(self) -> tuple[float, float]:
        """(psi_max, psi_eps) with their defaults filled in; the default
        psi_max sqrt(n_max)/2 keeps the displaced-field photon number
        psi_max**2 a factor 4 inside the truncation, so it needs a resolved
        n_max (see for_l)."""
        psi_max = math.sqrt(self.n_max) / 2.0 if self.psi_max is None else self.psi_max
        psi_eps = DEFAULT_PSI_EPS if self.psi_eps is None else self.psi_eps
        return psi_max, psi_eps


class PhaseKind(enum.Enum):
    MOTT_INSULATOR = "MI"
    SUPERFLUID = "SF"
    FORBIDDEN = "FORBIDDEN"


@dataclass(frozen=True)
class PhaseLabel:
    """Phase of a point; L is present exactly for Mott insulators."""

    kind: PhaseKind
    L: int | None = None

    def __post_init__(self) -> None:
        if (self.kind is PhaseKind.MOTT_INSULATOR) != (self.L is not None):
            raise ValueError("L must be set for MI labels and only for them")
        if self.L is not None and self.L < 0:
            raise ValueError(f"L must be non-negative, got {self.L}")

    @property
    def token(self) -> str:
        """Stable text form: "MI:<L>", "SF" or "FORBIDDEN"."""
        if self.kind is PhaseKind.MOTT_INSULATOR:
            return f"MI:{self.L}"
        return self.kind.value


@dataclass(frozen=True)
class ConvergenceReport:
    """psi = 0 ground-state data at successive truncations."""

    n_max_sequence: tuple[int, ...]
    energies: tuple[float, ...]
    l_expects: tuple[float, ...]
    converged: bool
    pinned_at_truncation: bool

    def __post_init__(self) -> None:
        k = len(self.n_max_sequence)
        if k < 2:
            raise ValueError("schedule must have at least two levels")
        if len(self.energies) != k or len(self.l_expects) != k:
            raise ValueError("energies and l_expects must match the schedule length")


class IndeterminatePhaseError(Exception):
    """The truncation probe neither converged nor pinned; no honest label exists.

    Carries the probe's ConvergenceReport in .report.
    """

    def __init__(self, message: str, report: ConvergenceReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PhasePoint:
    """One classified cell of a phase diagram.

    label is None for cells that could not be classified; note then holds a
    short machine-checkable reason ("indeterminate: ..." or "invalid: ...").
    """

    x: float
    y: float
    psi_star: float
    energy: float
    l_expect: float
    label: PhaseLabel | None
    n_max_used: int
    converged: bool
    note: str = ""
    report: ConvergenceReport | None = field(default=None, repr=False)

    @property
    def token(self) -> str:
        if self.label is not None:
            return self.label.token
        return "INVALID" if self.note.startswith("invalid") else "INDET"


def convergence_probe(params: ModelParams,
                      settings: SolverSettings) -> ConvergenceReport:
    """Ground energy and <L> at psi = 0 at truncations n_max and 2 n_max.

    settings must have n_max resolved (SolverSettings.for_l).  converged:
    the doubling moved neither the energy (within tol_conv) nor <L> (within
    0.01).  pinned_at_truncation: the final <L> tracks the truncation edge,
    the signature of a sector escaping to infinity.
    """
    levels = (settings.n_max, 2 * settings.n_max)
    energies: list[float] = []
    l_expects: list[float] = []
    for n_max in levels:
        pair = smallest_eigpair(build_mean_field(params, 0.0, n_max), settings.tol)
        energies.append(pair.value)
        l_expects.append(expected_L(pair.vector, params.l))

    converged = (abs(energies[-1] - energies[-2]) < settings.tol_conv
                 and abs(l_expects[-1] - l_expects[-2]) < _L_DRIFT_TOL)
    pinned = l_expects[-1] >= settings.pin_fraction * levels[-1]
    return ConvergenceReport(
        n_max_sequence=levels,
        energies=tuple(energies),
        l_expects=tuple(l_expects),
        converged=converged,
        pinned_at_truncation=pinned,
    )


def classify_point(params: ModelParams,
                   settings: SolverSettings = SolverSettings()) -> PhasePoint:
    """Classify one parameter point as SF, MI(L) or forbidden.

    The psi minimisation runs at the base truncation n_max; if it returns
    psi_star above psi_eps the point is superfluid.  Otherwise the psi = 0
    problem is probed at n_max and 2 n_max and the reported energy, <L> and
    n_max_used come from the finer level.  A minimisation whose minimum runs
    into psi_max is still called superfluid: the drive is resolvably nonzero
    even though its magnitude is truncation-limited.

    Raises IndeterminatePhaseError when the probe is inconclusive and
    ValueError for unusable settings.
    """
    settings = settings.for_l(params.l)
    _, psi_eps = settings.psi_bounds()
    x = math.log10(params.kappa) if params.kappa > 0 else -math.inf
    y = params.l * params.mu - params.omega

    try:
        sol = minimize_over_psi(params, settings)
    except BracketExhausted as err:
        sol = err.solution
    if sol.psi_star > psi_eps:
        return PhasePoint(
            x=x, y=y, psi_star=sol.psi_star, energy=sol.energy,
            l_expect=sol.l_expect, label=PhaseLabel(PhaseKind.SUPERFLUID),
            n_max_used=sol.n_max_used, converged=True,
        )

    report = convergence_probe(params, settings)
    energy = report.energies[-1]
    l_expect = report.l_expects[-1]
    n_used = report.n_max_sequence[-1]

    if report.pinned_at_truncation:
        return PhasePoint(
            x=x, y=y, psi_star=0.0, energy=energy, l_expect=l_expect,
            label=PhaseLabel(PhaseKind.FORBIDDEN), n_max_used=n_used,
            converged=report.converged, report=report,
        )
    if report.converged:
        nearest = round(l_expect)
        if nearest < 0 or abs(l_expect - nearest) > _L_DRIFT_TOL:
            raise IndeterminatePhaseError(
                f"<L> = {l_expect:.6g} is not close to an integer "
                "(degenerate sectors at a lobe boundary?)", report=report,
            )
        return PhasePoint(
            x=x, y=y, psi_star=sol.psi_star, energy=energy, l_expect=l_expect,
            label=PhaseLabel(PhaseKind.MOTT_INSULATOR, int(nearest)),
            n_max_used=n_used, converged=True, report=report,
        )
    raise IndeterminatePhaseError(
        "truncation probe neither converged nor pinned; increase n_max",
        report=report,
    )
