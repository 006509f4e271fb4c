"""Phase assignment for one parameter point, with truncation evidence.

A point is superfluid when the minimiser returns a nonzero drive
amplitude, which it does only for a certified minimum that beats psi = 0
by more than ENERGY_TIE_EPS.  Otherwise the psi = 0 ground state is
compared at the base truncation (the minimiser's own solution) and at
twice it: a ground state whose L expectation chases the truncation edge
has no converged thermodynamic limit and the point is forbidden; a stable
integer L is a Mott insulator MI(L).  Anything else is reported as
indeterminate rather than guessed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .groundstate import (
    BracketExhausted,
    minimize_over_psi,
    resolve_n_max,
    zero_solution,
)
from .operators import ModelParams

# The labelling rule, read at call time: the truncation probe counts as
# converged when doubling n_max moves the energy by less than TOL_CONV, and
# as pinned when the final <L> reaches PIN_FRACTION of its truncation.
TOL_CONV = 1e-8
PIN_FRACTION = 0.8
# <L> drift between the last two truncation levels still counted as converged,
# and the widest distance from an integer accepted for an MI label.
_L_DRIFT_TOL = 0.01


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
    """psi = 0 ground-state data at the truncations (n_max, 2 n_max)."""

    n_max_sequence: tuple[int, int]
    energies: tuple[float, float]
    l_expects: tuple[float, float]
    converged: bool
    pinned_at_truncation: bool


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


class IndeterminatePhaseError(Exception):
    """The truncation probe neither converged nor pinned; no honest label exists.

    Carries the unlabelled (INDET) point in .point: the probe's finer
    level, its ConvergenceReport, and the note "indeterminate: <message>".
    """

    def __init__(self, message: str, point: PhasePoint):
        super().__init__(message)
        self.point = point


def convergence_probe(params: ModelParams,
                      n_max: int | None = None) -> ConvergenceReport:
    """Ground energy and <L> at psi = 0 at truncations n_max and 2 n_max,
    n_max resolved by resolve_n_max, each level certified once per key
    (zero_solution).  converged: the doubling moved neither the energy
    (within TOL_CONV) nor <L> (within 0.01).  pinned_at_truncation: the
    final <L> reaches PIN_FRACTION of the truncation edge, the signature of
    a sector escaping to infinity.
    """
    n_max = resolve_n_max(params.l, n_max)
    zero = zero_solution(params, n_max)
    fine = zero_solution(params, 2 * n_max)
    return ConvergenceReport(
        n_max_sequence=(zero.n_max_used, fine.n_max_used),
        energies=(zero.energy, fine.energy),
        l_expects=(zero.l_expect, fine.l_expect),
        converged=(abs(fine.energy - zero.energy) < TOL_CONV
                   and abs(fine.l_expect - zero.l_expect) < _L_DRIFT_TOL),
        pinned_at_truncation=fine.l_expect >= PIN_FRACTION * fine.n_max_used,
    )


def classify_point(params: ModelParams, n_max: int | None = None, *,
                   at: tuple[float, float] | None = None) -> PhasePoint:
    """Classify one parameter point as SF, MI(L) or forbidden, reported at
    the diagram coordinates at = (x, y), by default (log10 kappa,
    l mu - omega).

    The psi minimisation runs at the base truncation n_max; if it returns
    psi_star > 0 the point is superfluid.  Otherwise it has returned the
    psi = 0 solution, the probe's base level, and the reported energy, <L>
    and n_max_used come from the probe's finer level.  A minimisation whose
    minimum runs into psi_max is still called superfluid: the drive is
    resolvably nonzero even though its magnitude is truncation-limited.

    Raises IndeterminatePhaseError, carrying the unlabelled point, when the
    probe is inconclusive, and ValueError for an unusable n_max or drive.
    """
    x, y = at or (math.log10(params.kappa) if params.kappa > 0 else -math.inf,
                  params.l * params.mu - params.omega)

    try:
        sol = minimize_over_psi(params, n_max)
    except BracketExhausted as err:
        sol = err.solution
    if sol.psi_star > 0.0:
        return PhasePoint(
            x=x, y=y, psi_star=sol.psi_star, energy=sol.energy,
            l_expect=sol.l_expect, label=PhaseLabel(PhaseKind.SUPERFLUID),
            n_max_used=sol.n_max_used, converged=True,
        )

    report = convergence_probe(params, n_max)
    l_expect = report.l_expects[-1]

    def probed(label: PhaseLabel | None, note: str = "") -> PhasePoint:
        # the probe's finer level, reported at (x, y)
        return PhasePoint(
            x=x, y=y, psi_star=0.0, energy=report.energies[-1],
            l_expect=l_expect, label=label,
            n_max_used=report.n_max_sequence[-1],
            converged=report.converged and label is not None, note=note,
            report=report,
        )

    def indeterminate(message: str) -> IndeterminatePhaseError:
        return IndeterminatePhaseError(
            message, probed(None, f"indeterminate: {message}"))

    if report.pinned_at_truncation:
        return probed(PhaseLabel(PhaseKind.FORBIDDEN))
    if report.converged:
        nearest = round(l_expect)
        if abs(l_expect - nearest) > _L_DRIFT_TOL:
            raise indeterminate(
                f"<L> = {l_expect:.6g} is not close to an integer "
                "(degenerate sectors at a lobe boundary?)")
        return probed(PhaseLabel(PhaseKind.MOTT_INSULATOR, int(nearest)))
    raise indeterminate(
        "truncation probe neither converged nor pinned; increase n_max")
