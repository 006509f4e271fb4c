"""Phase assignment for one parameter point.

A point is superfluid when the minimiser returns a nonzero drive
amplitude, which it does only for a certified minimum that beats psi = 0
by more than ENERGY_TIE_EPS.  Otherwise the label is read from the
certified psi = 0 ground state at twice the minimiser's truncation n
(convergence_probe), which the minimiser's own psi = 0 cache entry holds
(groundstate.zero_sectors): psi = 0 conserves L, so that state lies in one
sector and <L> is its integer L.  A ground state whose <L> reaches
PIN_FRACTION of 2 n chases the truncation edge, has no thermodynamic
limit and is forbidden.  Every block L <= n is the same at n and 2 n, so
L <= n is exactly the case where n already holds the ground sector: a
Mott insulator MI(L).  Anything else (n < L below the pin, or an <L>
more than _L_DRIFT_TOL from an integer, which only a band solve at a
sector tie gives) is reported as indeterminate rather than guessed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .groundstate import (
    MeanFieldSolution,
    minimize_over_psi,
    resolve_n_max,
    zero_sectors,
)
from .operators import ModelParams

# The labelling rule, read at call time: <L> at 2 n counts as pinned when it
# reaches PIN_FRACTION of that truncation, and _L_DRIFT_TOL is the widest
# distance from an integer accepted for an MI label.
PIN_FRACTION = 0.8
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


# Labels are immutable, so a settled cell shares one instance per phase.
_SUPERFLUID = PhaseLabel(PhaseKind.SUPERFLUID)
_FORBIDDEN = PhaseLabel(PhaseKind.FORBIDDEN)


@lru_cache(maxsize=128)
def _mott_insulator(L: int) -> PhaseLabel:
    return PhaseLabel(PhaseKind.MOTT_INSULATOR, L)


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
    note: str = ""

    @property
    def converged(self) -> bool:
        """Labelled, and not forbidden: the CSV column of that name."""
        return (self.label is not None
                and self.label.kind is not PhaseKind.FORBIDDEN)

    @property
    def token(self) -> str:
        if self.label is not None:
            return self.label.token
        return "INVALID" if self.note.startswith("invalid") else "INDET"


class IndeterminatePhaseError(Exception):
    """The psi = 0 ground state at 2 n_max has no honest label: its L lies
    above n_max but below the pin, or <L> is not an integer.

    Carries the unlabelled (INDET) point in .point, read at 2 n_max, with
    the note "indeterminate: <message>".
    """

    def __init__(self, message: str, point: PhasePoint):
        super().__init__(message)
        self.point = point

    def __reduce__(self):
        return type(self), (str(self), self.point)


def convergence_probe(params: ModelParams,
                      n_max: int | None = None) -> MeanFieldSolution:
    """The certified psi = 0 ground state at twice the truncation n_max
    (resolve_n_max), the one level the MI and FORBIDDEN labels are read
    from: the 2 n_max level of the minimiser's own psi = 0 entry, certified
    once per key (groundstate.zero_sectors).
    """
    return zero_sectors(params, resolve_n_max(params.l, n_max)).fine


def classify_point(params: ModelParams, n_max: int | None = None, *,
                   at: tuple[float, float] | None = None) -> PhasePoint:
    """Classify one parameter point as SF, MI(L) or forbidden, reported at
    the diagram coordinates at = (x, y), by default (log10 kappa,
    l mu - omega).

    The psi minimisation runs at the base truncation n; if it returns
    psi_star > 0 the point is superfluid.  A minimum at psi_max
    (MeanFieldSolution.at_psi_max) is still called superfluid: the drive
    is resolvably nonzero even though its magnitude is truncation-limited.
    Otherwise the psi = 0 ground state at 2 n (convergence_probe) is
    labelled by the rule above, with L the nearest integer to <L>, and its
    energy, <L> and n_max_used are reported.

    Raises IndeterminatePhaseError, carrying the unlabelled point, for an
    indeterminate point, and ValueError for an unusable n_max or drive.
    """
    x, y = at or (math.log10(params.kappa) if params.kappa > 0 else -math.inf,
                  params.l * params.mu - params.omega)

    sol = minimize_over_psi(params, n_max)
    if sol.psi_star > 0.0:
        return PhasePoint(
            x=x, y=y, psi_star=sol.psi_star, energy=sol.energy,
            l_expect=sol.l_expect, label=_SUPERFLUID,
            n_max_used=sol.n_max_used,
        )

    n = sol.n_max_used
    fine = convergence_probe(params, n)
    l_expect = fine.l_expect
    nearest = round(l_expect)
    pin = PIN_FRACTION * fine.n_max_used
    label = message = None
    if l_expect >= pin:
        label = _FORBIDDEN
    elif nearest > n:
        message = (f"<L> = {l_expect:.6g} at n_max = {fine.n_max_used} lies "
                   f"above n_max = {n} and below the pin at {pin:g}; "
                   "increase n_max")
    elif abs(l_expect - nearest) > _L_DRIFT_TOL:
        message = (f"<L> = {l_expect:.6g} is not close to an integer "
                   "(degenerate sectors at a lobe boundary?)")
    else:
        label = _mott_insulator(nearest)
    # the 2 n level, reported at (x, y)
    point = PhasePoint(
        x=x, y=y, psi_star=0.0, energy=fine.energy, l_expect=l_expect,
        label=label, n_max_used=fine.n_max_used,
        note="" if message is None else f"indeterminate: {message}",
    )
    if message is not None:
        raise IndeterminatePhaseError(message, point)
    return point
