"""Closed-form results for the kappa -> 0 limit.

At zero hopping drive the one-site grand-canonical Hamiltonian is block
diagonal in L; each block with L >= l is the 2x2 matrix

    [[ Omega + (L-l) omega - L mu ,  sqrt(L!/(L-l)!) ],
     [ sqrt(L!/(L-l)!)            ,  L omega - L mu  ]]

in the basis {|e, L-l>, |g, L>}, and blocks with L < l are the single state
|g, L>.  Everything here works on those blocks: sector eigenvalues, the
omega thresholds where a sector dips below the vacuum or below another
sector, the large-L behaviour per photon order, and the second-order
small-kappa boundaries of the single-photon Mott lobes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

ROOT_BRACKET = (1e-6, 10.0)
ROOT_TOL = 1e-10


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


class Side(enum.Enum):
    """Which edge of a Mott lobe a strong-coupling boundary describes."""

    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class SectorSpec:
    """One two-dimensional L-sector of the l-photon model."""

    l: int
    L: int
    omega: float
    Omega: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.l <= 4:
            raise ValueError(f"l must be between 1 and 4, got {self.l}")
        if self.L < self.l:
            raise ValueError(
                f"need L >= l for a two-state sector, got L={self.L}, l={self.l}"
            )


def coupling_strength(l: int, L: int) -> float:
    """sqrt(L!/(L-l)!) via a running product, safe for large L."""
    prod = 1.0
    for k in range(L - l + 1, L + 1):
        prod *= k
    return math.sqrt(prod)


def sector_energy(spec: SectorSpec, branch: Branch) -> float:
    """Eigenvalue of the 2x2 sector block; MINUS is the smaller root."""
    d_exc = spec.Omega + (spec.L - spec.l) * spec.omega - spec.L * spec.mu
    d_gnd = spec.L * spec.omega - spec.L * spec.mu
    half_gap = math.hypot(0.5 * (d_exc - d_gnd), coupling_strength(spec.l, spec.L))
    mean = 0.5 * (d_exc + d_gnd)
    return mean + half_gap if branch is Branch.PLUS else mean - half_gap


def resonant_sector_energy(l: int, L: int, omega: float, branch: Branch) -> float:
    """Sector eigenvalue at zero detuning and mu = 1, written out directly:

        (1/2) [ -2L + (2L - l + 1) omega -+ sqrt(4 L!/(L-l)! + (l-1)^2 omega^2) ]

    Serves as an independent cross-check of sector_energy.
    """
    if L < l:
        raise ValueError(f"need L >= l, got L={L}, l={l}")
    c2 = 1.0
    for k in range(L - l + 1, L + 1):
        c2 *= k
    root = math.sqrt(4.0 * c2 + (l - 1) ** 2 * omega * omega)
    base = -2.0 * L + (2 * L - l + 1) * omega
    return 0.5 * (base + root) if branch is Branch.PLUS else 0.5 * (base - root)


def resonant_ground_energy(l: int, L: int, omega: float) -> float:
    """Lowest zero-hopping energy with total quantum number L, at mu = 1, Omega = omega.

    For L < l the sector is the single state |g, L> with energy L(omega - 1);
    otherwise it is the MINUS branch of the 2x2 block.
    """
    if L < 0:
        raise ValueError(f"L must be non-negative, got {L}")
    if L < l:
        return L * (omega - 1.0)
    return sector_energy(SectorSpec(l=l, L=L, omega=omega, Omega=omega), Branch.MINUS)


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            tol: float = ROOT_TOL) -> float:
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={f_lo:g}, f(hi)={f_hi:g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_sector_zero(l: int, L: int) -> float:
    """omega at which the resonant sector (l, L) ground energy crosses zero.

    This is where the L-sector dips below the empty lattice: the threshold of
    the MI(L) lobe against the vacuum at vanishing hopping.  Searches omega in
    ROOT_BRACKET by bisection.
    """
    if not 1 <= l <= 4:
        raise ValueError(f"l must be between 1 and 4, got {l}")
    if L < l:
        raise ValueError(f"need L >= l, got L={L}, l={l}")
    return _bisect(lambda w: resonant_ground_energy(l, L, w), *ROOT_BRACKET)


def solve_sector_crossing(l: int, L1: int, L2: int) -> float:
    """omega at which the resonant ground energies of sectors L1 and L2 coincide.

    L1 may be smaller than l (single-state sector); L1 = 0 recovers
    solve_sector_zero when paired with a two-state sector.
    """
    if not 1 <= l <= 4:
        raise ValueError(f"l must be between 1 and 4, got {l}")
    if not 0 <= L1 < L2:
        raise ValueError(f"need 0 <= L1 < L2, got L1={L1}, L2={L2}")
    if L2 < l:
        raise ValueError(f"need L2 >= l, got L2={L2}, l={l}")
    return _bisect(
        lambda w: resonant_ground_energy(l, L1, w) - resonant_ground_energy(l, L2, w),
        *ROOT_BRACKET,
    )


def asymptotic_slope(l: int, omega: float) -> float:
    """Large-L energy per excitation of the resonant minus branch.

    l = 1: the coupling sqrt(L) is subleading, the energy grows like
    L(omega - 1).  l = 2: the coupling is linear in L and splits the linear
    diagonal, leaving slope omega - 2.  l >= 3: the coupling L^(l/2) dominates
    any linear term, the energy per excitation is unbounded below.
    """
    if not 1 <= l <= 4:
        raise ValueError(f"l must be between 1 and 4, got {l}")
    if l == 1:
        return omega - 1.0
    if l == 2:
        return omega - 2.0
    return float("-inf")


def strong_coupling_boundary(L: int, side: Side, kappa: float) -> float:
    """Second-order small-kappa Mott-lobe edge for the single-photon model.

    Returns the boundary value of mu - omega (per coupling strength) for the
    MI(L) lobe at hopping kappa.  Known for L = 0, 1, 2 (upper edge) and
    L = 1, 2 (lower edge); other combinations raise ValueError.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    if side is Side.UPPER:
        if L not in (0, 1, 2):
            raise ValueError(f"upper boundary known for L in 0..2, got L={L}")
        first = math.sqrt(L) - math.sqrt(L + 1)
        weight = (math.sqrt(L) + math.sqrt(L + 1)) ** 2
        return first - kappa * weight / (2.0 - (1.0 if L == 0 else 0.0))
    if L not in (1, 2):
        raise ValueError(f"lower boundary known for L in 1..2, got L={L}")
    first = math.sqrt(L - 1) - math.sqrt(L)
    weight = (math.sqrt(L) + math.sqrt(L - 1)) ** 2
    return first + kappa * weight / (2.0 - (1.0 if L == 1 else 0.0))
