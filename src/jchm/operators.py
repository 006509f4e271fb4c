"""Band representations of the one-site and mean-field Hamiltonians.

All energies are dimensionless: frequencies are divided by the l-photon
coupling strength, so the coupling itself enters with unit prefactor.  The
conserved combination L = l * excitation + photon number commutes with the
one-site Hamiltonian; only the hopping drive proportional to psi mixes its
sectors.

The one-site space is a two-level atom tensored with Fock states truncated
at photon number n_max, dimension 2 (n_max + 1).  Basis states are
enumerated atom-fastest, |g,0>, |e,0>, |g,1>, |e,1>, ..., |g,n_max>,
|e,n_max>, so a smaller truncation is a leading principal submatrix of a
larger one and the l-photon coupling and the hopping drive sit on regular
bands: the coupling on the (2l-1)-th off-diagonal and the drive on the
second.  The builders therefore return a SymmetricMatrix (eigen.py): the
lower band of width max(2, 2l-1), assembled in place with entries bitwise
equal to the full matrix; .dense() gives the full matrix.  Each band is
assembled at its own truncation, and its entries are bitwise those of the
leading columns of any larger one, bar the coupling slots the cut drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import SymmetricMatrix


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameters of one lattice-site mean-field problem.

    omega is the cavity frequency, Omega the atomic splitting, mu the
    chemical potential, kappa the hopping amplitude and z the lattice
    coordination number.  The detuning omega - Omega is derived, not stored.
    """

    l: int
    omega: float
    Omega: float
    mu: float = 1.0
    kappa: float = 0.0
    z: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.l <= 4:
            raise ValueError(f"l must be between 1 and 4, got {self.l}")
        for name in ("omega", "Omega", "mu", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")
        if self.z < 1:
            raise ValueError(f"z must be a positive integer, got {self.z}")

    @property
    def delta(self) -> float:
        """Detuning omega - Omega."""
        return self.omega - self.Omega

    @classmethod
    def resonant(cls, l: int, omega: float, mu: float = 1.0,
                 kappa: float = 0.0, z: int = 2) -> "ModelParams":
        """Zero-detuning parameters, Omega = omega."""
        return cls(l=l, omega=omega, Omega=omega, mu=mu, kappa=kappa, z=z)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def coupling_elements(l: int, n_max: int) -> np.ndarray:
    """Matrix elements <e,n| sigma+ a^l |g,n+l> = sqrt((n+l)!/n!) for n = 0..n_max-l.

    Computed as a running product of (n+1)...(n+l); no factorial overflow.
    Cached, so the result is read-only.
    """
    n = np.arange(n_max - l + 1, dtype=np.float64)
    prod = np.ones_like(n)
    for k in range(1, l + 1):
        prod = prod * (n + k)
    return _frozen(np.sqrt(prod))


@lru_cache(maxsize=64)
def _raising(n_max: int) -> np.ndarray:
    """<n+1| a+ |n> = sqrt(n+1), the l = 1 coupling elements, once for each
    atomic state: the second off-diagonal of a+ in the basis ordering.
    Cached, so the result is read-only."""
    return _frozen(np.repeat(coupling_elements(1, n_max), 2))


def bandwidth(l: int) -> int:
    """Band half-width of the l-photon Hamiltonian: the drive sits on the
    second off-diagonal, the l-photon coupling on the (2l-1)-th."""
    return max(2, 2 * l - 1)


def build_mpjc(params: ModelParams, n_max: int) -> SymmetricMatrix:
    """One-site l-photon Hamiltonian Omega sigma+sigma- + omega a+a + (sigma+ a^l + h.c.)
    at photon truncation n_max."""
    return SymmetricMatrix(_mpjc_band(params.l, params.omega, params.Omega, n_max))


def _mpjc_band(l: int, omega: float, Omega: float, n_max: int) -> np.ndarray:
    if n_max < l:
        # below this no |g,n+l> partner exists and the coupling vanishes
        raise ValueError(f"n_max must be at least l={l}, got n_max={n_max}")
    n = build_l_diag(l, n_max)[0::2]           # L of |g,n> is n = 0..n_max
    band = np.zeros((bandwidth(l) + 1, 2 * (n_max + 1)), order="F")
    band[0, 0::2] = omega * n                  # |g,n>
    band[0, 1::2] = Omega + band[0, 0::2]      # |e,n>
    # <e,n| sigma+ a^l |g,n+l> joins columns 2n+1 and 2(n+l)
    last = 2 * (n_max - l) + 1
    band[2 * l - 1, 1:last + 1:2] = coupling_elements(l, n_max)
    return band


@lru_cache(maxsize=64)
def build_l_diag(l: int, n_max: int) -> np.ndarray:
    """Diagonal of the conserved quantity L in the basis ordering, as floats.

    Cached, so the result is read-only.
    """
    n = np.arange(n_max + 1, dtype=np.float64)
    d = np.empty(2 * (n_max + 1))
    d[0::2] = n
    d[1::2] = n + l
    return _frozen(d)


@lru_cache(maxsize=128)
def _psi_free_band(l: int, omega: float, Omega: float, mu: float,
                   n_max: int) -> np.ndarray:
    """The one-site band minus mu*L at truncation n_max: every entry of the
    mean-field band that psi leaves alone, shared by all psi of a point and
    all kappa of a grid row; __wrapped__ assembles one without caching it.
    Cached, so the result is read-only."""
    band = _mpjc_band(l, omega, Omega, n_max)
    if mu != 0.0:
        diagonal = band[0]                     # in place, through a view
        diagonal -= mu * build_l_diag(l, n_max)
    return _frozen(band)


def build_mean_field(params: ModelParams, psi: float,
                     n_max: int) -> SymmetricMatrix:
    """Mean-field Hamiltonian in the grand-canonical frame.

    Adds to the one-site matrix the scalar z*kappa*psi**2, the chemical-
    potential term -mu*L on the diagonal, and the hopping drive
    -z*kappa*psi*(a + a+).  psi may be negative; the spectrum is even in it.
    At psi = 0 the result is bitwise independent of kappa.  The psi-free
    part is assembled once per (l, omega, Omega, mu, n_max) and copied, so
    the returned band is the caller's to modify.
    """
    band = _psi_free_band(params.l, params.omega, params.Omega, params.mu,
                          n_max).copy(order="F")
    drive = params.z * params.kappa * psi
    if drive != 0.0:
        diagonal = band[0]                     # in place, through a view
        diagonal += drive * psi
        # photon raising keeps the atomic state: |s,n> to |s,n+1>, columns
        # 2n+s on the second off-diagonal (_raising)
        band[2, :-2] = -drive * _raising(n_max)
    return SymmetricMatrix(band)
