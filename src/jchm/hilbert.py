"""Truncated one-site Hilbert space: a two-level atom tensored with Fock states.

Basis states are enumerated atom-fastest, |g,0>, |e,0>, |g,1>, |e,1>, ...,
|g,n_max>, |e,n_max>, so the l-photon coupling and the hopping drive both sit
on regular bands of the Hamiltonian matrix and a smaller truncation is a
leading principal submatrix of a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HilbertSpace:
    """Atom (x) Fock basis with photon number truncated at n_max.

    l is the photon order of the model the space serves; it fixes the
    conserved combination L = l * (atomic excitation) + (photon number) and
    the minimum usable truncation.
    """

    l: int
    n_max: int

    def __post_init__(self) -> None:
        if not 1 <= self.l <= 4:
            raise ValueError(f"l must be between 1 and 4, got {self.l}")
        if self.n_max < self.l:
            # below this no |g,n+l> partner exists and the coupling vanishes
            raise ValueError(
                f"n_max must be at least l={self.l}, got n_max={self.n_max}"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def build_space(l: int, n_max: int) -> HilbertSpace:
    """Validated constructor for a truncated space."""
    return HilbertSpace(l=l, n_max=n_max)
