"""Smallest eigenpair of a real symmetric band matrix with a fixed sign convention.

Every matrix the package diagonalises is banded, so a SymmetricMatrix holds
only its lower band in LAPACK's symmetric-band layout.  One solver serves
every size: LAPACK dsbevx picks out the lowest eigenpair of the band, and the
residual of that pair is checked with the band mat-vec dsbmv.  A dense array
is accepted too; it is stored with full bandwidth and solved the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dsbevx

DEFAULT_TOL = 1e-10
_RANGE_BY_INDEX = 2  # dsbevx RANGE = 'I'


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or the result failed its residual check."""


class SymmetricMatrix:
    """Real symmetric matrix stored as its lower band.

    band has shape (bandwidth + 1, dim) in Fortran order, and band[k, j]
    holds the entry (j + k, j) = (j, j + k); slots past the end of a
    subdiagonal are zero.  len() is the dimension.
    """

    __slots__ = ("band",)

    def __init__(self, band: np.ndarray) -> None:
        self.band = band

    def __len__(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def dense(self) -> np.ndarray:
        """The full (dim, dim) matrix."""
        n = len(self)
        a = np.zeros((n, n))
        for k in range(self.bandwidth + 1):
            j = np.arange(n - k)
            a[j + k, j] = self.band[k, : n - k]
            a[j, j + k] = self.band[k, : n - k]
        return a

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Full-bandwidth storage of a square array (its lower triangle)."""
        n = a.shape[0]
        band = np.zeros((n, n), order="F")
        for k in range(n):
            band[k, : n - k] = np.diagonal(a, -k)
        return cls(band)


@dataclass(frozen=True)
class EigPair:
    """Eigenvalue with its unit-norm eigenvector."""

    value: float
    vector: np.ndarray


def smallest_eigpair(a: SymmetricMatrix | np.ndarray,
                     tol: float = DEFAULT_TOL) -> EigPair:
    """Algebraically smallest eigenvalue and eigenvector of a symmetric matrix.

    A dense array must be square, non-empty and exactly symmetric.  The
    eigenvector sign is fixed so its largest-magnitude component is positive
    (ties resolved toward the lowest index), and the residual
    ||A v - lambda v|| must not exceed tol * max(1, |lambda|).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not isinstance(a, SymmetricMatrix):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("matrix must be non-empty")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be exactly symmetric")
        a = SymmetricMatrix.from_dense(a)

    band, kd = a.band, a.bandwidth
    w, z, m, _, info = dsbevx(band, 0.0, 0.0, 1, 1, range=_RANGE_BY_INDEX,
                              lower=1, overwrite_ab=0)
    if info != 0 or m != 1:
        raise EigensolverError(f"LAPACK dsbevx failed: info={info}, found {m} eigenvalues")
    value = float(w[0])
    vector = z[:, 0]
    vector = vector / np.linalg.norm(vector)
    if vector[int(np.argmax(np.abs(vector)))] < 0:
        vector = -vector

    residual = float(np.linalg.norm(
        dsbmv(kd, 1.0, band, vector, lower=1) - value * vector))
    if residual > tol * max(1.0, abs(value)):
        raise EigensolverError(
            f"residual {residual:.3e} exceeds {tol:g} * max(1, |{value:.6g}|)"
        )
    return EigPair(value=value, vector=vector)
