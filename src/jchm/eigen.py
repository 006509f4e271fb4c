"""Smallest eigenvalue of a real symmetric band matrix, with or without its eigenvector.

Every matrix the package diagonalises is banded, so a SymmetricMatrix holds
only its lower band in LAPACK's symmetric-band layout.  Both entry points
make one LAPACK dsbevx call for the lowest eigenvalue of the band, and each
checks its answer against tolerance(lambda) = TOL * max(1, |lambda|):

- smallest_eigpair also returns the eigenvector, with a fixed sign, and
  checks its residual ||A v - lambda v|| with the band mat-vec dsbmv;
- smallest_eigenvalue returns the value alone and certifies it by inertia:
  the band Cholesky dpbtrf of A - (lambda - d) I must succeed and that of
  A - (lambda + d) I must fail, d = tolerance(lambda), which proves that the
  smallest eigenvalue lies within d of lambda (certify_smallest).

TOL, read at call time, never reaches dsbevx (it keeps its own abstol): it
sets how loose these checks are and how close two psi = 0 sector energies
must be to tie (groundstate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dsbevx

TOL = 1e-10
_RANGE_BY_INDEX = 2  # dsbevx RANGE = 'I'


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or the result failed its residual
    check or its inertia certificate."""


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


@dataclass(frozen=True)
class EigPair:
    """Eigenvalue with its unit-norm eigenvector."""

    value: float
    vector: np.ndarray


def tolerance(value: float) -> float:
    """The distance TOL * max(1, |value|) every check holds an eigenvalue to."""
    return TOL * max(1.0, abs(value))


def _lowest(a: SymmetricMatrix, compute_v: int) -> tuple[float, np.ndarray]:
    """One dsbevx call for the lowest eigenvalue, and its eigenvector if asked."""
    w, z, m, _, info = dsbevx(a.band, 0.0, 0.0, 1, 1, compute_v=compute_v,
                              range=_RANGE_BY_INDEX, lower=1, overwrite_ab=0)
    if info != 0 or m != 1:
        raise EigensolverError(f"LAPACK dsbevx failed: info={info}, found {m} eigenvalues")
    return float(w[0]), z


def smallest_eigpair(a: SymmetricMatrix) -> EigPair:
    """Algebraically smallest eigenvalue and eigenvector of a symmetric matrix.

    The eigenvector sign is fixed so its largest-magnitude component is
    positive (ties resolved toward the lowest index), and the residual
    ||A v - lambda v|| must not exceed tolerance(lambda).  The residual
    does not prove that lambda is the smallest eigenvalue; certify_smallest
    does.
    """
    value, z = _lowest(a, compute_v=1)
    vector = z[:, 0] / np.linalg.norm(z[:, 0])
    if vector[int(np.argmax(np.abs(vector)))] < 0:
        vector = -vector

    residual = float(np.linalg.norm(
        dsbmv(a.bandwidth, 1.0, a.band, vector, lower=1) - value * vector))
    if residual > tolerance(value):
        raise EigensolverError(
            f"residual {residual:.3e} exceeds {TOL:g} * max(1, |{value:.6g}|)"
        )
    return EigPair(value=value, vector=vector)


def smallest_eigenvalue(a: SymmetricMatrix) -> float:
    """Algebraically smallest eigenvalue of a symmetric matrix, without its
    eigenvector.

    The same dsbevx call as smallest_eigpair with no vector asked for, so on
    the same input it returns the same float.  The value is certified by
    certify_smallest in place of a residual check.
    """
    value, _ = _lowest(a, compute_v=0)
    certify_smallest(a, value)
    return value


def _positive_definite(a: SymmetricMatrix, shift: float) -> bool:
    """Whether the band Cholesky of A - shift I succeeds."""
    shifted = a.band.copy(order="F")
    shifted[0] -= shift
    _, info = dpbtrf(shifted, lower=1, overwrite_ab=1)
    if info < 0:
        raise EigensolverError(f"LAPACK dpbtrf failed: info={info}")
    return info == 0


def certify_smallest(a: SymmetricMatrix, value: float) -> None:
    """Certify that the smallest eigenvalue of a lies within d = tolerance(value)
    of value, by inertia.

    A - s I is positive definite, so its Cholesky factorisation succeeds,
    exactly when s lies below every eigenvalue.  Success at s = value - d
    puts the smallest eigenvalue above value - d; failure at s = value + d
    puts one at or below value + d.  In floating point the factorisation
    decides up to rounding of order eps * ||A||, far below d.  Raises
    EigensolverError otherwise, for instance when value is a higher
    eigenvalue.
    """
    d = tolerance(value)
    if not _positive_definite(a, value - d):
        reason = f"an eigenvalue lies below {value - d:.17g}"
    elif _positive_definite(a, value + d):
        reason = f"no eigenvalue lies below {value + d:.17g}"
    else:
        return
    raise EigensolverError(
        f"residual bound {TOL:g} * max(1, |{value:.6g}|) not certified: {reason}"
    )
