"""Smallest eigenpair of a real symmetric band matrix.

Every matrix the package diagonalises is banded, so a SymmetricMatrix holds
only its lower band in LAPACK's symmetric-band layout.  Two solvers return
the lowest eigenpair of the band under one contract: the value is
certified by inertia to lie within d = tolerance(lambda) = TOL * max(1,
|lambda|) of the smallest eigenvalue (certify_smallest: the band Cholesky
dpbtrf of A - (lambda - d) I must succeed and that of A - (lambda + d) I
must fail), and a returned eigenvector has a fixed sign:

- smallest_eigpair makes one LAPACK dsbevx call for the value and the
  eigenvector, and also checks the residual ||A v - lambda v|| <= d with
  the band mat-vec dsbmv;
- warm_eigpair starts from a nearby eigenvector and a shift below the
  spectrum, and refines the pair by shifted inverse iteration on the band
  Cholesky factor (dpbtrs) to a residual of d/100; it falls back to
  smallest_eigpair when the shift is not below the spectrum or the
  iteration does not converge.

TOL, read at call time, never reaches dsbevx (it keeps its own abstol): it
sets how loose these checks are and how close two psi = 0 sector energies
must be to tie (groundstate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsbevx

TOL = 1e-10
_RANGE_BY_INDEX = 2  # dsbevx RANGE = 'I'
# inverse iterations warm_eigpair takes before it falls back to dsbevx
_WARM_STEPS = 40


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


def _lowest(a: SymmetricMatrix) -> tuple[float, np.ndarray]:
    """One dsbevx call for the lowest eigenvalue and its eigenvector."""
    w, z, m, _, info = dsbevx(a.band, 0.0, 0.0, 1, 1, compute_v=1,
                              range=_RANGE_BY_INDEX, lower=1, overwrite_ab=0)
    if info != 0 or m != 1:
        raise EigensolverError(f"LAPACK dsbevx failed: info={info}, found {m} eigenvalues")
    return float(w[0]), z


def smallest_eigpair(a: SymmetricMatrix) -> EigPair:
    """Algebraically smallest eigenvalue and eigenvector of a symmetric matrix.

    The eigenvector sign is fixed so its largest-magnitude component is
    positive (ties resolved toward the lowest index), the residual
    ||A v - lambda v|| must not exceed tolerance(lambda), and lambda is
    certified the smallest eigenvalue by certify_smallest.
    """
    value, z = _lowest(a)
    vector = _signed(z[:, 0] / _norm(z[:, 0]))
    residual = _norm(dsbmv(a.bandwidth, 1.0, a.band, vector, lower=1)
                     - value * vector)
    if residual > tolerance(value):
        raise EigensolverError(
            f"residual {residual:.3e} exceeds {TOL:g} * max(1, |{value:.6g}|)"
        )
    certify_smallest(a, value)
    return EigPair(value=value, vector=vector)


def _norm(vector: np.ndarray) -> float:
    """The 2-norm of a vector, as np.linalg.norm computes it, sqrt(v . v),
    without its dispatch."""
    return math.sqrt(vector.dot(vector))


def _signed(vector: np.ndarray) -> np.ndarray:
    """vector with its largest-magnitude component (the first, at a tie)
    made positive."""
    return -vector if vector[int(np.abs(vector).argmax())] < 0 else vector


def warm_eigpair(a: SymmetricMatrix, shift: float,
                 start: np.ndarray) -> EigPair:
    """Smallest eigenpair of a, refined from start, the eigenvector of a
    nearby matrix, with shift a lower bound on the spectrum.

    The band Cholesky of A - shift I proves shift below every eigenvalue
    when it succeeds.  Each step solves with that factor (dpbtrs), which
    amplifies the lowest eigenvector by (lambda_2 - shift)/(lambda_1 -
    shift) against the others, normalises, and takes the Rayleigh quotient
    rho and the residual r = ||A v - rho v||.  Some eigenvalue lies within
    r of rho, so rho - 2 r is tried as the next shift, and adopted only
    when above the current one and its Cholesky succeeds.  The pair is
    accepted at r <= tolerance(rho)/100, rho is certified by
    certify_smallest, and the vector is signed as in smallest_eigpair.
    When the first Cholesky fails, so that shift is no lower bound, or
    _WARM_STEPS steps do not converge, smallest_eigpair solves the band
    cold.
    """
    factor = _cholesky(a, shift)
    if factor is not None:
        vector = start
        for _ in range(_WARM_STEPS):
            x, info = dpbtrs(factor, vector, lower=1)
            if info != 0:
                raise EigensolverError(f"LAPACK dpbtrs failed: info={info}")
            vector = x / _norm(x)
            av = dsbmv(a.bandwidth, 1.0, a.band, vector, lower=1)
            rho = float(np.dot(vector, av))
            residual = _norm(av - rho * vector)
            if residual <= 0.01 * tolerance(rho):
                certify_smallest(a, rho)
                return EigPair(value=rho, vector=_signed(vector))
            reshift = rho - 2.0 * residual
            if reshift > shift:
                closer = _cholesky(a, reshift)
                if closer is not None:
                    shift, factor = reshift, closer
    return smallest_eigpair(a)


def _cholesky(a: SymmetricMatrix, shift: float) -> np.ndarray | None:
    """The band Cholesky factor of A - shift I, or None when A - shift I is
    not positive definite."""
    shifted = a.band.copy(order="F")
    # through a view: shifted[0] -= shift would write the row back again
    diagonal = shifted[0]
    diagonal -= shift
    factor, info = dpbtrf(shifted, lower=1, overwrite_ab=1)
    if info < 0:
        raise EigensolverError(f"LAPACK dpbtrf failed: info={info}")
    return factor if info == 0 else None


def _positive_definite(a: SymmetricMatrix, shift: float) -> bool:
    """Whether the band Cholesky of A - shift I succeeds."""
    return _cholesky(a, shift) is not None


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
