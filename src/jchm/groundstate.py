"""Ground energy as a function of the order parameter and its minimisation.

The drive amplitude psi is treated variationally: the full mean-field matrix
is rebuilt at every psi, never linearised, and its smallest eigenvalue is
taken without an eigenvector (eigen.smallest_eigenvalue, certified by
inertia).  Only psi = 0 and the reported minimiser are solved with their
eigenvector, whose residual is checked (eigen.smallest_eigpair).  The spectrum
is even in psi, so only psi >= 0 is searched: a coarse scan of COARSE_STEPS
points brackets every local minimum, golden section refines each to
REFINE_TOL, and minimisers within ENERGY_TIE_EPS of the psi = 0 energy
collapse to exactly zero so the insulating solution is reported cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .eigen import DEFAULT_TOL, smallest_eigenvalue, smallest_eigpair
from .operators import ModelParams, build_l_diag, build_mean_field

if TYPE_CHECKING:
    from .classify import SolverSettings

COARSE_STEPS = 64
REFINE_TOL = 1e-6
ENERGY_TIE_EPS = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MeanFieldSolution:
    """Minimised mean-field ground state at one parameter point."""

    psi_star: float
    energy: float
    ground_vector: np.ndarray
    l_expect: float
    n_max_used: int


class BracketExhausted(RuntimeError):
    """The energy minimum sits at psi_max; the search interval is too small.

    Carries the best solution found at the interval edge in .solution.
    """

    def __init__(self, message: str, solution: MeanFieldSolution):
        super().__init__(message)
        self.solution = solution


def energy_at_psi(params: ModelParams, psi: float, n_max: int,
                  tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of the mean-field Hamiltonian at fixed psi, without
    its eigenvector."""
    return smallest_eigenvalue(build_mean_field(params, psi, n_max), tol)


def expected_L(vector: np.ndarray, l: int) -> float:
    """Expectation of the conserved quantity L in a unit-norm state of the
    l-photon basis; the truncation follows from the vector's length."""
    return float(np.dot(vector * vector, build_l_diag(l, len(vector) // 2 - 1)))


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Minimise f on [a, b]; returns the best evaluated (x, f(x))."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc, yd = f(c), f(d)
    best = (c, yc) if yc <= yd else (d, yd)
    while (b - a) > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = f(c)
            if yc < best[1]:
                best = (c, yc)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = f(d)
            if yd < best[1]:
                best = (d, yd)
    return best


def solution_at(params: ModelParams, psi: float, n_max: int,
                tol: float) -> MeanFieldSolution:
    """The mean-field ground state at fixed psi, solved with its eigenvector."""
    pair = smallest_eigpair(build_mean_field(params, psi, n_max), tol)
    return MeanFieldSolution(
        psi_star=float(psi),
        energy=pair.value,
        ground_vector=pair.vector,
        l_expect=expected_L(pair.vector, params.l),
        n_max_used=n_max,
    )


def minimize_over_psi(params: ModelParams,
                      settings: SolverSettings) -> MeanFieldSolution:
    """Global minimum of the ground energy over psi in [0, psi_max].

    settings are resolved by for_l; their psi_max, n_max and tol are read.
    Every local minimum of the coarse scan is refined by golden section, so
    a first-order (two-minimum) energy landscape is still resolved.  Ties
    with the psi = 0 energy within ENERGY_TIE_EPS report psi_star = 0.  If
    the minimum sits against psi_max the bracket cannot be trusted and
    BracketExhausted is raised with the edge solution attached.
    """
    settings = settings.for_l(params.l)
    n_max, tol, psi_max = settings.n_max, settings.tol, settings.search_max()

    def energy(p: float) -> float:
        return energy_at_psi(params, p, n_max, tol)

    # psi = 0 is solved once, with its vector: it opens the coarse scan and
    # is the answer whenever the minimum ties with it
    zero = solution_at(params, 0.0, n_max, tol)
    psis = np.linspace(0.0, psi_max, COARSE_STEPS)
    coarse = np.array([zero.energy] + [energy(p) for p in psis[1:]])

    best_psi = 0.0
    best_e = float(coarse[0])
    last = len(psis) - 1
    for i in range(len(psis)):
        left = coarse[i - 1] if i > 0 else np.inf
        right = coarse[i + 1] if i < last else np.inf
        if coarse[i] <= left and coarse[i] <= right:
            if coarse[i] < best_e:
                best_psi, best_e = float(psis[i]), float(coarse[i])
            a = psis[max(i - 1, 0)]
            b = psis[min(i + 1, last)]
            p, e = _golden_section(energy, a, b, REFINE_TOL)
            if e < best_e:
                best_psi, best_e = p, e

    if float(coarse[0]) <= best_e + ENERGY_TIE_EPS:
        # flat or insulating landscape: report the symmetric solution exactly
        return zero

    if best_psi >= psi_max - 2.0 * REFINE_TOL:
        raise BracketExhausted(
            f"energy minimum sits at psi_max={psi_max:g}; "
            "the search interval (and likely n_max) is too small",
            solution_at(params, best_psi, n_max, tol),
        )
    return solution_at(params, best_psi, n_max, tol)
