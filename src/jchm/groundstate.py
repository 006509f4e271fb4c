"""Ground energy as a function of the order parameter and its minimisation.

The drive amplitude psi is treated variationally: the full mean-field matrix
is rebuilt at every psi, never linearised, and its smallest eigenvalue is
taken without an eigenvector (eigen.smallest_eigenvalue, certified by
inertia).  psi = 0 takes its lowest L-sector energy in closed form, under
the same certificate, and its <L> is that sector's L; only a nonzero
reported minimiser is solved with its eigenvector (eigen.smallest_eigpair),
for <L>.  The spectrum is even in psi, so only psi >= 0 is searched, by
branch and bound: the energy is z kappa psi^2 plus a concave function of
psi, so on any interval it lies above a convex quadratic fixed by the two
end energies.  Intervals whose bound cannot beat the best energy
by MARGIN, nor the psi = 0 energy by ENERGY_TIE_EPS, are pruned; the rest
are split until narrower than REFINE_TOL.  Each new best that beats psi = 0
is polished by golden section and its bracket closed unbounded, which
assumes one minimum in that bracket.  MARGIN covers the rounding of one
eigensolve, not the eigensolve tolerance (see minimize_over_psi).
Minimisers within ENERGY_TIE_EPS of the psi = 0 energy collapse to exactly
zero so the insulating solution is reported cleanly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .eigen import (
    DEFAULT_TOL,
    SymmetricMatrix,
    certify_smallest,
    smallest_eigenvalue,
    smallest_eigpair,
)
from .operators import (
    ModelParams,
    _psi_free_band,
    build_l_diag,
    build_mean_field,
)

if TYPE_CHECKING:
    from .classify import SolverSettings

SEED_POINTS = 3
REFINE_TOL = 1e-6
ENERGY_TIE_EPS = 1e-9
MARGIN = 1e-10
SPLIT_EDGE = 0.05

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MeanFieldSolution:
    """Minimised mean-field ground state at one parameter point."""

    psi_star: float
    energy: float
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
    """The mean-field ground state at fixed psi.

    psi = 0 is solved from its L-sector blocks (_sector_solution), any
    other psi by smallest_eigpair on the band.
    """
    if psi == 0.0:
        return _sector_solution(params, n_max, tol)
    return _band_solution(params, psi, n_max, tol)


def _band_solution(params: ModelParams, psi: float, n_max: int,
                   tol: float) -> MeanFieldSolution:
    pair = smallest_eigpair(build_mean_field(params, psi, n_max), tol)
    return MeanFieldSolution(
        psi_star=float(psi),
        energy=pair.value,
        l_expect=expected_L(pair.vector, params.l),
        n_max_used=n_max,
    )


def _sector_solution(params: ModelParams, n_max: int,
                     tol: float) -> MeanFieldSolution:
    """The psi = 0 ground state, taken from the L-sector blocks.

    At psi = 0 the Hamiltonian commutes with L, so each L = 0..n_max + l
    has one candidate energy E_L: the lower root of the 2x2 block
    {|e,L-l>, |g,L>} for l <= L <= n_max, and the single state |g,L> for
    L < l or |e,L-l> for L > n_max, whose partner the truncation drops.
    The lowest E_L passes the same inertia certificate (certify_smallest)
    on the full band as a value solve, and <L> is its L exactly.  When the
    two lowest E_L lie within tol * max(1, |E|), the sectors cannot say
    which state the band solve picks, and the band is solved.
    """
    l = params.l
    band = _psi_free_band(l, params.omega, params.Omega, params.mu, n_max)
    exc, gnd = band[0, 1::2], band[0, 0::2]     # |e,n>, |g,n>, n = 0..n_max
    k = n_max - l + 1                           # number of 2x2 blocks
    # block L couples |e,L-l> in column 2(L-l)+1 to |g,L>, for L = l..n_max
    c = band[2 * l - 1, 1:2 * k:2]
    half = 0.5 * (exc[:k] - gnd[l:])
    root = np.hypot(half, c)
    energies = np.concatenate(
        (gnd[:l], 0.5 * (exc[:k] + gnd[l:]) - root, exc[k:]))
    L = int(np.argmin(energies))
    value = float(energies[L])
    if np.partition(energies, 1)[1] - value <= tol * max(1.0, abs(value)):
        return _band_solution(params, 0.0, n_max, tol)

    certify_smallest(SymmetricMatrix(band), value, tol)
    return MeanFieldSolution(psi_star=0.0, energy=value, l_expect=float(L),
                             n_max_used=n_max)


def _chord_bound(c: float, a: float, b: float, ea: float,
                 eb: float) -> tuple[float, float]:
    """Minimum over [a, b] of the lower bound of E = c psi^2 + g with g
    concave, and where it is attained.

    g lies above its chord, so E >= lin(psi) - c (psi - a)(b - psi), with
    lin the straight line through (a, ea) and (b, eb): a convex quadratic.
    Returns (bound, psi).
    """
    slope = (eb - ea) / (b - a)
    if c > 0.0:
        p = min(max(0.5 * (a + b) - slope / (2.0 * c), a), b)
    else:
        p = a if ea <= eb else b
    return ea + slope * (p - a) - c * (p - a) * (b - p), p


def minimize_over_psi(params: ModelParams,
                      settings: SolverSettings) -> MeanFieldSolution:
    """Global minimum of the ground energy over psi in [0, psi_max].

    settings are resolved by for_l; their psi_max, n_max and tol are read.

    Branch and bound on E(psi) = z kappa psi^2 + g(psi), where
    g(psi) = lambda_min(H_free - z kappa psi (a + a+)) is concave, a
    minimum of functions affine in psi.  On an interval g lies above its
    chord, which bounds E from below by a convex quadratic (_chord_bound).
    SEED_POINTS evenly spaced samples, psi = 0 and psi_max among them, open
    the search.  An interval is pruned when its bound is at or above
    min(best - MARGIN, E(0) - ENERGY_TIE_EPS): nothing in it can beat the
    incumbent, nor break the tie with psi = 0.  Otherwise it is split at
    the bound's minimiser (the midpoint when that lies within SPLIT_EDGE of
    an end) and closed once narrower than REFINE_TOL.  A sample that
    becomes the incumbent and beats E(0) by more than ENERGY_TIE_EPS is
    polished once, by golden section to REFINE_TOL between its two
    evaluated neighbours, and that bracket is then closed without a bound:
    the closure assumes E is unimodal there, and a second, lower minimum
    inside the bracket is not excluded.  With three seeds a middle seed's
    bracket is all of [0, psi_max].  Minima in other intervals are still
    bounded, so a first-order (two-minimum) landscape is resolved when its
    basins fall in different brackets.

    The proof is only as tight as MARGIN, an absolute 1e-10 that covers
    the rounding of one dsbevx call (about eps * ||A||), and as the
    unimodality of each polished bracket.  MARGIN does not cover the
    inertia certificate's d = tol * max(1, |E|) of each sampled value,
    which is larger than MARGIN whenever |E| > 1: every sampled energy is
    certified to within d, but the bound that prunes is not widened by it.

    Ties with the psi = 0 energy within ENERGY_TIE_EPS report psi_star = 0.
    If the minimum sits against psi_max the bracket cannot be trusted and
    BracketExhausted is raised with the edge solution attached.
    """
    settings = settings.for_l(params.l)
    n_max, tol, psi_max = settings.n_max, settings.tol, settings.search_max()
    c = params.z * params.kappa

    def energy(p: float) -> float:
        return energy_at_psi(params, p, n_max, tol)

    # psi = 0 is solved once, from the sector blocks: it opens the search
    # and is the answer whenever the minimum ties with it
    zero = solution_at(params, 0.0, n_max, tol)
    tie = zero.energy - ENERGY_TIE_EPS
    psis = np.linspace(0.0, psi_max, SEED_POINTS).tolist()
    energies = [zero.energy] + [energy(p) for p in psis[1:]]
    best_psi, best_e = 0.0, zero.energy

    def polish(a: float, b: float) -> None:
        nonlocal best_psi, best_e
        p, e = _golden_section(energy, a, b, REFINE_TOL)
        if e < best_e:
            best_psi, best_e = p, e

    heap: list[tuple[float, float, float, float, float, float]] = []

    def push(a: float, b: float, ea: float, eb: float) -> None:
        bound, p = _chord_bound(c, a, b, ea, eb)
        if bound < min(best_e - MARGIN, tie):
            heapq.heappush(heap, (bound, a, b, ea, eb, p))

    last = len(psis) - 1
    i = int(np.argmin(energies))
    closed = ()
    if energies[i] < tie:
        best_psi, best_e = psis[i], energies[i]
        polish(psis[max(i - 1, 0)], psis[min(i + 1, last)])
        closed = (i - 1, i)
    for j in range(last):
        if j not in closed:
            push(psis[j], psis[j + 1], energies[j], energies[j + 1])

    while heap:
        bound, a, b, ea, eb, p = heapq.heappop(heap)
        if bound >= min(best_e - MARGIN, tie):
            break
        if b - a < REFINE_TOL:
            continue
        if min(p - a, b - p) < SPLIT_EDGE * (b - a):
            p = 0.5 * (a + b)
        e = energy(p)
        if e < best_e:
            best_psi, best_e = p, e
            if e < tie:
                polish(a, b)
                continue
        push(a, p, ea, e)
        push(p, b, e, eb)

    if zero.energy <= best_e + ENERGY_TIE_EPS:
        # flat or insulating landscape: report the symmetric solution exactly
        return zero

    if best_psi >= psi_max - 2.0 * REFINE_TOL:
        raise BracketExhausted(
            f"energy minimum sits at psi_max={psi_max:g}; "
            "the search interval (and likely n_max) is too small",
            solution_at(params, best_psi, n_max, tol),
        )
    return solution_at(params, best_psi, n_max, tol)
