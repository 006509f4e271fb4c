"""Ground energy as a function of the order parameter and its minimisation.

The drive amplitude psi is treated variationally: the full mean-field matrix
is built once at every psi the search takes, never linearised, and a psi
that is solved is solved once, on that band, for its certified ground
pair (eigen.smallest_eigpair, the one cold solver): the value bounds the
search, and when the point becomes the answer its vector gives <L>, and
the polish (below) its slope.  psi = 0 takes its lowest
L-sector energy analytically, under the same inertia certificate, and
its <L> is that sector's L.  One routine (_zero_level) reads that level
off a psi-free band and certifies it on the same band; per key (l, omega,
Omega, mu, n_max) it runs on the band at n_max and on one at 2 n_max, the
level the label is read from, and both levels are cached as one read-only
entry (zero_sectors), so every kappa of a grid row shares both, as do
energy_scan and refine_boundary.  The n_max sector data give each entry
one hopping threshold c_ins (_Sectors.c_ins: a photon-number bound on
the drive and a Schur complement on the psi = 0 state, whose drive
couples only to the sectors L* +- 1), at or below which no energy at any
psi comes within ENERGY_TIE_EPS of the psi = 0 energy: such a cell
returns the psi = 0 solution after one comparison.  Above it, the same
complement with the drive's norm bound proves that much within a reach
h* of psi = 0 (_Sectors.reach), and the search opens on the one interval
[h*, psi_max].
The spectrum is even in psi, so only psi >= 0 is searched, by branch and
bound: the energy is z kappa psi^2 plus a concave function of psi, so on
any interval it lies above a convex quadratic fixed by the two end
energies, or by lower bounds on them.  Intervals whose bound cannot beat
the best energy by MARGIN, nor the psi = 0 energy by ENERGY_TIE_EPS, are
pruned; the rest are split until narrower than REFINE_TOL.  Every point
the search evaluates (psi_max, h* and each split point) goes through one
rule (energy_at_psi): band Choleskys of its matrix prove its energy above
the pruning threshold wherever they can, the highest proven level is kept
as the point's lower bound, and only a point that may beat the threshold
is solved.  Each solved split point that beats psi = 0 is polished on
the slope E'(psi) = z kappa (2 psi - <a + a+>), which Hellmann-Feynman
gives from the eigenvector: a safeguarded secant finds its root, the
mean-field self-consistency psi = <a>, from the split point's pair, each
later step solved warm from the last (eigen.warm_eigpair) and
certified.  The interval it split is then
dropped unbounded, which assumes one minimum in that interval; a best at
psi_max is left to the bounds.  MARGIN covers the rounding of one
eigensolve, not the eigensolve tolerance (see minimize_over_psi).
Minimisers within ENERGY_TIE_EPS of the psi = 0 energy collapse to
exactly zero so the insulating solution is reported cleanly.  A minimum
against psi_max is returned like any other, flagged at_psi_max: the
truncation, not the physics, bounds it, and the caller decides.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import (
    EigPair,
    SymmetricMatrix,
    _positive_definite,
    certify_smallest,
    smallest_eigpair,
    tolerance,
    warm_eigpair,
)
from .operators import (
    ModelParams,
    _frozen,
    _psi_free_band,
    build_l_diag,
    build_mean_field,
    coupling_elements,
)

REFINE_TOL = 1e-6
ENERGY_TIE_EPS = 1e-9
MARGIN = 1e-10
SPLIT_EDGE = 0.05
# Largest accepted drive z kappa psi_max^2: the square root of the largest
# float.  The drive part of the matrix has norm at most 5 z kappa psi_max^2,
# so a rounding error on that scale (about 1e139 at the limit) still squares
# to a finite number in the residual norm of smallest_eigpair.
DRIVE_LIMIT = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class MeanFieldSolution:
    """Minimised mean-field ground state at one parameter point."""

    psi_star: float
    energy: float
    l_expect: float
    n_max_used: int

    @property
    def at_psi_max(self) -> bool:
        """The minimum sits against psi_max = sqrt(n_max_used)/2, within
        2 REFINE_TOL: n_max is too small to hold it."""
        return (self.psi_star
                >= math.sqrt(self.n_max_used) / 2.0 - 2.0 * REFINE_TOL)


def default_n_max(l: int) -> int:
    """Default base truncation: the coupling grows as n^(l/2), so the
    high-order models get a shorter ladder for the same matrix budget."""
    if not 1 <= l <= 4:
        raise ValueError(f"l must be between 1 and 4, got {l}")
    return 40 if l <= 2 else 24


def resolve_n_max(l: int, n_max: int | None) -> int:
    """n_max, or default_n_max(l) when None; ValueError below l + 2."""
    if n_max is None:
        return default_n_max(l)
    if n_max < l + 2:
        raise ValueError(f"n_max: must be at least l + 2 = {l + 2}, got {n_max}")
    return n_max


def energy_at_psi(params: ModelParams, psi: float, n_max: int,
                  threshold: float, width: float
                  ) -> tuple[float, EigPair | None]:
    """The energy at psi as the psi search needs it: (E, pair) with pair
    the certified ground pair of the mean-field Hamiltonian at psi
    (eigen.smallest_eigpair) and E its value when E <= threshold, and
    otherwise (b, None) with threshold <= b < E a lower bound.

    width is that of the widest interval psi ends.  A = build_mean_field
    is built once and tried by band Cholesky of A - r I, which succeeds
    exactly when every eigenvalue of A lies above r (Sylvester's law of
    inertia), up to rounding of order eps * ||A||, at these r in turn:

    1. r = threshold + z kappa width^2/4, the clearance that lets an
       interval of that width, whose other end clears it too, be pruned;
    2. r = threshold: when that fails, E <= threshold, and only then is
       A solved, for its value and vector;
    3. the rungs r = threshold + z kappa (width/2^k)^2/4, k = 1, 2, ...,
       the clearance a descendant of width width/2^k needs, down to width
       REFINE_TOL: the first proven rung is the bound, threshold if none.
    """
    c = params.z * params.kappa
    a = build_mean_field(params, psi, n_max)
    clearance = threshold + 0.25 * c * width * width
    if _positive_definite(a, clearance):
        return clearance, None
    if not _positive_definite(a, threshold):
        pair = smallest_eigpair(a)
        return pair.value, pair
    width *= 0.5
    while width >= REFINE_TOL:
        rung = threshold + 0.25 * c * width * width
        if _positive_definite(a, rung):
            return rung, None
        width *= 0.5
    return threshold, None


def expected_L(vector: np.ndarray, l: int) -> float:
    """Expectation of the conserved quantity L in a unit-norm state of the
    l-photon basis; the truncation follows from the vector's length."""
    return float(np.dot(vector * vector, build_l_diag(l, len(vector) // 2 - 1)))


def _field_expectation(vector: np.ndarray) -> float:
    """<a + a+> in a unit-norm state of the l-photon basis: the drive keeps
    the atom, so it joins |s,n> to |s,n+1>, two columns on, with amplitude
    sqrt(n + 1)."""
    amp = coupling_elements(1, len(vector) // 2 - 1)
    return 2.0 * float(np.dot(amp, vector[0:-2:2] * vector[2::2]
                              + vector[1:-2:2] * vector[3::2]))


def _slope(params: ModelParams, psi: float, pair: EigPair) -> float:
    """The slope E'(psi) = z kappa (2 psi - <a + a+>) that the ground pair
    at psi gives by Hellmann-Feynman."""
    return params.z * params.kappa * (2.0 * psi
                                      - _field_expectation(pair.vector))


def _slope_point(params: ModelParams, psi: float, n_max: int,
                 previous: tuple[float, EigPair]) -> tuple[EigPair, float]:
    """The ground pair at psi and its slope (_slope), solved warm
    (eigen.warm_eigpair) from previous = (psi', pair'), the certified pair
    at a nearby psi'.

    The shift lies below the spectrum by Weyl's inequality: H(psi) -
    H(psi') = c (psi^2 - psi'^2) - c (psi - psi') X with c = z kappa and
    ||X|| <= 2 sqrt(n_max), and pair'.value lies within tolerance of its
    smallest eigenvalue.
    """
    c = params.z * params.kappa
    near, known = previous
    shift = (known.value - c * abs(psi * psi - near * near)
             - 2.0 * c * math.sqrt(n_max) * abs(psi - near)
             - tolerance(known.value))
    pair = warm_eigpair(build_mean_field(params, psi, n_max), shift,
                        known.vector)
    return pair, _slope(params, psi, pair)


def _polish(params: ModelParams, n_max: int, a: float, b: float,
            p: float, pair: EigPair) -> tuple[float, EigPair]:
    """The stationary point of E on (a, b) found from the split point p, with
    its ground pair, by a safeguarded secant on the slope E' (_slope);
    returns the best evaluated (psi, pair), p included.

    The sign of E'(p) keeps the side of (a, b) that holds the minimum,
    assuming E has one minimum there.  The first step is Newton's with the
    largest curvature E'' can have, 2 z kappa (g is concave), so it never
    passes the root; later steps are secants through the last two points,
    each point solved warm from the one before (_slope_point).  A step
    that leaves the bracket, or is longer than half the step before last,
    is replaced by bisection, so the bracket or the steps shrink
    geometrically.
    The polish stops once a step or the bracket is below REFINE_TOL/4, or
    the slope is exactly zero.
    """
    c = params.z * params.kappa
    xtol = REFINE_TOL / 4.0
    slope = _slope(params, p, pair)
    best_psi, best = p, pair
    lo, hi = (a, p) if slope > 0.0 else (p, b)
    x, x_old, s_old = p, None, None
    older = last = hi - lo
    while slope != 0.0 and hi - lo >= xtol:
        if x_old is None:
            step = -slope / (2.0 * c)
        elif slope != s_old:
            step = -slope * (x - x_old) / (slope - s_old)
        else:
            step = math.inf
        # Newton's step only bounds the distance to the root from below:
        # it neither ends the polish nor sets the length later steps halve
        final = x_old is not None
        if not lo < x + step < hi or abs(step) > 0.5 * older:
            step, final = 0.5 * (lo + hi) - x, True
        if final:
            older, last = last, abs(step)
        x_old, s_old = x, slope
        x += step
        pair, slope = _slope_point(params, x, n_max, (x_old, pair))
        if pair.value < best.value:
            best_psi, best = x, pair
        if slope > 0.0:
            hi = x
        else:
            lo = x
        if final and abs(step) < xtol:
            break
    return best_psi, best


def _pair_solution(l: int, psi: float, n_max: int,
                   pair: EigPair) -> MeanFieldSolution:
    return MeanFieldSolution(psi_star=float(psi), energy=pair.value,
                             l_expect=expected_L(pair.vector, l),
                             n_max_used=n_max)


@dataclass(frozen=True)
class _Sectors:
    """The psi = 0 entry of one key: the certified solutions at n_max
    (solution) and at 2 n_max, the level the label is read from (fine),
    each from a band of its own truncation (_zero_level), the hopping
    threshold c_ins, and the n_max spectrum that reach reads:
    tied says whether the next
    E_L lies within eigen.tolerance(E0) of E0, the lowest E_L; second is
    E1, the second-lowest eigenvalue of the psi-free band: the next E_L or
    the upper root of the lowest state's block, whichever is lower;
    neighbour is E_R, the lowest E_L of the sectors L - 1 and L + 1;
    weight is W = ||(a + a+)|0>||^2 for the lowest state |0>.

    c_ins is the largest c = z kappa at which the sector data prove
    E(psi) >= T = E0 - ENERGY_TIE_EPS at every psi and truncation n_max,
    so that psi = 0 wins every comparison of the search.  With X = a + a+
    and N = a+a, the truncated a keeps (sqrt(t) a - 1/sqrt(t))+ (sqrt(t) a
    - 1/sqrt(t)) >= 0, so X <= t N + 1/t, and t = 1/psi gives
    H(psi) = H0 + c psi^2 - c psi X >= H0 - c N.  With Q = 1 - |0><0| and
    x = X|0>, which lies in the sectors L* +- 1 with <0|X|0> = 0, a Schur
    complement on |0> gives E(psi) - T >= (E0 - T) + c psi^2 (1 - c S),
    S = <x| (Q (H0 - c N - T) Q)^-1 |x>, so (i) Q (H0 - c N - T) Q >= 0 and
    (ii) c S <= 1 prove it.  H0 - c N keeps L, so both are closed-form
    per sector (_insulating_hopping), and both fail monotonically as c
    grows.  T is raised by MARGIN there, which covers the rounding of the
    sector data (minimize_over_psi keeps it below MARGIN); c_ins is 0 at a
    sector tie.  N <= n_max turns a reach past psi_max into both
    conditions, so that reach implies c <= c_ins in exact arithmetic.
    """

    solution: MeanFieldSolution
    fine: MeanFieldSolution
    c_ins: float
    tied: bool
    second: float
    neighbour: float
    weight: float

    def reach(self, c: float) -> float:
        """Half-width h of an interval [-h, h] on which the energy at
        truncation n_max and hopping c = z kappa > 0 provably exceeds
        T = E0 - ENERGY_TIE_EPS, E0 the psi = 0 energy; 0.0 when nothing
        is proven.  Zero hopping never asks: c_ins >= 0 settles it.

        H(psi) = H0 + c psi^2 - c psi X, X = a + a+, and ||X|| <=
        2 sqrt(n_max).  Take the Schur complement of H(psi) - T on the
        lowest psi = 0 state |0>: <0|X|0> = 0, and X|0> lies in the sectors
        L* +- 1.  For |psi| <= h and s = T + 2 c h sqrt(n_max), the rest of
        H(psi) - T lies above Q (H0 - s + c psi^2) Q, Q = 1 - |0><0|, which
        is positive definite when s <= E1, and the complement is then at
        least E0 - T + c psi^2 (1 - c W / (E_R - s + c psi^2)) > 0 when
        c W <= E_R - s.  So h = (min(E1, E_R - c W) - T) / (2 c sqrt(n_max)).
        A sector tie (the band is solved) is not certified.
        """
        if self.tied:
            return 0.0
        t = self.solution.energy - ENERGY_TIE_EPS
        room = min(self.second, self.neighbour - c * self.weight) - t
        return max(room / (2.0 * c * math.sqrt(self.solution.n_max_used)),
                   0.0)


def _lowest_sector(energies: np.ndarray) -> tuple[int, float, float, bool]:
    """(L, E_L, next, tied) for the lowest sector energy E_L of energies,
    indexed by L: next is the second-lowest, and tied says whether it lies
    within eigen.tolerance(E_L) of E_L."""
    L = int(energies.argmin())
    value = float(energies[L])
    following = float(np.sort(energies)[1])
    return L, value, following, following - value <= tolerance(value)


@lru_cache(maxsize=16)
def _sector_photons(l: int, n_max: int) -> tuple[np.ndarray, ...]:
    """(ne, ng, off, mix) over the sectors L = 0..n_max + l of truncation
    n_max, each a 2x2 block {|e,L-l>, |g,L>}: the photons of |e,L-l> and
    of |g,L>, 0 for a state the truncation lacks, the coupling off, and
    2 off sqrt(ne ng).  Cached, so the results are read-only."""
    size = n_max + l + 1
    ne = np.maximum(np.arange(size, dtype=np.float64) - l, 0.0)
    ng = np.arange(size, dtype=np.float64)
    ng[n_max + 1:] = 0.0
    off = np.zeros(size)
    off[l:n_max + 1] = coupling_elements(l, n_max)
    return tuple(map(_frozen, (ne, ng, off, 2.0 * off * np.sqrt(ne * ng))))


def _insulating_hopping(l: int, n_max: int, L: int, lower: np.ndarray,
                        upper: np.ndarray, exc: np.ndarray, gnd: np.ndarray,
                        vacuum_e: float, cross: float, floor: float) -> float:
    """The largest c = z kappa at which the truncation-n_max sector data
    prove (i) Q (H0 - c N - floor) Q positive semidefinite and (ii)
    c S <= 1, S = <x| (Q (H0 - c N - floor) Q)^-1 |x>, x = (a + a+)|0>
    (see _Sectors.c_ins).

    lower holds E_L for L = 0..n_max + l and upper the upper block roots;
    exc and gnd are the diagonals of |e,n> and |g,n>, n = 0..n_max; |0>,
    in sector L, has weight vacuum_e on |e,L-l> and cross = u v, the
    product of its two amplitudes.  Each sector is a 2x2 block
    {|e,L-l>, |g,L>} of H0 - c N - floor (_sector_photons), a single
    state's absent partner standing in as entry 1 with no photons and no
    coupling: its
    determinant d0 - c s1 + c^2 s2 first vanishes at its smaller root, and
    in sector L only the partner of |0> is kept.  N only lowers each block,
    so (i) fails past the least root, limit, and (ii) is solved on
    [0, limit] by Newton's method (below).
    """
    ne, ng, off, mix = _sector_photons(l, n_max)
    size = len(ne)
    de, dg, top = np.ones((3, size))
    np.subtract(exc, floor, out=de[l:])
    np.subtract(gnd, floor, out=dg[:n_max + 1])
    np.subtract(upper, floor, out=top[l:n_max + 1])
    d0 = (lower - floor) * top                  # the product of the roots
    a, b = de * ng, dg * ne
    s1 = a + b
    # sector 0, |g,0> alone, holds no photon and never fails
    roots = 2.0 * d0[1:] / (s1[1:] + np.hypot(a[1:] - b[1:], mix[1:]))
    if l <= L <= n_max:
        # the partner of |0> holds photons 1 - vacuum_e on |e,L-l>
        photons = (1.0 - vacuum_e) * (L - l) + vacuum_e * L
        roots[L - 1] = float(top[L]) / photons if photons > 0.0 else math.inf
    elif L:
        roots[L - 1] = math.inf
    limit = float(roots.min())

    # (ii): x = (a + a+)|0> in the sectors L -+ 1, each a term
    # (n0 - c n1) / (d0 - c s1 + c^2 s2) of S
    vacuum_g, m = 1.0 - vacuum_e, L - l
    terms = []
    for j, xe, xg, xeg in (
            (L - 1, vacuum_e * m, vacuum_g * L,
             cross * math.sqrt(max(m, 0) * L)),
            (L + 1, vacuum_e * (m + 1), vacuum_g * (L + 1),
             cross * math.sqrt(max(m + 1, 0) * (L + 1)))):
        if not 0 <= j < size:
            continue
        if j > n_max:                           # |g,j> is truncated away
            xg = xeg = 0.0
        e_j, g_j, off_j, ne_j, ng_j, d0_j, s1_j = (
            float(v[j]) for v in (de, dg, off, ne, ng, d0, s1))
        terms.append((g_j * xe - 2.0 * off_j * xeg + e_j * xg,
                      ng_j * xe + ne_j * xg, d0_j, s1_j, ne_j * ng_j))
    # R = 1/S = prod d / sum_j n_j prod_{k != j} d_k, so g = R - c is
    # finite up to limit, concave (1/<x|M^-1|x> is a minimum over y of
    # <y|M|y>, affine in c) and decreasing: Newton's steps from a c past
    # its root fall to the root without passing it.  S only grows with c,
    # so 1/S(0) lies past the root
    c = min(limit, 1.0 / sum(n0 / a0 for n0, _, a0, _, _ in terms))
    (n0, n1, a0, a1, a2), *rest = terms
    while True:
        n, dn = n0 - c * n1, -n1
        d, dd = a0 - c * (a1 - c * a2), 2.0 * c * a2 - a1
        for m0, m1, b0, b1, b2 in rest:         # n/d + m/e = (n e + m d)/(d e)
            m, e = m0 - c * m1, b0 - c * (b1 - c * b2)
            de_ = 2.0 * c * b2 - b1
            n, dn = n * e + m * d, dn * e + n * de_ - m1 * d + m * dd
            d, dd = d * e, dd * e + d * de_
        g = d / n - c
        if not g < 0.0:
            return c
        following = c - g / ((dd * n - d * dn) / (n * n) - 1.0)
        if not following < c:
            return c
        c = following


def _zero_level(l: int, band: np.ndarray) -> tuple[
        MeanFieldSolution, int, float, bool, np.ndarray,
        tuple[np.ndarray, ...]]:
    """The certified psi = 0 level of a psi-free band at its own truncation
    n: (solution, L, next, tied, energies, blocks), with L, next and tied
    as _lowest_sector gives them for energies, the lowest E_L for L =
    0..n + l, and blocks = (half, coupling, root, mid) of the 2x2 blocks
    L = l..n, whose roots are mid -+ root.

    At psi = 0 the Hamiltonian commutes with L, so each L has one candidate
    energy E_L: the lower root of the 2x2 block {|e,L-l>, |g,L>} for
    l <= L <= n, and the single state |g,L> for L < l or |e,L-l> for
    L > n, whose partner the truncation drops.  The lowest E_L passes the
    same inertia certificate as a band solve, on this band
    (certify_smallest), and <L> is its L exactly.  When the two lowest E_L
    lie within eigen.tolerance(E0), the sectors cannot say which state the
    band solve picks, and the band is solved (smallest_eigpair).
    """
    n = band.shape[1] // 2 - 1
    exc, gnd = band[0, 1::2], band[0, 0::2]     # |e,n>, |g,n>
    k = n - l + 1                               # number of 2x2 blocks
    # block L couples |e,L-l> in column 2(L-l)+1 to |g,L>, for L = l..n
    e, g = exc[:k], gnd[l:]
    half = 0.5 * (e - g)
    coupling = band[2 * l - 1, 1:2 * k:2]
    root = np.hypot(half, coupling)
    mid = 0.5 * (e + g)
    energies = np.concatenate((gnd[:l], mid - root, exc[k:]))
    L, value, following, tied = _lowest_sector(energies)
    a = SymmetricMatrix(band)
    if tied:
        solution = _pair_solution(l, 0.0, n, smallest_eigpair(a))
    else:
        certify_smallest(a, value)
        solution = MeanFieldSolution(0.0, value, float(L), n)
    return solution, L, following, tied, energies, (half, coupling, root, mid)


@lru_cache(maxsize=128)
def _sectors(l: int, omega: float, Omega: float, mu: float, n_max: int,
             tol: float) -> _Sectors:
    """The psi = 0 entry of one key (l, omega, Omega, mu, n_max): each
    level certified on a band of its own truncation (_zero_level), n_max on
    the cached psi-free band the key's psi search copies, and 2 n_max on
    one assembled for this entry alone, as the entry holds all that is read
    from it; tol = eigen.TOL, which the certificates read, keys each proof
    to the tolerance it holds at.  The n_max level's sector data also give
    the hopping threshold and the reach (_Sectors).
    """
    band = _psi_free_band(l, omega, Omega, mu, n_max)
    solution, L, following, tied, energies, blocks = _zero_level(l, band)
    half, coupling, root, mid = blocks
    exc, gnd = band[0, 1::2], band[0, 0::2]
    upper = math.inf                            # block L's upper root

    def spread(n: int) -> float:
        # squared norm of (a + a+)|n>: 2n + 1, or n at the truncation edge
        return 2.0 * n + 1.0 if n < n_max else float(n)

    # X = a + a+ keeps the atom, so W is spread over the state's two parts;
    # cross is the product of the two amplitudes of |0>
    cross = 0.0
    if L < l:
        vacuum_e = 0.0                          # |g,L>
        weight = spread(L)
    elif L > n_max:
        vacuum_e = 1.0                          # |e,L-l>
        weight = spread(L - l)
    else:
        # the lower root's vector puts weight vacuum_e on |e,L-l>, the rest
        # on |g,L>, and its amplitudes have the opposite sign to the coupling
        b = L - l
        r = float(root[b])
        vacuum_e = (r - float(half[b])) / (2.0 * r)
        cross = -float(coupling[b]) / (2.0 * r)
        weight = vacuum_e * spread(b) + (1.0 - vacuum_e) * spread(L)
        upper = float(mid[b]) + r
    # E_R over the sectors L - 1 and L + 1 that exist
    neighbour = min(energies[L - 1:L + 2:2].tolist() if L
                    else energies[1:2].tolist())
    fine = _zero_level(l, _psi_free_band.__wrapped__(l, omega, Omega, mu,
                                                     2 * n_max))[0]
    c_ins = 0.0 if tied else _insulating_hopping(
        l, n_max, L, energies, mid + root, exc, gnd, vacuum_e, cross,
        solution.energy - ENERGY_TIE_EPS + MARGIN)
    return _Sectors(solution, fine, c_ins, tied, min(following, upper),
                    neighbour, weight)


def zero_sectors(params: ModelParams, n_max: int) -> _Sectors:
    """The psi = 0 entry of params' key at truncation n_max (_sectors),
    which every kappa shares."""
    # tolerance(1.0) is eigen.TOL, read now, as the certificates read it
    return _sectors(params.l, params.omega, params.Omega, params.mu, n_max,
                    tolerance(1.0))


def _chord_bound(c: float, a: float, b: float, ea: float,
                 eb: float) -> tuple[float, float]:
    """Minimum over [a, b] of the lower bound of E = c psi^2 + g with g
    concave and c > 0, and where it is attained.

    g lies above its chord, so E >= lin(psi) - c (psi - a)(b - psi), with
    lin the straight line through (a, ea) and (b, eb): a convex quadratic.
    Returns (bound, psi).
    """
    slope = (eb - ea) / (b - a)
    p = min(max(0.5 * (a + b) - slope / (2.0 * c), a), b)
    return ea + slope * (p - a) - c * (p - a) * (b - p), p


def minimize_over_psi(params: ModelParams,
                      n_max: int | None = None) -> MeanFieldSolution:
    """Global minimum of the ground energy over psi in [0, psi_max] at
    truncation n_max (resolve_n_max).

    psi_max = sqrt(n_max)/2 keeps the displaced-field photon number
    psi_max^2 a factor 4 inside the truncation.  A drive z kappa psi_max^2
    above DRIVE_LIMIT is rejected with ValueError before any solve, and so
    is a mu or omega whose rounding on the band at the label's 2 n_max,
    eps max(|omega|, |Omega|, |mu|) (4 n_max + l), exceeds MARGIN: every
    bound below assumes that rounding is far below MARGIN.

    psi = 0 is read first, from its key's entry (zero_sectors), whose n_max
    level is certified on the psi-free band the search copies.  At a
    hopping z kappa <= c_ins, the entry's threshold, zero hopping included
    as c_ins >= 0, its sector data prove E(psi) >= E(0) - ENERGY_TIE_EPS at
    every psi, so the psi = 0 solution is the answer and nothing else is
    built or solved.  Otherwise they
    prove E(psi) > E(0) - ENERGY_TIE_EPS for psi <= h*, the entry's reach,
    and the search opens on the one interval [h*, psi_max]: psi_max
    is evaluated first, then h* unless it is 0, where E(0) is known, each
    like a split point (below) with width psi_max - h*.

    Branch and bound on E(psi) = z kappa psi^2 + g(psi), where
    g(psi) = lambda_min(H_free - z kappa psi (a + a+)) is concave, a
    minimum of functions affine in psi.  On an interval g lies above its
    chord, which bounds E from below by a convex quadratic (_chord_bound);
    a chord through lower bounds on the end energies bounds E as well.  An
    interval is pruned when its bound is at or above T = min(best - MARGIN,
    E(0) - ENERGY_TIE_EPS): nothing in it can beat the incumbent, nor break
    the tie with psi = 0.  Otherwise it is split at the bound's minimiser p
    (the midpoint when that lies within SPLIT_EDGE of an end) and dropped
    once narrower than REFINE_TOL.

    Every evaluated point p, psi_max and h* among them, goes through one
    rule (energy_at_psi), which builds its matrix A(p) once, with h the
    widest interval p ends (the wider child of a split, psi_max - h* at the
    opening).  Band Choleskys of A(p) - t I prove E(p) above the clearance
    t = T + z kappa h^2/4, what the chord bound of an interval of width h
    loses at most below its ends, or else above T and the highest rung
    T + z kappa (h/2^k)^2/4 they can, the clearance a descendant of width
    h/2^k needs.  Only a candidate, E(p) <= T, is solved, once, on that
    same band: the incumbent's solution, <L> included, is built from that
    pair.  A chord through lower bounds still bounds E, so a bound stands
    in for E(p) at the children's shared end, but it never becomes the
    incumbent, and psi_max, evaluated against T = E(0) - ENERGY_TIE_EPS
    before any incumbent, becomes the first one only when solved.

    A solved split point lies at or below T up to rounding, so below the
    incumbent by MARGIN; when it beats E(0) by more than ENERGY_TIE_EPS it
    is polished once (_polish) inside the interval it split: a safeguarded
    secant on the slope E', from the split point's pair, with warm
    certified solves after it, to REFINE_TOL/4.  The best evaluated point,
    with the <L> of its own vector, becomes the incumbent and is the
    solution returned, so no point is solved twice.  A solved point within
    rounding of the tie with E(0) is only split, as the final collapse
    returns psi = 0 for it anyway, so the incumbent is always psi = 0, the
    solved psi_max or a polished minimum.  A polished interval is
    then dropped without a bound: that assumes E is unimodal there, so
    that its one stationary point is its minimum, and a second, lower
    minimum inside it is not excluded.  The first interval to
    split is all of [h*, psi_max].  An incumbent at psi_max is not
    polished: its interval stays on the heap, where a steep fall into the
    edge is pruned at once.  Minima in other intervals are still bounded,
    so a first-order (two-minimum) landscape is resolved when its basins
    fall in different intervals.

    The proof is only as tight as MARGIN, an absolute 1e-10 that covers
    the rounding of one dsbevx call or band Cholesky (about eps * ||A||),
    and as the unimodality of each polished interval.  A polished psi_star
    is fixed by the root of the slope, to within REFINE_TOL where E'' is
    not small, and |E'(psi_star)| <= 2 z kappa REFINE_TOL, since E'' <=
    2 z kappa.  MARGIN does not cover
    the inertia certificate's d = eigen.tolerance(E) of each sampled value,
    which is larger than MARGIN whenever |E| > 1: every sampled energy is
    certified to within d, but the bound that prunes is not widened by it.

    Ties with the psi = 0 energy within ENERGY_TIE_EPS report psi_star = 0.
    A minimum against psi_max is returned like any other, with at_psi_max
    set: n_max is too small to hold it, and each caller decides what that
    means (classify_point calls it SF, energy_scan rejects it).
    """
    n_max = resolve_n_max(params.l, n_max)
    psi_max = math.sqrt(n_max) / 2.0
    c = params.z * params.kappa
    if not c * psi_max ** 2 <= DRIVE_LIMIT:
        raise ValueError(
            f"x: kappa = {params.kappa:g} makes the drive z kappa psi_max^2 = "
            f"{c * psi_max ** 2:g} exceed sqrt(float max) = {DRIVE_LIMIT:g}")
    # the band's rounding, eps times its largest diagonal entry, must stay
    # below MARGIN up to the 2 n_max the label is read at
    scale = max(abs(params.omega), abs(params.Omega), abs(params.mu))
    if not sys.float_info.epsilon * scale * (4 * n_max + params.l) <= MARGIN:
        raise ValueError(
            f"mu/omega: max(|omega|, |Omega|, |mu|) = {scale:g} rounds the "
            f"band at n_max = {2 * n_max} by more than MARGIN = {MARGIN:g}")

    # psi = 0 is solved once, from the sector blocks: it opens the search
    # and is the answer whenever the minimum ties with it, and at once
    # below the entry's threshold
    sectors = zero_sectors(params, n_max)
    zero = sectors.solution
    if c <= sectors.c_ins:
        return zero
    reach = sectors.reach(c)
    tie = zero.energy - ENERGY_TIE_EPS
    best = zero
    # nothing in [0, reach] reaches tie, so one interval [reach, psi_max]
    # opens the search; psi_max becomes the incumbent only when solved
    width = psi_max - reach
    e_max, pair = energy_at_psi(params, psi_max, n_max, tie, width)
    if pair is not None and e_max < tie:
        best = _pair_solution(params.l, psi_max, n_max, pair)
    e_reach = zero.energy
    if reach > 0.0:
        e_reach, _ = energy_at_psi(params, reach, n_max,
                                   min(best.energy - MARGIN, tie), width)

    heap: list[tuple[float, float, float, float, float, float]] = []

    def push(a: float, b: float, ea: float, eb: float) -> None:
        bound, p = _chord_bound(c, a, b, ea, eb)
        if bound < min(best.energy - MARGIN, tie):
            heapq.heappush(heap, (bound, a, b, ea, eb, p))

    push(reach, psi_max, e_reach, e_max)
    while heap:
        bound, a, b, ea, eb, p = heapq.heappop(heap)
        threshold = min(best.energy - MARGIN, tie)
        if bound >= threshold:
            break
        if b - a < REFINE_TOL:
            continue
        if min(p - a, b - p) < SPLIT_EDGE * (b - a):
            p = 0.5 * (a + b)
        e, pair = energy_at_psi(params, p, n_max, threshold,
                                max(p - a, b - p))
        if pair is not None and e < tie:
            psi, pair = _polish(params, n_max, a, b, p, pair)
            best = _pair_solution(params.l, psi, n_max, pair)
            continue
        push(a, p, ea, e)
        push(p, b, e, eb)

    if zero.energy <= best.energy + ENERGY_TIE_EPS:
        # flat or insulating landscape: report the symmetric solution exactly
        return zero
    return best
