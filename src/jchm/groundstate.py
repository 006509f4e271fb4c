"""Ground energy as a function of the order parameter and its minimisation.

The drive amplitude psi is treated variationally: the full mean-field matrix
is rebuilt at every psi, never linearised, and its smallest eigenvalue is
taken without an eigenvector (eigen.smallest_eigenvalue, certified by
inertia).  psi = 0 takes its lowest L-sector energy in closed form, under
the same certificate, and its <L> is that sector's L; only a nonzero
reported minimiser is solved with its eigenvector (eigen.smallest_eigpair),
for <L>.  The same sector data prove, with no band solve, that no energy
within a reach h* of psi = 0 comes within ENERGY_TIE_EPS of it (zero_reach:
a Schur complement on the psi = 0 state, whose drive couples only to the
sectors L* +- 1); when h* covers psi_max the psi = 0 solution is returned
at once, and otherwise the search starts at h*.  The spectrum is even in
psi, so only psi >= 0 is searched, by branch and bound: the energy is
z kappa psi^2 plus a concave function of psi, so on any interval it lies
above a convex quadratic fixed by the two end energies, or by lower bounds
on them.  Intervals whose bound cannot
beat the best energy by MARGIN, nor the psi = 0 energy by ENERGY_TIE_EPS,
are pruned; the rest are split until narrower than REFINE_TOL.  Each split
point is tested before it is solved: one band Cholesky (energy_unless_above)
usually proves its energy above the pruning threshold, and that proof is
kept as the point's lower bound.  Each new best that beats psi = 0 inside
[0, psi_max) is polished by Brent's method and its bracket closed
unbounded, which assumes one minimum in that bracket; a best at psi_max is
left to the bounds.  MARGIN covers the rounding of one eigensolve, not the
eigensolve tolerance (see minimize_over_psi).  Minimisers within
ENERGY_TIE_EPS of the psi = 0 energy collapse to exactly zero so the
insulating solution is reported cleanly.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import (
    SymmetricMatrix,
    _positive_definite,
    certify_smallest,
    smallest_eigenvalue,
    smallest_eigpair,
    tolerance,
)
from .operators import (
    ModelParams,
    _psi_free_band,
    build_l_diag,
    build_mean_field,
)

SEED_POINTS = 3
REFINE_TOL = 1e-6
ENERGY_TIE_EPS = 1e-9
MARGIN = 1e-10
SPLIT_EDGE = 0.05
# Largest accepted drive z kappa psi_max^2: the square root of the largest
# float.  The drive part of the matrix has norm at most 5 z kappa psi_max^2,
# so a rounding error on that scale (about 1e139 at the limit) still squares
# to a finite number in the residual norm of smallest_eigpair.
DRIVE_LIMIT = math.sqrt(sys.float_info.max)

# Brent's golden-section step, the fraction (3 - sqrt 5)/2 of a bracket
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class MeanFieldSolution:
    """Minimised mean-field ground state at one parameter point."""

    psi_star: float
    energy: float
    l_expect: float
    n_max_used: int


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


class BracketExhausted(RuntimeError):
    """The energy minimum sits at psi_max = sqrt(n_max)/2; n_max is too small.

    Carries the best solution found at the interval edge in .solution.
    """

    def __init__(self, message: str, solution: MeanFieldSolution):
        super().__init__(message)
        self.solution = solution


def energy_at_psi(params: ModelParams, psi: float, n_max: int) -> float:
    """Smallest eigenvalue of the mean-field Hamiltonian at fixed psi, without
    its eigenvector."""
    return smallest_eigenvalue(build_mean_field(params, psi, n_max))


def energy_unless_above(params: ModelParams, psi: float, n_max: int,
                        t: float) -> float | None:
    """energy_at_psi(params, psi, n_max), or None when the energy provably
    lies above t.

    One band Cholesky of A - t I decides: it succeeds exactly when every
    eigenvalue of A lies above t (Sylvester's law of inertia), up to
    rounding of order eps * ||A||.  Only when it fails is the same matrix
    solved, by the same call as energy_at_psi.
    """
    a = build_mean_field(params, psi, n_max)
    if _positive_definite(a, t):
        return None
    return smallest_eigenvalue(a)


def expected_L(vector: np.ndarray, l: int) -> float:
    """Expectation of the conserved quantity L in a unit-norm state of the
    l-photon basis; the truncation follows from the vector's length."""
    return float(np.dot(vector * vector, build_l_diag(l, len(vector) // 2 - 1)))


def _brent(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimise f on the open interval (a, b) by Brent's bounded parabolic
    interpolation with golden-section steps (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5), to xatol plus
    sqrt(eps) |x|; returns the best evaluated (x, f(x)).  f is never
    evaluated at a or b."""
    sqrt_eps = math.sqrt(sys.float_info.epsilon)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            # the parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
                golden = False
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def solution_at(params: ModelParams, psi: float, n_max: int) -> MeanFieldSolution:
    """The mean-field ground state at fixed psi.

    psi = 0 is solved from its L-sector blocks (_sector_solution), any
    other psi by smallest_eigpair on the band.
    """
    if psi == 0.0:
        return _sector_solution(params, n_max)
    return _band_solution(params, psi, n_max)


def _band_solution(params: ModelParams, psi: float, n_max: int) -> MeanFieldSolution:
    pair = smallest_eigpair(build_mean_field(params, psi, n_max))
    return MeanFieldSolution(
        psi_star=float(psi),
        energy=pair.value,
        l_expect=expected_L(pair.vector, params.l),
        n_max_used=n_max,
    )


@dataclass(frozen=True)
class _Sectors:
    """The psi = 0 spectrum as zero_reach and _sector_solution read it.

    energy is E0, the lowest E_L, and L its sector; tied says whether the
    next E_L lies within eigen.tolerance(E0).  second is E1, the
    second-lowest eigenvalue of the psi-free band: the next E_L or the
    upper root of block L, whichever is lower.  neighbour is E_R, the
    lowest E_L of the sectors L - 1 and L + 1, and weight is
    W = ||(a + a+)|0>||^2 for the lowest state |0>.
    """

    L: int
    energy: float
    tied: bool
    second: float
    neighbour: float
    weight: float


@lru_cache(maxsize=128)
def _sectors(l: int, omega: float, Omega: float, mu: float,
             n_max: int) -> _Sectors:
    """The psi = 0 sector data of one (l, omega, Omega, mu, n_max), from the
    block roots of the psi-free band; shared by every kappa.

    At psi = 0 the Hamiltonian commutes with L, so each L = 0..n_max + l
    has one candidate energy E_L: the lower root of the 2x2 block
    {|e,L-l>, |g,L>} for l <= L <= n_max, and the single state |g,L> for
    L < l or |e,L-l> for L > n_max, whose partner the truncation drops.
    """
    band = _psi_free_band(l, omega, Omega, mu, n_max)
    exc, gnd = band[0, 1::2], band[0, 0::2]     # |e,n>, |g,n>, n = 0..n_max
    k = n_max - l + 1                           # number of 2x2 blocks
    # block L couples |e,L-l> in column 2(L-l)+1 to |g,L>, for L = l..n_max
    c = band[2 * l - 1, 1:2 * k:2]
    half = 0.5 * (exc[:k] - gnd[l:])
    root = np.hypot(half, c)
    mid = 0.5 * (exc[:k] + gnd[l:])
    energies = np.concatenate((gnd[:l], mid - root, exc[k:]))
    L = int(np.argmin(energies))
    value = float(energies[L])
    following = float(np.partition(energies, 1)[1])
    upper = math.inf                            # block L's upper root

    def spread(n: int) -> float:
        # squared norm of (a + a+)|n>: 2n + 1, or n at the truncation edge
        return 2.0 * n + 1.0 if n < n_max else float(n)

    # X = a + a+ keeps the atom, so W is spread over the state's two parts
    if L < l:
        weight = spread(L)                      # |g,L>
    elif L > n_max:
        weight = spread(L - l)                  # |e,L-l>
    else:
        # the lower root's vector puts weight p on |e,L-l>, 1 - p on |g,L>
        b = L - l
        p = float((root[b] - half[b]) / (2.0 * root[b]))
        weight = p * spread(b) + (1.0 - p) * spread(L)
        upper = float(mid[b] + root[b])
    neighbour = min(float(energies[j]) for j in (L - 1, L + 1)
                    if 0 <= j < len(energies))
    return _Sectors(L=L, energy=value,
                    tied=following - value <= tolerance(value),
                    second=min(following, upper), neighbour=neighbour,
                    weight=weight)


def _sector_solution(params: ModelParams, n_max: int) -> MeanFieldSolution:
    """The psi = 0 ground state, taken from the L-sector blocks (_sectors).

    The lowest E_L passes the same inertia certificate (certify_smallest)
    on the full band as a value solve, and <L> is its L exactly.  When the
    two lowest E_L lie within eigen.tolerance(E), the sectors cannot say
    which state the band solve picks, and the band is solved.
    """
    key = (params.l, params.omega, params.Omega, params.mu, n_max)
    sectors = _sectors(*key)
    if sectors.tied:
        return _band_solution(params, 0.0, n_max)

    certify_smallest(SymmetricMatrix(_psi_free_band(*key)), sectors.energy)
    return MeanFieldSolution(psi_star=0.0, energy=sectors.energy,
                             l_expect=float(sectors.L), n_max_used=n_max)


def zero_reach(params: ModelParams, n_max: int) -> float:
    """Half-width h of an interval [-h, h] on which the energy at truncation
    n_max provably exceeds T = E0 - ENERGY_TIE_EPS, E0 the psi = 0 energy;
    infinite at zero hopping, 0.0 when nothing is proven.

    With c = z kappa, H(psi) = H0 + c psi^2 - c psi X, X = a + a+, and
    ||X|| <= 2 sqrt(n_max).  Take the Schur complement of H(psi) - T on the
    lowest psi = 0 state |0>: <0|X|0> = 0, and X|0> lies in the sectors
    L* +- 1 (_Sectors).  For |psi| <= h and s = T + 2 c h sqrt(n_max), the
    rest of H(psi) - T lies above Q (H0 - s + c psi^2) Q, Q = 1 - |0><0|,
    which is positive definite when s <= E1, and the complement is then at
    least E0 - T + c psi^2 (1 - c W / (E_R - s + c psi^2)) > 0 when
    c W <= E_R - s.  So h = (min(E1, E_R - c W) - T) / (2 c sqrt(n_max)).
    A sector tie (_sector_solution solves the band) is not certified.
    """
    c = params.z * params.kappa
    if c == 0.0:
        return math.inf
    sectors = _sectors(params.l, params.omega, params.Omega, params.mu, n_max)
    if sectors.tied:
        return 0.0
    t = sectors.energy - ENERGY_TIE_EPS
    room = min(sectors.second, sectors.neighbour - c * sectors.weight) - t
    return max(room / (2.0 * c * math.sqrt(n_max)), 0.0)


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
                      n_max: int | None = None) -> MeanFieldSolution:
    """Global minimum of the ground energy over psi in [0, psi_max] at
    truncation n_max (resolve_n_max).

    psi_max = sqrt(n_max)/2 keeps the displaced-field photon number
    psi_max^2 a factor 4 inside the truncation.  A drive z kappa psi_max^2
    above DRIVE_LIMIT is rejected with ValueError before any solve, and so
    is a mu or omega whose rounding on the band at the probe's 2 n_max,
    eps max(|omega|, |Omega|, |mu|) (4 n_max + l), exceeds MARGIN: every
    bound below assumes that rounding is far below MARGIN.

    psi = 0 is solved first, and zero_reach proves from its sector data
    that E(psi) > E(0) - ENERGY_TIE_EPS for psi <= h*.  If h* >= psi_max
    the psi = 0 solution is the answer and nothing else is solved.
    Otherwise the first seed interval opens at h*, whose energy is tested
    like a split point's (below) with h the interval's width
    psi_max/2 - h*, and it is dropped when h* passes the middle seed.

    Branch and bound on E(psi) = z kappa psi^2 + g(psi), where
    g(psi) = lambda_min(H_free - z kappa psi (a + a+)) is concave, a
    minimum of functions affine in psi.  On an interval g lies above its
    chord, which bounds E from below by a convex quadratic (_chord_bound);
    a chord through lower bounds on the end energies bounds E as well.
    SEED_POINTS evenly spaced samples, psi = 0 and psi_max among them, open
    the search.  An interval is pruned when its bound is at or above
    T = min(best - MARGIN, E(0) - ENERGY_TIE_EPS): nothing in it can beat
    the incumbent, nor break the tie with psi = 0.  Otherwise it is split
    at the bound's minimiser p (the midpoint when that lies within
    SPLIT_EDGE of an end) and closed once narrower than REFINE_TOL.

    p is tested before it is solved: energy_unless_above tries the band
    Cholesky of A(p) - t I, t = T + z kappa h^2/4 with h the wider child.
    When it succeeds, E(p) > t is proven and t stands in for E(p) at the
    children's shared end; a bound never becomes the incumbent.  The
    widening z kappa h^2/4 is what the chord bound of a child of width h
    loses at most below its ends, so a child whose other end also clears T
    by that much is pruned.  Only when the test fails is A(p) solved.

    A sample that becomes the incumbent below psi_max and beats E(0) by
    more than ENERGY_TIE_EPS is polished once, by Brent's method (_brent)
    to REFINE_TOL/4 between its two evaluated neighbours, and that bracket
    is then closed without a bound: the closure assumes E is unimodal
    there, and a second, lower minimum inside the bracket is not excluded.
    With three seeds a middle seed's bracket is all of [0, psi_max].  A
    seed incumbent at psi_max is not polished: its interval stays on the
    heap, where a steep fall into the edge is pruned at once.  Minima in
    other intervals are still bounded, so a first-order (two-minimum)
    landscape is resolved when its basins fall in different brackets.

    The proof is only as tight as MARGIN, an absolute 1e-10 that covers
    the rounding of one dsbevx call or band Cholesky (about eps * ||A||),
    and as the unimodality of each polished bracket.  MARGIN does not cover
    the inertia certificate's d = eigen.tolerance(E) of each sampled value,
    which is larger than MARGIN whenever |E| > 1: every sampled energy is
    certified to within d, but the bound that prunes is not widened by it.

    Ties with the psi = 0 energy within ENERGY_TIE_EPS report psi_star = 0.
    If the minimum sits against psi_max, n_max is too small to hold it and
    BracketExhausted is raised with the edge solution attached.
    """
    n_max = resolve_n_max(params.l, n_max)
    psi_max = math.sqrt(n_max) / 2.0
    c = params.z * params.kappa
    if not c * psi_max ** 2 <= DRIVE_LIMIT:
        raise ValueError(
            f"x: kappa = {params.kappa:g} makes the drive z kappa psi_max^2 = "
            f"{c * psi_max ** 2:g} exceed sqrt(float max) = {DRIVE_LIMIT:g}")
    # the band's rounding, eps times its largest diagonal entry, must stay
    # below MARGIN up to the truncation probe's 2 n_max
    scale = max(abs(params.omega), abs(params.Omega), abs(params.mu))
    if not sys.float_info.epsilon * scale * (4 * n_max + params.l) <= MARGIN:
        raise ValueError(
            f"mu/omega: max(|omega|, |Omega|, |mu|) = {scale:g} rounds the "
            f"band at n_max = {2 * n_max} by more than MARGIN = {MARGIN:g}")

    def energy(p: float) -> float:
        return energy_at_psi(params, p, n_max)

    # psi = 0 is solved once, from the sector blocks: it opens the search
    # and is the answer whenever the minimum ties with it
    zero = solution_at(params, 0.0, n_max)
    reach = zero_reach(params, n_max)
    if reach >= psi_max:
        return zero
    tie = zero.energy - ENERGY_TIE_EPS
    psis = np.linspace(0.0, psi_max, SEED_POINTS).tolist()
    energies = [zero.energy] + [energy(p) for p in psis[1:]]
    best_psi, best_e = 0.0, zero.energy

    def polish(a: float, b: float) -> None:
        nonlocal best_psi, best_e
        p, e = _brent(energy, a, b, REFINE_TOL / 4.0)
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
        if i < last:
            polish(psis[i - 1], psis[i + 1])
            closed = (i - 1, i)
    # nothing in [0, reach] reaches tie, so the first seed interval opens at
    # reach, tested like a split point, and is dropped if reach passes it
    if 0 not in closed and reach < psis[1]:
        a, ea = psis[0], energies[0]
        if reach > 0.0:
            t = min(best_e - MARGIN, tie) + 0.25 * c * (psis[1] - reach) ** 2
            e = energy_unless_above(params, reach, n_max, t)
            a, ea = reach, t if e is None else e
        push(a, psis[1], ea, energies[1])
    for j in range(1, last):
        if j not in closed:
            push(psis[j], psis[j + 1], energies[j], energies[j + 1])

    while heap:
        bound, a, b, ea, eb, p = heapq.heappop(heap)
        threshold = min(best_e - MARGIN, tie)
        if bound >= threshold:
            break
        if b - a < REFINE_TOL:
            continue
        if min(p - a, b - p) < SPLIT_EDGE * (b - a):
            p = 0.5 * (a + b)
        t = threshold + 0.25 * c * max(p - a, b - p) ** 2
        e = energy_unless_above(params, p, n_max, t)
        if e is None:
            e = t
        elif e < best_e:
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
            f"energy minimum sits at psi_max={psi_max:g}; raise n_max",
            solution_at(params, best_psi, n_max),
        )
    return solution_at(params, best_psi, n_max)
