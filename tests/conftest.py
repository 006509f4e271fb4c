"""Shared independent oracles.

These deliberately avoid the package's own matrix builders: sector blocks are
written out entry by entry with math.factorial, and reference ground energies
come from enumerating every conserved-quantity sector of the truncated space
with numpy's full eigensolver.  Agreement between the package and these
oracles is then a two-route check, not a tautology.  The fixture
cold_zero_cache lets counting tests start from an empty psi = 0 cache, the
autouse fixture own_pool keeps each test's pooled grids on pools of its own,
and the count_* helpers record what they count.
"""

import math

import numpy as np
import pytest

from jchm import eigen, groundstate, operators, sweep


@pytest.fixture(autouse=True)
def own_pool():
    """Shut down run_grid's shared pool after each test: a pool forked
    under one test's monkeypatches, or a stand-in pool swapped in by one,
    never serves another test."""
    yield
    sweep.shutdown_pool()


@pytest.fixture
def cold_zero_cache():
    """An empty psi = 0 cache (groundstate._sectors) and psi-free band
    cache (operators._psi_free_band): a counting test then counts the
    solves and builds of its own psi = 0 keys, whichever tests ran
    before."""
    groundstate._sectors.cache_clear()
    operators._psi_free_band.cache_clear()


def count_certificates(monkeypatch) -> list[tuple[int, float, tuple]]:
    """(dimension, value, orders) of every inertia certificate
    (certify_smallest) that the psi = 0 entries make from here on."""
    calls: list[tuple[int, float, tuple]] = []
    certify = eigen.certify_smallest

    def counted(a, value, *orders):
        calls.append((len(a), value, orders))
        return certify(a, value, *orders)

    monkeypatch.setattr(groundstate, "certify_smallest", counted)
    return calls


def count_factorisations(monkeypatch) -> list[int]:
    """Dimensions of the band Choleskys (eigen._cholesky) made from here on."""
    dims: list[int] = []
    cholesky = eigen._cholesky

    def counted(a, shift):
        dims.append(len(a))
        return cholesky(a, shift)

    monkeypatch.setattr(eigen, "_cholesky", counted)
    return dims


def count_band_builds(monkeypatch) -> list[int]:
    """Truncations of the one-site bands (operators._mpjc_band) built from
    here on."""
    built: list[int] = []
    build = operators._mpjc_band

    def counted(l, omega, Omega, n_max):
        built.append(n_max)
        return build(l, omega, Omega, n_max)

    monkeypatch.setattr(operators, "_mpjc_band", counted)
    return built


def count_band_solves(monkeypatch) -> list[int]:
    """Dimensions of the band solves made from here on: every dsbevx call
    (eigen._lowest), through smallest_eigpair or warm_eigpair's fallback to
    it, from any module."""
    dims: list[int] = []
    lowest = eigen._lowest

    def counted(a):
        dims.append(len(a))
        return lowest(a)

    monkeypatch.setattr(eigen, "_lowest", counted)
    return dims


def sector_matrix(l: int, L: int, omega: float, Omega: float | None = None,
                  mu: float = 1.0) -> np.ndarray:
    """2x2 block of the zero-drive Hamiltonian at quantum number L >= l,
    in the basis {|e, L-l>, |g, L>}."""
    if Omega is None:
        Omega = omega
    c = math.sqrt(math.factorial(L) / math.factorial(L - l))
    return np.array([
        [Omega + (L - l) * omega - L * mu, c],
        [c, L * omega - L * mu],
    ])


def sector_eigs(l: int, L: int, omega: float, Omega: float | None = None,
                mu: float = 1.0) -> np.ndarray:
    """Both sector eigenvalues, ascending."""
    return np.linalg.eigvalsh(sector_matrix(l, L, omega, Omega, mu))


def zero_drive_sector_energies(l: int, omega: float, mu: float, n_max: int,
                               Omega: float | None = None) -> list[float]:
    """Lowest energy of every conserved-quantity sector of the truncated
    psi = 0 problem, in order of L.

    The 1x1 states |g, L> for L < l, the 2x2 blocks for l <= L <= n_max, and
    the 1x1 excited states |e, n> whose partner |g, n+l> falls outside the
    truncation.
    """
    if Omega is None:
        Omega = omega
    candidates = [L * (omega - mu) for L in range(0, min(l, n_max + 1))]
    for L in range(l, n_max + 1):
        candidates.append(float(sector_eigs(l, L, omega, Omega, mu)[0]))
    for n in range(n_max - l + 1, n_max + 1):
        candidates.append(Omega + n * omega - mu * (n + l))
    return candidates


def zero_drive_ground_oracle(l: int, omega: float, mu: float, n_max: int,
                             Omega: float | None = None) -> float:
    """Ground energy of the psi = 0 problem on the truncated space, the
    lowest of zero_drive_sector_energies."""
    return float(min(zero_drive_sector_energies(l, omega, mu, n_max, Omega)))
