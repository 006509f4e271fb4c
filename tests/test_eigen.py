import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jchm import eigen
from jchm.eigen import (
    EigPair,
    EigensolverError,
    SymmetricMatrix,
    certify_smallest,
    smallest_eigpair,
    tolerance,
    warm_eigpair,
)
from jchm.operators import ModelParams, build_mean_field

from conftest import zero_drive_ground_oracle

# smallest eigenvalue of the 2x2 block {|e,0>, |g,2>} at l=2, omega=3, mu=1:
# (1/2) (5 - sqrt(17))
HALF_FIVE_MINUS_SQRT17 = 0.4384471871911697


def band(*rows) -> SymmetricMatrix:
    """A literal lower band: rows[k][j] is the entry (j + k, j)."""
    return SymmetricMatrix(np.array(rows, dtype=np.float64, order="F"))


def test_two_by_two_exchange():
    pair = smallest_eigpair(band([0.0, 0.0], [1.0, 0.0]))
    assert pair.value == pytest.approx(-1.0, abs=1e-12)
    # sign fixed by the first of the two equal-magnitude components
    assert pair.vector == pytest.approx(
        np.array([1.0, -1.0]) / math.sqrt(2), abs=1e-12)


def test_diagonal():
    pair = smallest_eigpair(band([3.0, -2.0, 7.0]))
    assert pair.value == pytest.approx(-2.0, abs=1e-14)
    assert pair.vector == pytest.approx(np.array([0.0, 1.0, 0.0]), abs=1e-14)


def test_sector_block_value():
    block = band([1.0, 4.0], [math.sqrt(2), 0.0])
    pair = smallest_eigpair(block)
    assert pair.value == pytest.approx(HALF_FIVE_MINUS_SQRT17, abs=1e-12)


def test_rejects_nonsymmetric():
    # a band holds the lower triangle only, so no nonsymmetric matrix can be
    # passed: the matrix solved is the symmetric one the band stores
    a = band([0.0, 0.0], [1.0, 0.0])
    assert np.array_equal(a.dense(), a.dense().T)


def test_band_solve_above_former_dense_limit():
    # dimension 2202 (past the old 2048 switch to Lanczos) on a physical band:
    # at psi = 0 the ground energy is the lowest of the sector energies
    params = ModelParams.resonant(1, 1.3)
    h = build_mean_field(params, 0.0, 1100)
    assert len(h) == 2202
    pair = smallest_eigpair(h)
    expected = zero_drive_ground_oracle(1, 1.3, 1.0, 1100)
    assert pair.value == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


@st.composite
def lower_bands(draw) -> SymmetricMatrix:
    """A random symmetric matrix in lower band storage: dimension 1 to 24,
    bandwidth 0 to dimension - 1, zeros past the end of each subdiagonal."""
    n = draw(st.integers(1, 24))
    width = draw(st.integers(0, n - 1))
    rows = draw(hnp.arrays(np.float64, (width + 1, n),
                           elements=st.floats(-10.0, 10.0)))
    for k in range(1, width + 1):
        rows[k, n - k:] = 0.0
    return SymmetricMatrix(np.asfortranarray(rows))


def full_matrix(h: SymmetricMatrix) -> np.ndarray:
    """The full matrix of a band, assembled here with np.diag."""
    n = len(h)
    a = np.diag(h.band[0])
    for k in range(1, h.bandwidth + 1):
        sub = np.diag(h.band[k, : n - k], -k)
        a = a + sub + sub.T
    return a


def leading_submatrix(h: SymmetricMatrix) -> SymmetricMatrix:
    """The band of h without its last row and column."""
    n = len(h) - 1
    rows = h.band[: n, : n].copy(order="F")
    for k in range(1, len(rows)):
        rows[k, n - k:] = 0.0
    return SymmetricMatrix(rows)


def dense_lowest(a: np.ndarray) -> float:
    """Smallest eigenvalue of a dense symmetric matrix by numpy's general
    eigensolver (LAPACK dgeev).

    numpy's eigvalsh is not the reference: its symmetric tridiagonal solve
    returns -1.99792 for TINY_ENTRIES, whose smallest eigenvalue is -2 to
    within 1e-160.  dgeev is backward stable without that stage, and a
    symmetric matrix has orthogonal eigenvectors, so its backward error
    bounds the eigenvalue error (Bauer-Fike).
    """
    return float(np.linalg.eigvals(a).real.min())


# a 2 in (1, 0) and 3.44e-161 or 0 elsewhere, found by hypothesis
TINY = 3.4405676774255984e-161
TINY_ENTRIES = band([TINY, TINY, TINY, TINY], [2.0, TINY, TINY, 0.0],
                    [TINY, TINY, 0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(h=lower_bands())
@example(h=TINY_ENTRIES)
def test_matches_numpy_and_residual(h):
    a = full_matrix(h)
    pair = smallest_eigpair(h)
    w0 = dense_lowest(a)
    assert pair.value == pytest.approx(w0, abs=1e-9 * max(1.0, abs(w0)))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    residual = np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
    assert residual <= 1e-10 * max(1.0, abs(pair.value)) + 1e-12
    # sign convention
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0


@settings(max_examples=40, deadline=None)
@given(h=lower_bands())
def test_principal_submatrix_interlacing(h):
    # the smallest eigenvalue cannot rise when the matrix grows
    if len(h) < 2:
        return
    sub = leading_submatrix(h)
    assert np.array_equal(full_matrix(sub), full_matrix(h)[:-1, :-1])
    assert smallest_eigpair(h).value <= smallest_eigpair(sub).value + 1e-9


def test_eigpair_is_plain_data():
    pair = EigPair(value=1.0, vector=np.array([1.0]))
    assert pair.value == 1.0


def test_one_by_one():
    pair = smallest_eigpair(band([-4.5]))
    assert pair.value == -4.5
    assert pair.vector.tolist() == [1.0]


def test_residual_check_runs_on_every_solve(monkeypatch):
    # rounding alone leaves a residual far above 1e-20 at dimension 42
    params = ModelParams(l=1, omega=1.1, Omega=0.9, kappa=0.2)
    h = build_mean_field(params, 0.4, 20)
    monkeypatch.setattr(eigen, "TOL", 1e-20)
    with pytest.raises(EigensolverError, match="residual"):
        smallest_eigpair(h)


band_case_st = st.tuples(
    st.integers(1, 4),                       # l
    st.integers(0, 40),                      # n_max - l
    st.floats(0.2, 4.0), st.floats(0.2, 4.0),  # omega, Omega
    st.floats(0.0, 1.5), st.floats(0.0, 1.0),  # mu, kappa
    st.integers(1, 6), st.floats(-3.0, 3.0),   # z, psi
)


@settings(max_examples=120, deadline=None)
@given(case=band_case_st)
def test_band_path_matches_dense_reference(case):
    l, extra, omega, Omega, mu, kappa, z, psi = case
    params = ModelParams(l=l, omega=omega, Omega=Omega, mu=mu, kappa=kappa, z=z)
    h = build_mean_field(params, psi, l + extra)
    a = h.dense()
    # nothing beyond the drive (offset 2) and the coupling (offset 2l - 1)
    width = max(2, 2 * l - 1)
    assert h.bandwidth == width
    assert not np.tril(a, -width - 1).any() and not np.triu(a, width + 1).any()

    pair = smallest_eigpair(h)
    w0 = dense_lowest(a)
    assert pair.value == pytest.approx(w0, abs=1e-9 * max(1.0, abs(w0)))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    residual = np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
    assert residual <= 1e-10 * max(1.0, abs(pair.value)) + 1e-12
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0


def test_eigpair_full_bandwidth_input():
    # a full-bandwidth band, the storage a dense array is solved in
    a = band([2.0, 0.0, 1.0], [-1.0, 3.0, 0.0], [0.5, 0.0, 0.0])
    dense = np.array([[2.0, -1.0, 0.5], [-1.0, 0.0, 3.0], [0.5, 3.0, 1.0]])
    assert np.array_equal(a.dense(), dense)
    values, vectors = np.linalg.eigh(dense)
    pair = smallest_eigpair(a)
    assert pair.value == pytest.approx(values[0], abs=1e-12)
    assert abs(float(pair.vector @ vectors[:, 0])) == pytest.approx(1.0,
                                                                   abs=1e-12)
    assert smallest_eigpair(band([-4.5])).value == -4.5


def generic_band():
    params = ModelParams(l=2, omega=1.1, Omega=0.9, mu=0.7, kappa=0.2)
    return build_mean_field(params, 0.4, 12)


def test_certificate_accepts_the_smallest_eigenvalue():
    h = generic_band()
    w = np.linalg.eigvalsh(h.dense())
    certify_smallest(h, smallest_eigpair(h).value)
    certify_smallest(h, float(w[0]))


def test_certificate_rejects_a_higher_eigenvalue():
    h = generic_band()
    second = float(np.linalg.eigvalsh(h.dense())[1])
    with pytest.raises(EigensolverError) as exc:
        certify_smallest(h, second)
    assert str(exc.value).startswith(
        f"residual bound 1e-10 * max(1, |{second:.6g}|) not certified: "
        "an eigenvalue lies below")


def test_eigpair_rejects_a_pair_that_is_not_the_lowest(monkeypatch):
    # dsbevx made to return the second eigenpair: its residual passes, so
    # only the inertia certificate can tell that it is not the lowest
    h = generic_band()
    values, vectors = np.linalg.eigh(h.dense())
    second = float(values[1])
    residual = np.linalg.norm(h.dense() @ vectors[:, 1] - second * vectors[:, 1])
    assert residual <= 0.01 * tolerance(second)
    monkeypatch.setattr(eigen, "_lowest",
                        lambda a: (second, vectors[:, 1:2]))
    with pytest.raises(EigensolverError, match="an eigenvalue lies below"):
        smallest_eigpair(h)


def test_certificate_rejects_a_value_below_the_spectrum():
    h = generic_band()
    low = float(np.linalg.eigvalsh(h.dense())[0]) - 1e-6
    with pytest.raises(EigensolverError, match="no eigenvalue lies below"):
        certify_smallest(h, low)


def cut(h: SymmetricMatrix, m: int) -> SymmetricMatrix:
    """The band of the leading principal submatrix A_m of h."""
    rows = h.band[:, :m].copy(order="F")
    for k in range(1, len(rows)):
        rows[k, max(m - k, 0):] = 0.0
    return SymmetricMatrix(rows)


@settings(max_examples=80, deadline=None)
@given(h=lower_bands(), data=st.data())
@example(h=TINY_ENTRIES, data=None)
def test_certificate_of_leading_submatrices(h, data):
    # given an order m, the certificate reads the first m columns of h's
    # band and nothing past the end of A_m's subdiagonals (NaN there is
    # never read); given orders m and len(h), one value is certified for
    # both, so a value of A_m alone fails at whichever order it misses
    m = len(h) if data is None else data.draw(st.integers(1, len(h)))
    sub = cut(h, m)
    lowest = smallest_eigpair(sub).value
    certify_smallest(h, lowest, m)
    poisoned = sub.band.copy(order="F")
    for k in range(1, len(poisoned)):
        poisoned[k, max(m - k, 0):] = np.nan
    certify_smallest(SymmetricMatrix(poisoned), lowest)
    whole = smallest_eigpair(h).value
    if whole < lowest - 2.0 * tolerance(lowest):
        with pytest.raises(EigensolverError, match="an eigenvalue lies below"):
            certify_smallest(h, lowest, m, len(h))
        with pytest.raises(EigensolverError, match="no eigenvalue lies below"):
            certify_smallest(h, whole, m, len(h))
    elif whole > lowest - 0.5 * tolerance(lowest):
        certify_smallest(h, lowest, m, len(h))


def test_certificate_bound_below_rounding_fails(monkeypatch):
    # as for the residual check, no value is certified to 1e-20
    params = ModelParams(l=1, omega=1.1, Omega=0.9, kappa=0.2)
    h = build_mean_field(params, 0.4, 20)
    value = smallest_eigpair(h).value
    monkeypatch.setattr(eigen, "TOL", 1e-20)
    with pytest.raises(EigensolverError, match=r"^residual bound 1e-20 \* max"):
        certify_smallest(h, value)


@settings(max_examples=150, deadline=None)
@given(l=st.integers(1, 4), n_extra=st.integers(2, 40),
       omega=st.floats(0.2, 4.0), mu=st.floats(0.0, 1.5),
       kappa=st.floats(0.0, 1.0), psi=st.floats(0.0, 3.0),
       move=st.floats(-0.5, 0.5))
def test_warm_eigpair_matches_the_cold_solve(l, n_extra, omega, mu, kappa,
                                             psi, move):
    # from the certified pair at a previous psi up to 0.5 away, shifted
    # below the spectrum by Weyl's inequality (||a + a+|| <= 2 sqrt(n_max)),
    # the warm solve returns the smallest eigenvalue to the certificate's
    # tolerance, a residual 100 times below it, and smallest_eigpair's sign
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=mu, kappa=kappa)
    n_max = l + n_extra
    c = params.z * kappa
    near = psi + move
    previous = build_mean_field(params, near, n_max)
    known = smallest_eigpair(previous)
    certify_smallest(previous, known.value)
    shift = (known.value - c * abs(psi * psi - near * near)
             - 2.0 * c * math.sqrt(n_max) * abs(psi - near)
             - tolerance(known.value))
    h = build_mean_field(params, psi, n_max)
    pair = warm_eigpair(h, shift, known.vector)
    energy = smallest_eigpair(h).value
    assert abs(pair.value - energy) <= tolerance(energy)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    residual = np.linalg.norm(h.dense() @ pair.vector - pair.value * pair.vector)
    assert residual <= 0.01 * tolerance(pair.value)
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0


def test_warm_eigpair_refuses_a_shift_above_the_spectrum(monkeypatch):
    # a shift above the smallest eigenvalue fails its Cholesky: no inverse
    # iteration runs, and the cold solve's pair is returned, certified
    h = generic_band()
    cold = smallest_eigpair(h)
    calls = []

    def counted(a):
        calls.append(len(a))
        return smallest_eigpair(a)

    monkeypatch.setattr(eigen, "smallest_eigpair", counted)
    monkeypatch.setattr(eigen, "dpbtrs", None)      # no step may run
    start = np.ones(len(h)) / math.sqrt(len(h))
    pair = warm_eigpair(h, cold.value + 1e-6, start)
    assert calls == [len(h)]
    assert pair.value == cold.value
    assert np.array_equal(pair.vector, cold.vector)
