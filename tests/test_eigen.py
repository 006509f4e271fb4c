import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jchm.eigen import EigPair, EigensolverError, SymmetricMatrix, smallest_eigpair
from jchm.operators import ModelParams, build_mean_field

from conftest import zero_drive_ground_oracle

# smallest eigenvalue of the 2x2 block {|e,0>, |g,2>} at l=2, omega=3, mu=1:
# (1/2) (5 - sqrt(17))
HALF_FIVE_MINUS_SQRT17 = 0.4384471871911697


def test_two_by_two_exchange():
    pair = smallest_eigpair(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pair.value == pytest.approx(-1.0, abs=1e-12)
    # sign fixed by the first of the two equal-magnitude components
    assert pair.vector == pytest.approx(
        np.array([1.0, -1.0]) / math.sqrt(2), abs=1e-12)


def test_diagonal():
    pair = smallest_eigpair(np.diag([3.0, -2.0, 7.0]))
    assert pair.value == pytest.approx(-2.0, abs=1e-14)
    assert pair.vector == pytest.approx(np.array([0.0, 1.0, 0.0]), abs=1e-14)


def test_sector_block_value():
    block = np.array([[1.0, math.sqrt(2)], [math.sqrt(2), 4.0]])
    pair = smallest_eigpair(block)
    assert pair.value == pytest.approx(HALF_FIVE_MINUS_SQRT17, abs=1e-12)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        smallest_eigpair(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        smallest_eigpair(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="tol"):
        smallest_eigpair(np.eye(2), tol=0.0)


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


sym_st = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(2, 24).map(lambda n: (n, n)),
    elements=st.floats(-5.0, 5.0),
)


@settings(max_examples=80, deadline=None)
@given(raw=sym_st)
def test_matches_numpy_and_residual(raw):
    a = raw + raw.T
    pair = smallest_eigpair(a)
    w = np.linalg.eigvalsh(a)
    assert pair.value == pytest.approx(float(w[0]), abs=1e-9 * max(1.0, abs(w[0])))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    residual = np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
    assert residual <= 1e-10 * max(1.0, abs(pair.value)) + 1e-12
    # sign convention
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0


@settings(max_examples=40, deadline=None)
@given(raw=sym_st)
def test_principal_submatrix_interlacing(raw):
    # the smallest eigenvalue cannot rise when the matrix grows
    a = raw + raw.T
    if a.shape[0] < 3:
        return
    sub = a[:-1, :-1]
    assert smallest_eigpair(a).value <= smallest_eigpair(sub).value + 1e-9


def test_eigpair_is_plain_data():
    pair = EigPair(value=1.0, vector=np.array([1.0]))
    assert pair.value == 1.0


def test_dense_input_and_band_agree():
    a = np.array([[2.0, -1.0, 0.5], [-1.0, 0.0, 3.0], [0.5, 3.0, 1.0]])
    band = SymmetricMatrix.from_dense(a)
    assert len(band) == 3 and band.bandwidth == 2
    assert np.array_equal(band.dense(), a)
    dense_pair, band_pair = smallest_eigpair(a), smallest_eigpair(band)
    assert dense_pair.value == band_pair.value
    assert np.array_equal(dense_pair.vector, band_pair.vector)


def test_one_by_one():
    pair = smallest_eigpair(np.array([[-4.5]]))
    assert pair.value == -4.5
    assert pair.vector.tolist() == [1.0]


def test_residual_check_runs_on_every_solve():
    # rounding alone leaves a residual far above 1e-20 at dimension 42
    params = ModelParams(l=1, omega=1.1, Omega=0.9, kappa=0.2)
    h = build_mean_field(params, 0.4, 20)
    with pytest.raises(EigensolverError, match="residual"):
        smallest_eigpair(h, tol=1e-20)


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
    w0 = float(np.linalg.eigvalsh(a)[0])
    assert pair.value == pytest.approx(w0, abs=1e-9 * max(1.0, abs(w0)))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    residual = np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
    assert residual <= 1e-10 * max(1.0, abs(pair.value)) + 1e-12
    assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0
