import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jchm.operators import (
    ModelParams,
    bandwidth,
    build_l_diag,
    build_mean_field,
    build_mpjc,
    coupling_elements,
)

from conftest import sector_matrix


params_st = st.builds(
    ModelParams,
    l=st.integers(1, 4),
    omega=st.floats(0.2, 4.0),
    Omega=st.floats(0.2, 4.0),
    mu=st.floats(0.0, 1.5),
    kappa=st.floats(0.0, 1.0),
    z=st.integers(1, 6),
)


def test_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        ModelParams(l=1, omega=1.0, Omega=1.0, kappa=-0.1)
    with pytest.raises(ValueError, match="l"):
        ModelParams(l=5, omega=1.0, Omega=1.0)
    with pytest.raises(ValueError, match="z"):
        ModelParams(l=1, omega=1.0, Omega=1.0, z=0)
    p = ModelParams(l=1, omega=2.0, Omega=1.5)
    assert p.delta == 0.5


def test_coupling_elements_values():
    # sqrt((n+l)!/n!) against the factorial ratio
    assert coupling_elements(2, 6)[0] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert coupling_elements(1, 6)[3] == pytest.approx(2.0, abs=1e-15)
    assert coupling_elements(4, 6)[0] == pytest.approx(math.sqrt(24), abs=1e-15)
    for l in (1, 2, 3, 4):
        c = coupling_elements(l, 12)
        for n, value in enumerate(c):
            ratio = math.factorial(n + l) / math.factorial(n)
            assert value == pytest.approx(math.sqrt(ratio), rel=1e-14)


def test_mpjc_entries():
    params = ModelParams(l=2, omega=1.5, Omega=1.2)
    h = build_mpjc(params, 4).dense()
    # diagonal: omega * n on |g,n>, Omega + omega * n on |e,n>
    assert h[0, 0] == 0.0
    assert h[1, 1] == pytest.approx(1.2)
    assert h[4, 4] == pytest.approx(3.0)
    assert h[5, 5] == pytest.approx(1.2 + 3.0)
    # coupling <e,n|..|g,n+2> = sqrt((n+2)!/n!)
    assert h[1, 4] == pytest.approx(math.sqrt(2))
    assert h[4, 1] == pytest.approx(math.sqrt(2))
    assert h[5, 8] == pytest.approx(math.sqrt(12))
    # |g,0> has no partner below the l-photon step: its column is all zero
    assert np.count_nonzero(h[:, 0]) == 0
    # |g,1> likewise carries only its diagonal
    assert np.count_nonzero(h[:, 2]) == 1


def test_l_diag_values():
    assert build_l_diag(1, 1).tolist() == [0.0, 1.0, 1.0, 2.0]
    assert build_l_diag(2, 2).tolist() == [0.0, 2.0, 1.0, 3.0, 2.0, 4.0]


def test_mean_field_psi_zero_matches_mpjc_minus_mu_l():
    params = ModelParams(l=2, omega=1.3, Omega=1.1, mu=0.7, kappa=0.4)
    h = build_mean_field(params, 0.0, 6).dense()
    expected = build_mpjc(params, 6).dense()
    idx = np.arange(len(h))
    expected[idx, idx] -= params.mu * build_l_diag(2, 6)
    assert np.array_equal(h, expected)


def test_mean_field_kappa_independent_at_psi_zero():
    h1 = build_mean_field(ModelParams(l=1, omega=1.0, Omega=1.0, kappa=0.0), 0.0, 8)
    h2 = build_mean_field(ModelParams(l=1, omega=1.0, Omega=1.0, kappa=0.9), 0.0, 8)
    assert np.array_equal(h1.band, h2.band)


def test_mean_field_drive_entries():
    params = ModelParams(l=1, omega=1.0, Omega=1.0, mu=0.0, kappa=0.1, z=2)
    psi = 0.5
    h = build_mean_field(params, psi, 3).dense()
    # -z kappa psi sqrt(n+1) between |s,n> and |s,n+1>
    assert h[0, 2] == pytest.approx(-0.1)
    assert h[1, 3] == pytest.approx(-0.1)
    assert h[2, 4] == pytest.approx(-0.1 * math.sqrt(2))
    # scalar shift on the diagonal
    assert h[0, 0] == pytest.approx(2 * 0.1 * psi ** 2)


def test_sector_block_values():
    # the embedded 2x2 block matches the explicitly written sector matrix
    l, L, omega = 2, 3, 1.7
    params = ModelParams(l=l, omega=omega, Omega=omega, mu=1.0)
    h = build_mean_field(params, 0.0, L).dense()
    idx = [2 * (L - l) + 1, 2 * L]  # |e, L-l>, |g, L>
    block = h[np.ix_(idx, idx)]
    assert np.allclose(block, sector_matrix(l, L, omega), atol=1e-14)


def dense_mean_field_reference(params, psi, n_max):
    """The full matrix written entry by entry, in the same floating-point
    order as the band assembly, so the two must agree bitwise."""
    l, dim = params.l, 2 * (n_max + 1)
    n = np.arange(n_max + 1)
    h = np.zeros((dim, dim))
    h[2 * n, 2 * n] = params.omega * n
    h[2 * n + 1, 2 * n + 1] = params.Omega + params.omega * n
    for m, c in enumerate(coupling_elements(l, n_max)):
        h[2 * m + 1, 2 * (m + l)] = h[2 * (m + l), 2 * m + 1] = c
    idx = np.arange(dim)
    if params.mu != 0.0:
        h[idx, idx] -= params.mu * build_l_diag(l, n_max)
    drive = params.z * params.kappa * psi
    if drive != 0.0:
        h[idx, idx] += drive * psi
        for m in range(n_max):
            for s in (0, 1):
                h[2 * m + s, 2 * (m + 1) + s] = -drive * math.sqrt(m + 1.0)
                h[2 * (m + 1) + s, 2 * m + s] = -drive * math.sqrt(m + 1.0)
    return h


@settings(max_examples=60, deadline=None)
@given(params=params_st, n_extra=st.integers(0, 30), psi=st.floats(-2.0, 2.0))
def test_band_assembly_matches_dense_reference_bitwise(params, n_extra, psi):
    n_max = params.l + n_extra
    h = build_mean_field(params, psi, n_max)
    assert len(h) == 2 * (n_max + 1)
    assert np.array_equal(h.dense(), dense_mean_field_reference(params, psi, n_max))


@settings(max_examples=60, deadline=None)
@given(params=params_st, n_extra=st.integers(2, 12), psi=st.floats(-2.0, 2.0))
def test_band_layout(params, n_extra, psi):
    # (bandwidth + 1, dim) in Fortran order, nothing stored past the end of a
    # subdiagonal
    n_max = params.l + n_extra
    band = build_mean_field(params, psi, n_max).band
    dim = 2 * (n_max + 1)
    assert band.shape == (bandwidth(params.l) + 1, dim)
    assert band.flags.f_contiguous
    for k in range(1, len(band)):
        assert np.all(band[k, dim - k:] == 0.0)


@settings(max_examples=40, deadline=None)
@given(params=params_st, n_extra=st.integers(2, 10))
def test_commutes_with_l_at_psi_zero(params, n_extra):
    n_max = params.l + n_extra
    h = build_mean_field(params, 0.0, n_max).dense()
    d = np.diag(build_l_diag(params.l, n_max))
    assert np.abs(h @ d - d @ h).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(params=params_st, n_extra=st.integers(2, 10), psi=st.floats(0.0, 2.0))
def test_spectrum_even_in_psi_by_gauge(params, n_extra, psi):
    # the diagonal sign flip s_n = (-1)^n, extended by (-1)^l on excited
    # states, conjugates H(psi) into H(-psi) exactly
    n_max = params.l + n_extra
    h_plus = build_mean_field(params, psi, n_max).dense()
    h_minus = build_mean_field(params, -psi, n_max).dense()
    n = np.arange(n_max + 1)
    s = np.empty(2 * (n_max + 1))
    s[0::2] = (-1.0) ** n
    s[1::2] = (-1.0) ** (n + params.l)
    assert np.array_equal(s[:, None] * h_plus * s[None, :], h_minus)


def reference_mean_field_band(params, psi, n_max):
    """build_mpjc, then -mu*L on the diagonal, then the drive: the mean-field
    band assembled step by step with no shared or cached state."""
    band = build_mpjc(params, n_max).band.copy(order="F")
    if params.mu != 0.0:
        band[0] -= params.mu * build_l_diag(params.l, n_max)
    drive = params.z * params.kappa * psi
    if drive != 0.0:
        band[0] += drive * psi
        for m in range(n_max):
            band[2, 2 * m] = band[2, 2 * m + 1] = -drive * math.sqrt(m + 1.0)
    return band


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("mu", [0.0, 0.85])
@pytest.mark.parametrize("psi", [0.0, 0.6])
@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_mean_field_matches_stepwise_reference_bitwise(l, mu, psi, kappa):
    params = ModelParams(l=l, omega=1.3, Omega=0.9, mu=mu, kappa=kappa, z=3)
    n_max = l + 9
    band = build_mean_field(params, psi, n_max).band
    expected = reference_mean_field_band(params, psi, n_max)
    assert band.flags.f_contiguous and band.flags.writeable
    assert band.shape == expected.shape
    assert np.array_equal(band, expected)


@pytest.mark.parametrize("psi", [0.0, 0.6])
def test_mean_field_bands_do_not_alias(psi):
    # scribbling over one returned band leaves the next call's band intact
    params = ModelParams(l=2, omega=1.3, Omega=0.9, mu=0.85, kappa=0.3)
    first = build_mean_field(params, psi, 10).band
    first[:] = 7.0
    for p in (psi, 0.0, 0.6):
        assert np.array_equal(build_mean_field(params, p, 10).band,
                              reference_mean_field_band(params, p, 10))
