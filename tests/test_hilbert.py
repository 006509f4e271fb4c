"""The truncated atom (x) Fock basis as build_l_diag and build_mpjc lay it out."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jchm.operators import ModelParams, build_l_diag, build_mpjc


def test_dimension():
    assert len(build_mpjc(ModelParams.resonant(2, 1.0), 2)) == 6
    assert len(build_mpjc(ModelParams.resonant(1, 1.0), 40)) == 82


def test_interleaved_ordering():
    # atom-fastest: |g,0>, |e,0>, |g,1>, |e,1>, ... with L = n + l * excitation
    for l in (1, 2, 3, 4):
        diag = build_l_diag(l, l + 3)
        assert list(diag[:4]) == [0, l, 1, 1 + l]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_max"):
        build_mpjc(ModelParams.resonant(2, 1.0), 1)
    with pytest.raises(ValueError, match="l"):
        build_mpjc(ModelParams.resonant(0, 1.0), 10)
    with pytest.raises(ValueError, match="l"):
        build_mpjc(ModelParams.resonant(5, 1.0), 10)


@given(l=st.integers(1, 4), n_max=st.integers(4, 40))
def test_l_multiplicities(l, n_max):
    # every L between l and n_max appears exactly twice, the rest once
    diag = build_l_diag(l, n_max)
    counts = Counter(int(v) for v in diag)
    for L in range(0, n_max + l + 1):
        expected = 2 if l <= L <= n_max else 1
        assert counts.get(L, 0) == expected
    assert sum(counts.values()) == len(diag)
