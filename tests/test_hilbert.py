from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jchm.hilbert import build_space
from jchm.operators import build_l_diag


def test_dimension():
    assert build_space(2, 2).dim == 6
    assert build_space(1, 40).dim == 82


def test_interleaved_ordering():
    # atom-fastest: |g,0>, |e,0>, |g,1>, |e,1>, ... with L = n + l * excitation
    for l in (1, 2, 3, 4):
        diag = build_l_diag(build_space(l, l + 3))
        assert list(diag[:4]) == [0, l, 1, 1 + l]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_max"):
        build_space(2, 1)
    with pytest.raises(ValueError, match="l"):
        build_space(0, 10)
    with pytest.raises(ValueError, match="l"):
        build_space(5, 10)


@given(l=st.integers(1, 4), n_max=st.integers(4, 40))
def test_l_multiplicities(l, n_max):
    # every L between l and n_max appears exactly twice, the rest once
    space = build_space(l, n_max)
    counts = Counter(int(v) for v in build_l_diag(space))
    for L in range(0, n_max + l + 1):
        expected = 2 if l <= L <= n_max else 1
        assert counts.get(L, 0) == expected
    assert sum(counts.values()) == space.dim
