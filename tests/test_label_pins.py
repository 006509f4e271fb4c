"""Label pins: the phase tokens of small default-window grids, one per photon order.

The literals were recorded from the dense-eigensolver classifier before the
band solver replaced it.  Any change to the numerics (assembly, eigensolver,
minimiser) must leave every token in place; a change that moves one has to
explain the physics and update the pin in the same commit.
"""

import pytest

from jchm.sweep import GridSpec, run_grid

# GridSpec.default(l, nx=5, ny=9): one string per x column, y ascending
PINNED = {
    1: (
        "MI:0 MI:0 MI:0 MI:0 MI:1 MI:1 SF FORBIDDEN FORBIDDEN",
        "MI:0 MI:0 MI:0 MI:0 MI:1 MI:1 SF FORBIDDEN FORBIDDEN",
        "MI:0 MI:0 MI:0 MI:0 MI:1 SF SF SF SF",
        "MI:0 MI:0 MI:0 SF MI:1 SF SF SF SF",
        "MI:0 SF SF SF SF SF SF SF SF",
    ),
    2: (
        "MI:0 MI:0 MI:0 MI:0 MI:2 MI:2 MI:2 FORBIDDEN FORBIDDEN",
        "MI:0 MI:0 MI:0 MI:0 MI:2 MI:2 MI:2 FORBIDDEN FORBIDDEN",
        "MI:0 MI:0 MI:0 MI:0 MI:2 MI:2 MI:2 SF SF",
        "MI:0 MI:0 MI:0 MI:0 MI:2 MI:2 MI:2 SF SF",
        "MI:0 MI:0 SF SF SF SF SF SF SF",
    ),
    3: (
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "SF SF SF SF SF SF SF SF SF",
    ),
    4: (
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
        "FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN FORBIDDEN",
    ),
}


@pytest.mark.parametrize("l", sorted(PINNED))
def test_default_window_tokens_are_pinned(l):
    grid = run_grid(GridSpec.default(l, nx=5, ny=9))
    tokens = [" ".join(pt.token for pt in column) for column in grid.cells]
    assert tokens == list(PINNED[l])
