"""Label pins: the phase tokens of small default-window grids, one per photon
order, and the token counts of the 41x51 census grids.

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


# token_counts() of GridSpec.default(l, nx=41, ny=51), recorded with the band
# solver and the certified psi search
CENSUS = {
    1: {"FORBIDDEN": 192, "MI:0": 757, "MI:1": 317, "MI:2": 35, "MI:3": 14,
        "MI:4": 11, "MI:6": 4, "SF": 761},
    2: {"FORBIDDEN": 114, "MI:0": 989, "MI:2": 559, "SF": 429},
    3: {"FORBIDDEN": 1631, "SF": 460},
    4: {"FORBIDDEN": 2091},
}


def test_census_token_counts_are_pinned():
    counts = {l: run_grid(GridSpec.default(l, nx=41, ny=51)).token_counts()
              for l in CENSUS}
    assert counts == CENSUS
