"""How fast the machine runs at one moment, read with a fixed probe kernel.

The benchmark runs on a share of a busy host: the same work takes up to half
as long again within seconds, and a slow spell can last a whole run, longer
than any number of repeats can wait out.  `probe()` times a fixed kernel of
the work jchm itself does (assemble a dense symmetric matrix of dimension 82
with numpy, take its lowest eigenpair with scipy.linalg.eigh) and the
workloads run it just before each item they time, in the process that runs
the item.  A slow spell stretches the item and its probe alike, so the item's
time over its probe's time stays put, while a change to jchm moves the item
and leaves the probe alone.

`Samples` keeps those ratios per item and per pass, and turns them back into
seconds at a fixed reference speed, REF_S per probe: each item's time on a
host that runs the probe in REF_S.  The reference is a constant, not a probe
of the run, because a slow spell can last the whole run, and because the
fastest probe of a run is a rare moment when nothing else shares the core,
which one run catches and the next does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

DIM = 82          # the l <= 2 matrix dimension at the default truncation
REPS = 6          # about a twentieth of one classification
# Reference seconds per probe: about its median on one vCPU of a 2.0 GHz Xeon
# shared host, measured 1.3 to 2.6 ms there as the host's load came and went.
REF_S = 0.002

_BASE = np.random.default_rng(20250325).standard_normal((DIM, DIM))
_BASE = _BASE + _BASE.T
_DIAG = np.arange(DIM, dtype=float)


def probe() -> float:
    """Seconds that REPS fixed assemblies and lowest eigenpairs take now."""
    start = time.perf_counter()
    for k in range(REPS):
        m = _BASE + np.diag(_DIAG * (1.0 + 0.01 * k))
        scipy.linalg.eigh(m, subset_by_index=(0, 0))
    return time.perf_counter() - start


class Samples:
    """(seconds, probe seconds) per item, one list per pass; the items of a
    pass are the same, in the same order, in every pass."""

    def __init__(self) -> None:
        self.passes: list[list[tuple[float, float]]] = []

    def add_pass(self, items: list[tuple[float, float]]) -> bool:
        """Keep one pass; False (and not kept) if its items do not line up."""
        if self.passes and len(items) != len(self.passes[0]):
            return False
        self.passes.append(list(items))
        return True

    def median_probe(self) -> float:
        return statistics.median(p for items in self.passes for _, p in items)

    def seconds(self) -> list[float]:
        """Per item: the median over passes of seconds / probe, times REF_S."""
        return [REF_S * statistics.median(t / p for t, p in column)
                for column in zip(*self.passes)]
