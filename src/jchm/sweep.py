"""Phase-diagram sweeps over the (log10 kappa, l mu - omega) plane.

The x axis is log10 of the hopping amplitude; the y axis is l mu - omega, so
larger y means a softer cavity.  Cells are classified independently and in a
fixed order, which keeps grid output deterministic and makes the sweep safe
to parallelise over processes.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .classify import IndeterminatePhaseError, PhasePoint, classify_point
from .eigen import EigensolverError
from .groundstate import minimize_over_psi, resolve_n_max
from .operators import ModelParams

BOUNDARY_TOL = 1e-3

# run_grid's worker pool, kept for the whole process: (key, executor), where
# key is (executor class, worker count).  The lock makes the check and the
# map one step, so a grid in one thread cannot replace the pool that a grid
# in another thread is mapping on.
_pool: tuple[tuple[type, int], ProcessPoolExecutor] | None = None
_pool_lock = threading.RLock()


def params_for(l: int, x: float, y: float, *, z: int = 2, mu: float = 1.0,
               delta: float = 0.0) -> ModelParams:
    """Model parameters at diagram coordinates (x, y).

    kappa = 10**x and omega = l mu - y; the atomic splitting follows from the
    detuning delta = omega - Omega.  x = -inf is zero hopping.  Raises
    ValueError for a y that is not finite, an x whose 10**x is not finite
    (NaN, +inf or past the float range), and an omega or Omega that would
    not be positive.
    """
    if not math.isfinite(y):
        raise ValueError(f"y: must be finite, got {y}")
    try:
        kappa = 10.0 ** x
    except OverflowError:
        kappa = math.inf
    if not math.isfinite(kappa):
        raise ValueError(f"x: kappa = 10**x must be finite, got x = {x}")
    omega = l * mu - y
    if omega <= 0:
        raise ValueError(f"omega = l mu - y = {omega:g} must be positive")
    Omega = omega - delta
    if Omega <= 0:
        raise ValueError(f"Omega = omega - delta = {Omega:g} must be positive")
    return ModelParams(l=l, omega=omega, Omega=Omega, mu=mu, kappa=kappa, z=z)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular diagram grid, linspace in both coordinates."""

    l: int
    x_lo: float
    x_hi: float
    nx: int
    y_lo: float
    y_hi: float
    ny: int
    z: int = 2
    mu: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.l <= 4:
            raise ValueError(f"l must be between 1 and 4, got {self.l}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need nx, ny >= 2, got nx={self.nx}, ny={self.ny}")
        bounds = (self.x_lo, self.x_hi, self.y_lo, self.y_hi)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"grid ranges must be finite, got x [{self.x_lo}, "
                             f"{self.x_hi}], y [{self.y_lo}, {self.y_hi}]")
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError("grid ranges must be increasing")

    @classmethod
    def default(cls, l: int, nx: int = 81, ny: int = 101, **overrides) -> "GridSpec":
        """Reference diagram window: x in [-4, -0.2]; y up to 0.5 for the
        single-photon model and 0.3 above, where the forbidden region opens."""
        y_lo, y_hi = (-2.0, 0.5) if l == 1 else (-1.5, 0.3)
        values = dict(l=l, x_lo=-4.0, x_hi=-0.2, nx=nx,
                      y_lo=y_lo, y_hi=y_hi, ny=ny)
        values.update(overrides)
        return cls(**values)

    @property
    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    @property
    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_lo, self.y_hi, self.ny)


@dataclass(frozen=True)
class PhaseGrid:
    """Classified grid; cells[ix][iy] matches (x_values[ix], y_values[iy])."""

    spec: GridSpec
    cells: tuple[tuple[PhasePoint, ...], ...]

    def cell(self, ix: int, iy: int) -> PhasePoint:
        return self.cells[ix][iy]

    def iter_cells(self) -> Iterator[PhasePoint]:
        for column in self.cells:
            yield from column

    def token_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pt in self.iter_cells():
            counts[pt.token] = counts.get(pt.token, 0) + 1
        return counts

    def mi_levels(self) -> set[int]:
        """Distinct L values among Mott-insulator cells."""
        return {pt.label.L for pt in self.iter_cells()
                if pt.label is not None and pt.label.L is not None}


def classify_at(l: int, x: float, y: float, n_max: int | None = None, *,
                z: int = 2, mu: float = 1.0, delta: float = 0.0) -> PhasePoint:
    """classify_point at diagram coordinates, reporting the exact (x, y) given."""
    params = params_for(l, x, y, z=z, mu=mu, delta=delta)
    return classify_point(params, n_max, at=(float(x), float(y)))


def _failed_cell(x: float, y: float, note: str) -> PhasePoint:
    return PhasePoint(x=float(x), y=float(y), psi_star=float("nan"),
                      energy=float("nan"), l_expect=float("nan"), label=None,
                      n_max_used=0, note=note)


def _evaluate_cell(task) -> PhasePoint:
    """Worker for one grid cell; never raises, records failures in the cell."""
    spec, n_max, x, y = task
    try:
        return classify_at(spec.l, x, y, n_max, z=spec.z, mu=spec.mu,
                           delta=spec.delta)
    except ValueError as err:
        return _failed_cell(x, y, f"invalid: {err}")
    except EigensolverError as err:
        return _failed_cell(x, y, f"indeterminate: eigensolver: {err}")
    except IndeterminatePhaseError as err:
        return err.point


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shutdown_pool(cancel_futures: bool = False) -> None:
    """Shut down run_grid's worker pool, if one is open, and wait for its
    workers to exit; the next pooled grid forks a fresh pool."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _, pool = _pool
            _pool = None
            pool.shutdown(wait=True, cancel_futures=cancel_futures)


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The open pool when it has this executor class and worker count and
    is not yet marked broken (a worker died while it idled), else a new
    one, forked only after the old one has shut down: its manager thread
    is then joined, and Python 3.12 warns on a fork beside a live thread.
    The class is read from this module at each call, so a stand-in swapped
    in for it (tests, perfbench) gets a pool of its own."""
    global _pool
    key = (ProcessPoolExecutor, jobs)
    if (_pool is None or _pool[0] != key
            or getattr(_pool[1], "_broken", False)):
        shutdown_pool()
        _pool = (key, ProcessPoolExecutor(max_workers=jobs))
    return _pool[1]


def run_grid(spec: GridSpec, n_max: int | None = None, *,
             jobs: int = 1) -> PhaseGrid:
    """Classify every cell of the grid at truncation n_max (resolve_n_max).

    Unclassifiable cells are recorded (tokens INVALID / INDET), never fatal;
    an unusable n_max or jobs raises ValueError before any cell runs.  The
    result is independent of `jobs`.

    jobs > 1 runs the cells on one worker pool per process, opened by the
    first pooled grid and reused by every later grid with the same worker
    count; a new count replaces it.  Workers never outnumber the grid's
    cells or the usable cores.  They keep their caches between grids, which
    no cell's result depends on.  The pool lives until shutdown_pool() or
    interpreter exit, which joins its workers; a map that raises (a killed
    worker, an interrupt) shuts it down, so the next grid forks afresh, as
    it does when the pool was marked broken before the grid began.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    n_max = resolve_n_max(spec.l, n_max)
    xs = spec.x_values
    # row by row, and whole rows per pool chunk (about 8 chunks per
    # worker): the cells of one y share one psi = 0 entry, both levels
    # certified when the row's first cell reads it
    # (groundstate.zero_sectors), so a process misses that cache at most
    # once per row
    tasks = [(spec, n_max, x, y) for y in spec.y_values for x in xs]
    # the pool forks all its workers at once, and CPU-bound cells gain
    # nothing from more workers than cores
    jobs = min(jobs, len(tasks), _usable_cores())
    if jobs == 1:
        flat = [_evaluate_cell(t) for t in tasks]
    else:
        chunk = spec.nx * max(1, spec.ny // (8 * jobs))
        with _pool_lock:
            pool = _worker_pool(jobs)
            try:
                flat = list(pool.map(_evaluate_cell, tasks, chunksize=chunk))
            except BaseException:
                shutdown_pool(cancel_futures=True)
                raise
    cells = tuple(
        tuple(flat[iy * spec.nx + ix] for iy in range(spec.ny))
        for ix in range(spec.nx)
    )
    return PhaseGrid(spec=spec, cells=cells)


def refine_boundary(evaluate: Callable[[float], PhasePoint], lo: float,
                    hi: float, pair: tuple[str, str] | None = None,
                    tol: float = BOUNDARY_TOL) -> float:
    """Bisect the coordinate where the phase token changes.

    evaluate maps a scalar coordinate to a PhasePoint.  The bracket is
    [lo, hi]; the returned coordinate separates points sharing evaluate(lo)'s
    token from everything else.  With `pair` given, the bracket ends must
    carry exactly those two tokens (in order), else ValueError.  Bisection
    stops at tol, or earlier once the bracket is down to adjacent floats.
    An infinite end or tol would stop it at once (the midpoint of -inf and
    a finite end is -inf), so each must be finite, else ValueError.
    """
    if not all(map(math.isfinite, (lo, hi, tol))):
        raise ValueError(f"ends and tol must be finite, got [{lo}, {hi}] "
                         f"and tol {tol}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    token_lo = evaluate(lo).token
    token_hi = evaluate(hi).token
    if token_lo == token_hi:
        raise ValueError(f"both bracket ends classify as {token_lo}; nothing to bisect")
    if pair is not None and (token_lo, token_hi) != tuple(pair):
        raise ValueError(
            f"bracket ends are ({token_lo}, {token_hi}), expected {tuple(pair)}"
        )
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if evaluate(mid).token == token_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def energy_scan(l: int, y: float, x_points: Sequence[float],
                n_max: int | None = None, *, z: int = 2, mu: float = 1.0,
                delta: float = 0.0) -> list[tuple[float, float, float]]:
    """Minimised ground energy along a horizontal cut of the diagram.

    Returns (x, energy, psi_star) per requested x.  Exposes the kink where
    the minimiser leaves psi = 0 at the insulator-superfluid boundary.  A
    minimum at psi_max (MeanFieldSolution.at_psi_max) has no energy this
    truncation can hold, so it raises ValueError, which names n_max.
    """
    n_max = resolve_n_max(l, n_max)
    out: list[tuple[float, float, float]] = []
    for x in x_points:
        params = params_for(l, x, y, z=z, mu=mu, delta=delta)
        sol = minimize_over_psi(params, n_max)
        if sol.at_psi_max:
            raise ValueError(f"n_max: energy minimum sits at "
                             f"psi_max={math.sqrt(n_max) / 2.0:g}; raise n_max")
        out.append((float(x), sol.energy, sol.psi_star))
    return out
