import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import pytest

from jchm import eigen, groundstate, sweep
from jchm.operators import build_mean_field
from jchm.analytic import Side, strong_coupling_boundary
from jchm.sweep import (
    GridSpec,
    classify_at,
    energy_scan,
    params_for,
    refine_boundary,
    run_grid,
)

from conftest import count_band_builds

GOLDEN_Y = -0.6180339887498949  # 2 - (3 + sqrt(5))/2


def test_params_for_axes():
    p = params_for(2, -1.0, -0.3)
    assert p.kappa == pytest.approx(0.1)
    assert p.omega == pytest.approx(2.3)
    assert p.Omega == pytest.approx(2.3)
    q = params_for(1, -2.0, -0.5, mu=0.8, delta=0.2, z=4)
    assert q.omega == pytest.approx(1.3)
    assert q.Omega == pytest.approx(1.1)
    assert q.z == 4
    with pytest.raises(ValueError, match="omega"):
        params_for(1, -1.0, 1.5)
    with pytest.raises(ValueError, match="Omega"):
        params_for(1, -1.0, 0.4, delta=0.7)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_default_windows_pass_the_rounding_check(l):
    # the window's corners, the lowest y with its largest omega among them:
    # no cell is rejected for the rounding of mu and omega on the band
    counts = run_grid(GridSpec.default(l, nx=2, ny=2)).token_counts()
    assert "INVALID" not in counts and sum(counts.values()) == 4


def test_grid_spec_defaults():
    g1 = GridSpec.default(1)
    assert (g1.x_lo, g1.x_hi, g1.nx) == (-4.0, -0.2, 81)
    assert (g1.y_lo, g1.y_hi, g1.ny) == (-2.0, 0.5, 101)
    g3 = GridSpec.default(3, nx=11, ny=7)
    assert (g3.y_lo, g3.y_hi) == (-1.5, 0.3)
    assert len(g3.x_values) == 11
    assert g3.x_values[0] == -4.0 and g3.x_values[-1] == -0.2
    with pytest.raises(ValueError, match="nx"):
        GridSpec(l=1, x_lo=-4, x_hi=-1, nx=1, y_lo=-1, y_hi=0, ny=5)
    with pytest.raises(ValueError, match="ranges"):
        GridSpec(l=1, x_lo=-1, x_hi=-4, nx=5, y_lo=-1, y_hi=0, ny=5)


def test_classify_at_reports_grid_coordinates():
    pt = classify_at(2, -4.0, -0.3)
    assert pt.x == -4.0
    assert pt.y == -0.3
    assert pt.token == "MI:2"


def test_run_grid_deep_insulator_region():
    spec = GridSpec(l=1, x_lo=-4.0, x_hi=-3.0, nx=3, y_lo=-1.8, y_hi=-1.4, ny=3)
    grid = run_grid(spec)
    assert all(pt.token == "MI:0" for pt in grid.iter_cells())
    assert grid.token_counts() == {"MI:0": 9}
    assert grid.mi_levels() == {0}
    # cells carry their own grid coordinates
    assert grid.cell(0, 0).x == -4.0
    assert grid.cell(2, 2).y == -1.4


def test_run_grid_deterministic():
    spec = GridSpec(l=2, x_lo=-3.0, x_hi=-1.0, nx=3, y_lo=-1.0, y_hi=-0.2, ny=3)
    a = run_grid(spec)
    b = run_grid(spec)
    for pa, pb in zip(a.iter_cells(), b.iter_cells()):
        assert pa.x == pb.x and pa.y == pb.y
        assert pa.token == pb.token
        assert pa.energy == pb.energy
        assert pa.psi_star == pb.psi_star



def test_run_grid_reuses_each_row_of_sector_data():
    # the cells of one row share omega, so their psi = 0 sector data, at
    # n_max and at the probe's 2 n_max, is one cache entry: run row by
    # row, a grid misses that cache at most ny times, however many columns
    # it has and however small the cache.  Column by column, 130 rows need
    # more entries than the cache holds, and every cell would miss
    spec = GridSpec.default(1, nx=3, ny=130)
    assert spec.ny > groundstate._sectors.cache_info().maxsize
    groundstate._sectors.cache_clear()
    run_grid(spec, jobs=1)
    assert groundstate._sectors.cache_info().misses <= spec.ny


@pytest.mark.usefixtures("cold_zero_cache")
@pytest.mark.parametrize("l, y", [(1, -0.7), (2, 0.06)])
def test_psi_zero_cache_is_invisible(monkeypatch, l, y):
    # one 41-cell row (MI:1 and SF at l = 1, FORBIDDEN and SF at l = 2)
    # classified from a cleared psi = 0 cache and again from a warm one
    # gives the same cells; the row's psi = 0 entry assembles one band, at
    # 2 n_max, and certifies both levels on it when the first cell reads
    # it: with one certificate for both when they share their lowest
    # sector (MI:1), and otherwise one per level; the psi search builds
    # one more, the cached n_max band its SF cells share
    xs = GridSpec.default(l, nx=41).x_values
    n_max = groundstate.default_n_max(l)
    doubled = build_mean_field(params_for(l, xs[0], y), 0.0, 2 * n_max)
    groundstate._sectors.cache_clear()
    built = count_band_builds(monkeypatch)
    certified = []
    certify = eigen.certify_smallest

    def counted(a, value, *orders):
        certified.append((a.band.tobytes(), orders))
        return certify(a, value, *orders)
    monkeypatch.setattr(groundstate, "certify_smallest", counted)

    cold = [classify_at(l, x, y) for x in xs]
    part, whole = 2 * (n_max + 1), 2 * (2 * n_max + 1)
    levels = [(part, whole)] if l == 1 else [(part,), ()]
    assert certified == [(doubled.band.tobytes(), o) for o in levels]
    assert built == [2 * n_max, n_max]
    warm = [classify_at(l, x, y) for x in xs]
    assert len(certified) == len(levels) and built == [2 * n_max, n_max]
    assert [repr(pt) for pt in warm] == [repr(pt) for pt in cold]
    assert warm == cold
    assert len({pt.token for pt in cold}) == 2


def serial_pool(monkeypatch, failures: int = 0) -> list[dict]:
    """Replace sweep's process pool with a stand-in that records its
    max_workers, how many earlier stand-ins were still open when it was
    made, the chunksize of each map and the arguments of its shutdown, and
    maps serially, so no process starts; its first `failures` maps raise
    BrokenProcessPool.  Returns the records, one per pool."""
    pools: list[dict] = []

    class SerialPool:
        def __init__(self, max_workers):
            self.record = {
                "max_workers": max_workers,
                "open_before": sum("shutdown" not in p for p in pools),
            }
            pools.append(self.record)

        def map(self, fn, *iterables, chunksize=1):
            nonlocal failures
            self.record["chunksize"] = chunksize
            if failures:
                failures -= 1
                raise BrokenProcessPool("a worker died")
            return map(fn, *iterables)

        def shutdown(self, wait=True, cancel_futures=False):
            self.record["shutdown"] = (wait, cancel_futures)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    return pools


def test_run_grid_parallel_matches_serial():
    spec = GridSpec(l=1, x_lo=-2.0, x_hi=-0.5, nx=3, y_lo=-1.4, y_hi=-0.6, ny=3)
    serial = run_grid(spec, jobs=1)
    parallel = run_grid(spec, jobs=2)
    for pa, pb in zip(serial.iter_cells(), parallel.iter_cells()):
        assert pa.token == pb.token
        assert pa.energy == pb.energy
        assert pa.psi_star == pb.psi_star


@pytest.mark.parametrize("jobs, workers", [(2, 2), (8, 4)])
def test_run_grid_opens_no_more_workers_than_cells(monkeypatch, jobs,
                                                   workers):
    # the pool forks all its workers at the first map, so a 2x2 grid asks
    # for at most 4, and never for more than the usable cores
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=2, y_lo=-1.0, y_hi=0.0, ny=2)
    serial = run_grid(spec, jobs=1)
    pools = serial_pool(monkeypatch)
    assert run_grid(spec, jobs=jobs) == serial
    assert [pool["max_workers"] for pool in pools] == [
        min(workers, sweep._usable_cores())]


@pytest.mark.parametrize("cores, workers", [(1, []), (3, [3]), (64, [9])])
def test_run_grid_opens_no_more_workers_than_cores(monkeypatch, cores,
                                                   workers):
    # --jobs 100000 must not fork 100000 processes: the pool gets
    # min(jobs, cells, cores) workers, and one core runs the grid serially
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=3, y_lo=-1.0, y_hi=0.0, ny=3)
    serial = run_grid(spec, jobs=1)
    monkeypatch.setattr(sweep, "_usable_cores", lambda: cores)
    pools = serial_pool(monkeypatch)
    assert run_grid(spec, jobs=100000) == serial
    assert [pool["max_workers"] for pool in pools] == workers


def test_grids_share_one_pool_per_worker_count(monkeypatch):
    # two grids at one worker count map on one pool; a new count shuts
    # that pool down, waiting for its workers, before the next is made,
    # and the last stays open until shutdown_pool
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=2, y_lo=-1.0, y_hi=0.0, ny=3)
    serial = run_grid(spec, jobs=1)
    monkeypatch.setattr(sweep, "_usable_cores", lambda: 8)
    pools = serial_pool(monkeypatch)
    assert run_grid(spec, jobs=2) == serial
    assert run_grid(spec, jobs=2) == serial
    assert len(pools) == 1 and "shutdown" not in pools[0]
    assert run_grid(spec, jobs=3) == serial
    assert [(p["max_workers"], p["open_before"]) for p in pools] == [
        (2, 0), (3, 0)]
    assert pools[0]["shutdown"] == (True, False)
    assert "shutdown" not in pools[1]
    sweep.shutdown_pool()
    assert pools[1]["shutdown"] == (True, False)
    sweep.shutdown_pool()
    assert len(pools) == 2


def test_a_failed_map_drops_the_pool(monkeypatch):
    # a map that raises (here BrokenProcessPool, as from a killed worker)
    # shuts its pool down with its queued tasks cancelled and re-raises;
    # the next grid at the same count forks a fresh pool
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=2, y_lo=-1.0, y_hi=0.0, ny=2)
    serial = run_grid(spec, jobs=1)
    monkeypatch.setattr(sweep, "_usable_cores", lambda: 8)
    pools = serial_pool(monkeypatch, failures=1)
    with pytest.raises(BrokenProcessPool, match="a worker died"):
        run_grid(spec, jobs=2)
    assert pools[0]["shutdown"] == (True, True)
    assert run_grid(spec, jobs=2) == serial
    assert [(p["max_workers"], p["open_before"]) for p in pools] == [
        (2, 0), (2, 0)]


def test_a_pool_broken_while_it_idles_is_replaced(monkeypatch):
    # a worker killed while the shared pool idles between grids (say by the
    # OOM killer) marks the pool broken once its manager thread notices; the
    # next grid then maps on a fresh pool instead of raising
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=2, y_lo=-1.0, y_hi=0.0, ny=2)
    serial = run_grid(spec, jobs=1)
    monkeypatch.setattr(sweep, "_usable_cores", lambda: 2)
    assert run_grid(spec, jobs=2) == serial
    pool = sweep._pool[1]
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken:
        assert time.monotonic() < deadline, "the pool never reported the kill"
        time.sleep(0.01)
    assert run_grid(spec, jobs=2) == serial
    assert sweep._pool[1] is not pool


def test_no_pool_worker_outlives_its_process():
    # a process that runs pooled grids and exits, without shutdown_pool,
    # leaves no worker behind: interpreter exit joins them.  Warnings are
    # errors there, as Python 3.12 warns on a fork beside a live thread,
    # and the second class forces a pool replacement before its fork
    if sweep._usable_cores() < 2:
        pytest.skip("one usable core: run_grid starts no pool")
    src = str(Path(sweep.__file__).resolve().parents[1])
    script = (
        "import multiprocessing\n"
        "from jchm import sweep\n"
        "spec = sweep.GridSpec(l=3, x_lo=-4.0, x_hi=-3.0, nx=2, y_lo=-1.0,\n"
        "                      y_hi=0.0, ny=2)\n"
        "serial = sweep.run_grid(spec, jobs=1)\n"
        "pids = set()\n"
        "for replace in (False, False, True):\n"
        "    if replace:\n"
        "        class Other(sweep.ProcessPoolExecutor):\n"
        "            pass\n"
        "        sweep.ProcessPoolExecutor = Other\n"
        "    assert sweep.run_grid(spec, jobs=2) == serial\n"
        "    pids |= {p.pid for p in multiprocessing.active_children()}\n"
        "print(*sorted(pids))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 4  # two pools of two workers
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)  # signal 0 only asks whether the pid exists
        except ProcessLookupError:
            continue
        alive.append(pid)
    assert alive == []


@pytest.mark.parametrize("nx, ny, jobs", [(4, 13, 2), (3, 40, 2), (5, 7, 3)])
def test_run_grid_sends_whole_rows_per_chunk(monkeypatch, nx, ny, jobs):
    # a chunk of whole rows, about 8 per worker, lets each worker miss the
    # psi = 0 cache at most once per row and truncation level; the 4x13
    # grid is a benchmark diagram's shape
    spec = GridSpec(l=4, x_lo=-4.0, x_hi=-3.0, nx=nx, y_lo=-1.0, y_hi=0.0,
                    ny=ny)
    pools = serial_pool(monkeypatch)
    run_grid(spec, jobs=jobs)
    (pool,) = pools
    assert pool["chunksize"] % nx == 0


def test_run_grid_marks_invalid_rows():
    # y >= l mu makes omega <= 0: those cells are recorded, not fatal
    spec = GridSpec(l=1, x_lo=-3.0, x_hi=-2.0, nx=2, y_lo=0.8, y_hi=1.2, ny=3)
    grid = run_grid(spec)
    tokens = {}
    for pt in grid.iter_cells():
        tokens.setdefault(pt.token, 0)
        tokens[pt.token] += 1
        if pt.y >= 1.0:
            assert pt.token == "INVALID"
            assert pt.note.startswith("invalid")
            assert math.isnan(pt.energy)
    assert tokens["INVALID"] == 4  # y = 1.0 and y = 1.2 rows
    assert tokens.get("FORBIDDEN", 0) == 2  # y = 0.8 row survives


def test_run_grid_records_eigensolver_failure_as_indet(monkeypatch):
    # no eigenpair meets a residual bound of 1e-17: every cell is recorded
    spec = GridSpec(l=1, x_lo=-2.0, x_hi=-1.0, nx=2, y_lo=-1.0, y_hi=-0.5, ny=2)
    monkeypatch.setattr(eigen, "TOL", 1e-17)
    grid = run_grid(spec)
    for pt in grid.iter_cells():
        assert pt.token == "INDET"
        assert pt.note.startswith("indeterminate: eigensolver: residual")
        assert math.isnan(pt.energy)


def test_run_grid_rejects_bad_inputs():
    spec = GridSpec(l=2, x_lo=-3.0, x_hi=-1.0, nx=2, y_lo=-1.0, y_hi=-0.2, ny=2)
    with pytest.raises(ValueError, match="jobs"):
        run_grid(spec, jobs=0)
    with pytest.raises(ValueError, match="n_max"):
        run_grid(spec, 3)


def test_high_order_grid_has_no_insulators():
    spec = GridSpec(l=3, x_lo=-4.0, x_hi=-0.5, nx=3, y_lo=-1.5, y_hi=0.3, ny=3)
    grid = run_grid(spec)
    tokens = {pt.token for pt in grid.iter_cells()}
    assert tokens <= {"SF", "FORBIDDEN"}
    assert grid.mi_levels() == set()


def test_refine_boundary_lobe_threshold():
    y = refine_boundary(lambda t: classify_at(2, -4.0, t), -1.0, -0.3,
                        pair=("MI:0", "MI:2"), tol=1e-4)
    assert y == pytest.approx(GOLDEN_Y, abs=2e-3)


def test_refine_boundary_validation():
    with pytest.raises(ValueError, match="nothing to bisect"):
        refine_boundary(lambda t: classify_at(1, -4.0, t), -1.8, -1.6)
    with pytest.raises(ValueError, match="expected"):
        refine_boundary(lambda t: classify_at(2, -4.0, t), -1.0, -0.3,
                        pair=("MI:0", "SF"))
    with pytest.raises(ValueError, match="tol"):
        refine_boundary(lambda t: classify_at(2, -4.0, t), -1.0, -0.3, tol=0.0)


@pytest.mark.parametrize("lo, hi, tol", [
    (-math.inf, -0.4, 1e-3), (-1.2, math.inf, 1e-3), (math.nan, -0.4, 1e-3),
    (-1.2, -0.4, math.inf),
])
def test_refine_boundary_rejects_non_finite_ends_and_tol(lo, hi, tol):
    # the midpoint of -inf and a finite end is -inf, so an infinite end
    # would stop the bisection at once, and an infinite tol would return
    # the bracket's midpoint unbisected: both are rejected before any
    # evaluation
    def evaluate(t):
        raise AssertionError("a bracket end was evaluated")

    with pytest.raises(ValueError, match=r"^ends and tol must be finite, "):
        refine_boundary(evaluate, lo, hi, tol=tol)


def test_refine_boundary_stops_at_float_spacing():
    # a tol below the float spacing of the bracket must not bisect forever:
    # [0.5, 1] reaches adjacent floats in about 53 halvings
    calls = []

    def evaluate(t):
        calls.append(t)
        if len(calls) > 100:
            raise AssertionError("bisection did not stop at float spacing")
        return SimpleNamespace(token="A" if t < 0.7 else "B")

    edge = refine_boundary(evaluate, 0.5, 1.0, tol=1e-300)
    assert edge == pytest.approx(0.7, abs=1e-15)


def test_strong_coupling_agreement_at_small_hopping():
    x = -2.5
    y_mf = refine_boundary(lambda t: classify_at(1, x, t), -1.3, -0.9, tol=1e-3)
    y_sc = strong_coupling_boundary(0, Side.UPPER, 10.0 ** x)
    assert abs(y_mf - y_sc) < 0.05


def test_energy_scan_shows_transition():
    xs = [-4.0, -2.0, -1.0, -0.5]
    rows = energy_scan(1, -1.2, xs)
    assert [r[0] for r in rows] == xs
    # insulating side: vacuum energy, zero drive
    for x, e, psi in rows[:3]:
        assert e == pytest.approx(0.0, abs=1e-9)
        assert psi == 0.0
    # superfluid side: condensation energy, finite drive
    x, e, psi = rows[3]
    assert e < -1e-3
    assert psi > 1e-3


def test_energy_scan_rejects_a_minimum_at_psi_max():
    # x = 0, y = -1.2 is the runaway point ModelParams.resonant(1, 2.2,
    # kappa=1.0): its minimum sits at psi_max, which only n_max moves
    with pytest.raises(ValueError,
                       match=r"^n_max: energy minimum sits at "
                             r"psi_max=2\.73861; raise n_max$"):
        energy_scan(1, -1.2, [-4.0, 0.0], 30)
