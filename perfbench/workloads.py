"""One benchmark workload in its own process; prints one JSON line of results.

Started by run.py with BLAS pinned to one thread in the environment.  Run it
directly to measure with the interpreter's default thread settings:

    python3 perfbench/workloads.py --workload points --seed 1 --seconds 36

Workloads (the reason for each is in BENCHMARK.json):

  points          closed loop, one caller: classify_at on seeded random
                  (l, x, y) points, 25 per photon order (one in each cell of
                  a 5 x 5 split of the window), in a shuffled order.
  diagram         `jchm diagram` through cli.main for l = 1..4 on the default
                  windows at 4 x 13 cells, --jobs = usable cores, CSV to a file.
  validate-quick  validation.run_all(quick=True), as `jchm validate --quick`.

Each pass repeats the same inputs, so every pass after the first is a repeat
check.  Passes run while the next one is expected to end within --seconds, and
at least two run.  With --setup-only the process stops after imports and
inputs.

Timed runs read the host's speed with speed.probe() just before each timed
item, in the process that runs it, and report each item's time at the fixed
reference speed speed.REF_S per probe (speed.py says why).  The items are
the classifications: points, pool cells (probed in the worker) and the
classify_at calls of the checks; point_ms_p50 and point_ms_p95 are
percentiles over them.  pass_s is the sum over the parts of a pass: the
points, the four `jchm diagram` calls (less the workers' probe time, and with
the median probe of their cells), or the seven checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import jchm.cli  # noqa: E402
import jchm.sweep  # noqa: E402
import jchm.validation  # noqa: E402
from jchm.classify import IndeterminatePhaseError  # noqa: E402
from speed import Samples, probe  # noqa: E402
from tracing import LayerStats, Tracer, cell_pool_class  # noqa: E402

WORKLOADS = ("points", "diagram", "validate-quick")
STRATA = 5                  # points per l = STRATA ** 2
DIAGRAM_NX, DIAGRAM_NY = 4, 13
MIN_PASSES = 2
# expected Mott lobes on the default windows, as check_phase_census states them
LOBES = {1: lambda s: {0, 1, 2} <= s, 2: lambda s: s == {0, 2},
         3: lambda s: not s, 4: lambda s: not s}
FAILED_TOKENS = ("INDET", "INVALID")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def make_points(seed: int, strata: int = STRATA) -> list[tuple[int, float, float]]:
    """For each l, GridSpec.default(l)'s window split into strata x strata
    equal cells and one uniform point in each, all shuffled.  Every seed then
    draws the same share of each phase region, so the percentiles over points
    differ little from seed to seed."""
    rng = np.random.default_rng(seed)
    points = []
    cells = [(i, j) for i in range(strata) for j in range(strata)]
    for l in (1, 2, 3, 4):
        g = jchm.sweep.GridSpec.default(l)
        dx = (g.x_hi - g.x_lo) / strata
        dy = (g.y_hi - g.y_lo) / strata
        for i, j in cells:
            x = g.x_lo + (i + float(rng.uniform())) * dx
            y = g.y_lo + (j + float(rng.uniform())) * dy
            points.append((l, x, y))
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def make_diagram_args(seed: int, out: str, jobs: int) -> list[list[str]]:
    """cli argv per l: the default y window, and x columns shifted inside the
    default window by a seeded fraction of a column."""
    rng = np.random.default_rng(seed)
    argvs = []
    for l in (1, 2, 3, 4):
        g = jchm.sweep.GridSpec.default(l)
        dx = (g.x_hi - g.x_lo) / DIAGRAM_NX
        x_lo = g.x_lo + float(rng.uniform(0.0, 1.0)) * dx
        x_hi = x_lo + (DIAGRAM_NX - 1) * dx
        argvs.append([
            "diagram", "--l", str(l),
            f"--x-range={x_lo!r}:{x_hi!r}:{DIAGRAM_NX}",
            f"--y-range={g.y_lo!r}:{g.y_hi!r}:{DIAGRAM_NY}",
            "--jobs", str(jobs), "--out", out,
        ])
    return argvs


def no_probe() -> float:
    return 0.0


class Outcome:
    """What the passes of one workload produced and how long they took."""

    def __init__(self, probed: bool = False) -> None:
        self.probe = probe if probed else no_probe
        # (seconds, probe seconds) per classification, in call order
        self.latencies: list[tuple[float, float]] = []
        self.pass_walls: list[float] = []
        self.items = Samples()
        self.parts = Samples()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.histogram: dict[str, int] = {}
        self.first_output: bytes | None = None
        self.checks: list = []             # CheckResults of the last pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def record_output(self, output: bytes) -> None:
        """First pass sets the reference; later passes must repeat it."""
        if self.first_output is None:
            self.first_output = output
            return
        if output != self.first_output:
            self.fail("output differs from the first pass")

    def keep(self, items: list[tuple[float, float]],
             parts: list[tuple[float, float]]) -> None:
        if not (self.items.add_pass(items) and self.parts.add_pass(parts)):
            self.fail("a pass made a different number of calls")


def run_points(points, outcome: Outcome) -> list[tuple[float, float]]:
    """One pass; its parts are the points."""
    n_lat = len(outcome.latencies)
    tokens = []
    for l, x, y in points:
        outcome.attempted += 1
        speed = outcome.probe()
        start = time.perf_counter()
        try:
            token = jchm.sweep.classify_at(l, x, y).token
        except IndeterminatePhaseError:
            token = "INDET"
        except ValueError:
            token = "INVALID"
        outcome.latencies.append((time.perf_counter() - start, speed))
        tokens.append(token)
        if token in FAILED_TOKENS:
            outcome.fail(f"{token} at l={l}, x={x!r}, y={y!r}")
    if outcome.first_output is None:
        for token in tokens:
            outcome.histogram[token] = outcome.histogram.get(token, 0) + 1
    outcome.record_output("\n".join(tokens).encode())
    return outcome.latencies[n_lat:]


def run_diagram(argvs, out: str, jobs: int,
                outcome: Outcome) -> list[tuple[float, float]]:
    """One pass; its parts are the jchm diagram calls, one per l.  A call's
    seconds leave out its workers' probes, shared over the jobs."""
    csvs = []
    parts = []
    for argv in argvs:
        l = int(argv[2])
        n_cells = len(outcome.latencies)
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = jchm.cli.main(argv)
        wall = time.perf_counter() - start
        probes = [p for _, p in outcome.latencies[n_cells:]] or [0.0]
        parts.append((wall - sum(probes) / jobs, statistics.median(probes)))
        data = Path(out).read_bytes()
        csvs.append(data)
        lines = data.decode().splitlines()
        if code != 0:
            outcome.fail(f"jchm diagram --l {l} exited with {code}")
        if not lines or lines[0] != jchm.cli.CSV_HEADER:
            outcome.fail(f"l={l}: CSV header differs")
            continue
        tokens = [line.split(",")[5] for line in lines[1:]]
        outcome.attempted += len(tokens)
        for token in tokens:
            if token in FAILED_TOKENS:
                outcome.fail(f"l={l}: {token} cell")
        levels = {int(t[3:]) for t in tokens if t.startswith("MI:")}
        if not LOBES[l](levels):
            outcome.fail(f"l={l}: Mott lobes {sorted(levels)}")
        if outcome.first_output is None:
            for token in tokens:
                key = f"l{l}:{token}"
                outcome.histogram[key] = outcome.histogram.get(key, 0) + 1
    outcome.record_output(b"".join(csvs))
    return parts


def run_validate(outcome: Outcome) -> list[tuple[float, float]]:
    """One pass; its parts are the checks, timed by the program itself."""
    original = jchm.validation.classify_at
    original_run = jchm.validation._run
    parts = []

    def classify_at(*args, **kwargs):
        speed = outcome.probe()
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            outcome.latencies.append((time.perf_counter() - start, speed))

    def run_check(name, fn):
        speed = outcome.probe()
        result = original_run(name, fn)
        parts.append((result.seconds, speed))
        return result
    jchm.validation.classify_at = classify_at
    jchm.validation._run = run_check
    try:
        results = jchm.validation.run_all(quick=True)
    finally:
        jchm.validation.classify_at = original
        jchm.validation._run = original_run
    outcome.checks = results
    outcome.attempted += len(results)
    for r in results:
        if not r.passed:
            outcome.fail(f"check {r.name} failed: {r.detail}")
    if outcome.first_output is None:
        outcome.histogram = {r.name: int(r.passed) for r in results}
    outcome.record_output("\n".join(f"{r.name}:{r.passed}:{r.measured}"
                                    for r in results).encode())
    return parts


def quantile(values: list[float], q: float) -> float:
    """Quantile by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = usable_cores()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = str(Path(tmp) / "diagram.csv")
        if args.workload == "points":
            points = make_points(args.seed)
            one_pass = lambda outcome: run_points(points, outcome)  # noqa: E731
        elif args.workload == "diagram":
            argvs = make_diagram_args(args.seed, out, jobs)
            one_pass = lambda outcome: run_diagram(argvs, out, jobs, outcome)  # noqa: E731
        else:
            one_pass = run_validate
        if args.setup_only:
            return 0

        # traced runs time the layers, not the host: no probes there
        outcome = Outcome(probed=not args.trace)
        jchm.sweep.ProcessPoolExecutor = cell_pool_class(
            outcome.latencies, None if args.trace else probe)
        # untimed warm-up: first LAPACK call, first page faults
        jchm.sweep.classify_at(2, -4.0, -1.0)
        probe()

        stats = LayerStats(jobs)
        # traced runs alternate untraced and traced passes; the untraced
        # ones are the reference for the tracing overhead
        tracer = Tracer() if args.trace else None
        untraced_walls: list[float] = []
        deadline = time.perf_counter() + args.seconds
        for n in itertools.count():
            traced = tracer is not None and n % 2 == 1
            if traced:
                tracer.install()
            n_lat = len(outcome.latencies)
            start = time.perf_counter()
            try:
                parts = one_pass(outcome)
            finally:
                if traced:
                    tracer.uninstall()
            wall = time.perf_counter() - start
            lat = outcome.latencies[n_lat:]
            if traced:
                stats.add_pass(tracer.take(), outcome.checks)
            if tracer is None or traced:
                outcome.pass_walls.append(wall)
            else:
                untraced_walls.append(wall)
            if tracer is None:
                outcome.keep(lat, parts)
            if (len(outcome.pass_walls) >= MIN_PASSES
                    and time.perf_counter() + wall > deadline):
                break

    walls = outcome.pass_walls
    digest = hashlib.sha256(outcome.first_output or b"").hexdigest()[:16]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "passes": len(walls),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "histogram": dict(sorted(outcome.histogram.items())),
        "digest": digest,
    }
    if tracer:
        layers = stats.metrics()
        layers["trace.overhead_frac"] = (statistics.median(walls)
                                         / statistics.median(untraced_walls) - 1.0)
        result["per_layer"] = layers
        result["counts"] = stats.counts()
    else:
        items = outcome.items.seconds()
        result.update({
            "pass_s": sum(outcome.parts.seconds()),
            "point_ms_p50": 1e3 * statistics.median(items),
            "point_ms_p95": 1e3 * quantile(items, 0.95),
            "points_per_pass": len(items),
            "pass_wall_s_median": statistics.median(walls),
            "probe_ms_median": 1e3 * outcome.items.median_probe(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
