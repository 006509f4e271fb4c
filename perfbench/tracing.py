"""Spans and counts at the jchm layer boundaries, recorded from outside the package.

The layers are the package modules.  `Tracer.install` replaces each boundary
function listed in BOUNDARIES, in every jchm module namespace that holds it,
with a wrapper that records a span (name, start, end, parent, size, error).
Nothing inside `src/jchm` is modified on disk; `uninstall` puts the originals
back.

Grid cells run in `run_grid`'s process pool.  `cell_pool_class` returns a
ProcessPoolExecutor subclass that is swapped into `jchm.sweep`; it wraps each
task in `_TimedCall`, which times the cell in the worker and, when a tracer
is active, sends the worker's spans back with the result.  Workers are forked
(the Linux default), so they inherit the installed wrappers and `_ACTIVE`.
"""

from __future__ import annotations

import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# (module, function) pairs whose calls are spans.  Layer = module name.  These
# are the functions other layers call, plus energy_at_psi, whose calls under
# minimize_over_psi are the energy evaluations of one minimisation.
BOUNDARIES = (
    ("operators", "build_mean_field"),
    ("eigen", "smallest_eigpair"),
    ("groundstate", "minimize_over_psi"),
    ("groundstate", "energy_at_psi"),
    ("classify", "classify_point"),
    ("classify", "convergence_probe"),
    ("sweep", "classify_at"),
    ("sweep", "run_grid"),
    ("sweep", "refine_boundary"),
    ("validation", "run_all"),
    ("cli", "main"),
)
LAYERS = ("operators", "eigen", "groundstate", "classify", "sweep",
          "validation", "cli")
CHECKS = ("sector-zero-l2", "sector-crossing-l2", "invariant-suite",
          "lobe-threshold-l2", "forbidden-frontier-l2", "sf-boundary-l1",
          "strong-coupling-match-l1")
CELL_SPAN = "sweep.cell"
SIZED_SPAN = "eigen.smallest_eigpair"

# Span fields.
NAME, START, END, PARENT, SIZE, ERROR = range(6)

# The tracer of this process, read by pool workers after fork.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory spans of one process; `take` hands them over and clears."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, args=(), kwargs=None, size: int = 0):
        """Run fn(*args, **kwargs) inside a span called name."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, size, None]
        spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as err:
            record[ERROR] = type(err).__name__
            raise
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def _wrapper(self, name: str, fn):
        sized = name == SIZED_SPAN

        def traced(*args, **kwargs):
            # the matrix dimension of an eigensolve is its work size
            return self.span(name, fn, args, kwargs,
                             len(args[0]) if sized and args else 0)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary function in every loaded jchm module."""
        global _ACTIVE
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "jchm" or key.startswith("jchm.")]
        for layer, func in BOUNDARIES:
            original = getattr(sys.modules[f"jchm.{layer}"], func)
            wrapper = self._wrapper(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        _ACTIVE = None

    def take(self) -> list[list]:
        spans = self.spans
        self.spans = []
        return spans

    def merge(self, worker_spans: list[list], cause: int) -> None:
        """Append a worker's spans; its root span gets `cause` as parent."""
        offset = len(self.spans)
        for span in worker_spans:
            span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else cause
            self.spans.append(span)


class _TimedCall:
    """One pool task: returns (value, start, end, worker spans or None,
    probe seconds); the probe, if any, runs in the worker before the task."""

    def __init__(self, fn, probe=None) -> None:
        self.fn = fn
        self.probe = probe

    def __call__(self, *args):
        tracer = _ACTIVE
        if tracer is None:
            speed = self.probe() if self.probe else 0.0
            start = time.perf_counter()
            value = self.fn(*args)
            return value, start, time.perf_counter(), None, speed
        # the fork copied the parent's open spans: start this task clean
        tracer.spans.clear()
        tracer._stack.clear()
        value = tracer.span(CELL_SPAN, self.fn, args)
        spans = tracer.take()
        return value, spans[0][START], spans[0][END], spans, 0.0


def cell_pool_class(cells: list[tuple[float, float]], probe=None):
    """ProcessPoolExecutor that appends each task's worker-side (seconds,
    probe seconds) to `cells` and merges worker spans into the active tracer.
    With `probe` (speed.probe), each worker runs it before each task."""

    class CellPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            tracer = _ACTIVE
            cause = tracer._stack[-1] if tracer and tracer._stack else -1
            results = super().map(_TimedCall(fn, probe), *iterables,
                                  timeout=timeout, chunksize=chunksize)

            def unpack():
                for value, start, end, spans, speed in results:
                    cells.append((end - start, speed))
                    if spans is not None and tracer is not None:
                        tracer.merge(spans, cause)
                    yield value
            return unpack()

    return CellPool


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals; worker spans under one parent overlap."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class LayerStats:
    """Sums over traced passes, turned into the per-layer metrics."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.passes = 0
        self.n: dict[str, int] = {}
        self.t: dict[str, float] = {}
        self.check_seconds: dict[str, list[float]] = {c: [] for c in CHECKS}

    def _add(self, key: str, count: int = 1, seconds: float = 0.0) -> None:
        self.n[key] = self.n.get(key, 0) + count
        self.t[key] = self.t.get(key, 0.0) + seconds

    def add_pass(self, spans: list[list], checks=()) -> None:
        self.passes += 1
        for check in checks:
            self.check_seconds.setdefault(check.name, []).append(check.seconds)
        children: dict[int, list[tuple[float, float]]] = {}
        grid_child = [0.0] * len(spans)
        for span in spans:
            p = span[PARENT]
            if p >= 0:
                children.setdefault(p, []).append((span[START], span[END]))
                if span[NAME] == "sweep.run_grid":
                    grid_child[p] += span[END] - span[START]
        covered = [0.0] * len(spans)
        for p, intervals in children.items():
            covered[p] = _union_length(intervals)
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            self._add("span:" + name, 1, dur)
            self._add("self:" + name.split(".")[0], 0, dur - covered[i])
            self._add("under:" + parent + ">" + name)
            if span[SIZE]:
                self._add("size:" + name, span[SIZE])
            if span[ERROR]:
                self._add("error:" + name + ":" + span[ERROR])
            if name == "cli.main":
                self._add("cli.output", 1, dur - grid_child[i])

    def metrics(self) -> dict[str, float]:
        n, t = self.n, self.t

        def count(key: str) -> int:
            return n.get(key, 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        passes = max(self.passes, 1)
        points = count("span:classify.classify_point")
        total_self = sum(t.get("self:" + layer, 0.0) for layer in LAYERS)
        grid_wall = t.get("span:sweep.run_grid", 0.0)
        cell_busy = t.get("span:" + CELL_SPAN, 0.0)
        out = {
            "operators.build_calls_per_point":
                ratio(count("span:operators.build_mean_field"), points),
            "operators.build_us":
                1e6 * ratio(t.get("span:operators.build_mean_field", 0.0),
                            count("span:operators.build_mean_field")),
            "eigen.solves_per_point":
                ratio(count("span:eigen.smallest_eigpair"), points),
            "eigen.solve_us":
                1e6 * ratio(t.get("span:eigen.smallest_eigpair", 0.0),
                            count("span:eigen.smallest_eigpair")),
            "eigen.dim_mean": ratio(count("size:eigen.smallest_eigpair"),
                                    count("span:eigen.smallest_eigpair")),
            "groundstate.minimize_ms":
                1e3 * ratio(t.get("span:groundstate.minimize_over_psi", 0.0),
                            count("span:groundstate.minimize_over_psi")),
            "groundstate.energy_evals_per_minimize":
                ratio(count("under:groundstate.minimize_over_psi>"
                            "groundstate.energy_at_psi"),
                      count("span:groundstate.minimize_over_psi")),
            "groundstate.bracket_exhausted_frac":
                ratio(count("error:groundstate.minimize_over_psi:BracketExhausted"),
                      count("span:groundstate.minimize_over_psi")),
            "classify.probe_frac":
                ratio(count("under:classify.classify_point>"
                            "classify.convergence_probe"), points),
            "classify.probe_ms":
                1e3 * ratio(t.get("span:classify.convergence_probe", 0.0),
                            count("span:classify.convergence_probe")),
            "classify.self_ms": 1e3 * ratio(t.get("self:classify", 0.0), points),
            "sweep.cell_busy_s": cell_busy / passes,
            "sweep.pool_efficiency": ratio(cell_busy, self.jobs * grid_wall),
            "sweep.pool_overhead_s":
                (grid_wall - cell_busy / self.jobs) / passes if grid_wall else 0.0,
            "sweep.bisect_evals_per_boundary":
                ratio(count("under:sweep.refine_boundary>sweep.classify_at"),
                      count("span:sweep.refine_boundary")),
            "cli.output_s": t.get("cli.output", 0.0) / passes,
        }
        for layer in ("operators", "eigen"):
            out[f"{layer}.busy_share"] = ratio(t.get("self:" + layer, 0.0),
                                               total_self)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = t.get("self:" + layer, 0.0) / passes
        for check, seconds in self.check_seconds.items():
            out[f"validation.{check}_s"] = (statistics.median(seconds)
                                            if seconds else 0.0)
        return out

    def counts(self) -> dict[str, float]:
        """Span counts per traced pass; they repeat exactly for the same inputs."""
        return {k: v / max(self.passes, 1) for k, v in sorted(self.n.items())
                if not k.startswith("self:")}

