"""The traced path gives the same counts on the same inputs, run after run.

Run with `PYTHONPATH=src python3 -m pytest -q perfbench/test_counts.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import jchm.sweep  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerStats, Tracer, cell_pool_class  # noqa: E402

COUNTED = ("eigen.solves_per_point", "operators.build_calls_per_point",
           "groundstate.energy_evals_per_minimize")


def traced_points(seed: int) -> LayerStats:
    stats = LayerStats(jobs=1)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_points(workloads.make_points(seed, strata=1),
                             workloads.Outcome())
        stats.add_pass(tracer.take())
    finally:
        tracer.uninstall()
    return stats


def test_counts_repeat_exactly():
    first, second = traced_points(7), traced_points(7)
    assert first.counts() == second.counts()
    a, b = first.metrics(), second.metrics()
    for name in COUNTED:
        assert a[name] == b[name] > 0


def test_uninstall_restores_the_program():
    original = jchm.sweep.classify_at
    tracer = Tracer()
    tracer.install()
    assert jchm.sweep.classify_at is not original
    tracer.uninstall()
    assert jchm.sweep.classify_at is original


def test_worker_spans_come_back(tmp_path, monkeypatch):
    cells: list[float] = []
    monkeypatch.setattr(jchm.sweep, "ProcessPoolExecutor", cell_pool_class(cells))
    out = str(tmp_path / "grid.csv")
    argv = ["diagram", "--l", "3", "--x-range=-4:-3:2", "--y-range=-1:0:2",
            "--jobs", "2", "--out", out]
    stats = LayerStats(jobs=2)
    tracer = Tracer()
    tracer.install()
    try:
        assert workloads.jchm.cli.main(argv) == 0
        stats.add_pass(tracer.take())
    finally:
        tracer.uninstall()
    layers = stats.metrics()
    assert len(cells) == 4
    assert stats.counts()["span:classify.classify_point"] == 4.0
    assert 0 < layers["sweep.pool_efficiency"] <= 1
    assert layers["sweep.cell_busy_s"] > 0 and layers["cli.output_s"] > 0
