"""jchm benchmark: one workload per call, timed from outside, one JSON result line.

    python3 perfbench/run.py --workload points --seed 1 --seconds 36 --trace 0

Workloads: points, diagram, validate-quick (see workloads.py).  The workload
runs in a child process whose environment pins OpenBLAS, OpenMP and MKL to
one thread before numpy loads.  setup_s is the median wall time of
SETUP_RUNS child processes that only import the program and build the inputs.

--trace 0 prints the end-to-end metrics, each time at a fixed reference
speed of the host (see speed.py), --trace 1 the per-layer metrics of a
traced run (tracing.py).  Human-readable lines, including the label
histogram, the output digest and the ungated figures (points_per_s,
cells_per_s, validate_s, failed_frac), come first; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a result when
the program cannot be imported or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workloads.py"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 140
NAMED = {"points": ("points_per_s", "1/s"), "diagram": ("cells_per_s", "1/s"),
         "validate-quick": ("validate_s", "s")}


def child(args: list[str], timeout: float) -> tuple[int, str]:
    """Run workloads.py; on timeout kill its whole process group (the pool
    workers too) and wait for it."""
    proc = subprocess.Popen([sys.executable, str(WORKLOAD), *args],
                            env=dict(os.environ, **PINNED), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, ""
    return proc.returncode, out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jchm" / "__init__.py").is_file():
        print(f"no jchm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        code, _ = child([*common, "--setup-only"], SETUP_TIMEOUT_S)
        setups.append(time.perf_counter() - start)
        if code != 0:
            print("workload set-up failed", file=sys.stderr)
            return 2
    code, out = child([*common, "--trace", str(args.trace)], CHILD_TIMEOUT_S)
    if code != 0 or not out.strip():
        print(f"workload exited with {code}", file=sys.stderr)
        return 2
    res = json.loads(out.strip().splitlines()[-1])

    print(f"workload={args.workload} seed={args.seed} jobs={res['jobs']} "
          f"passes={res['passes']} threads={PINNED}")
    print(f"labels={json.dumps(res['histogram'])} digest={res['digest']}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac = {res['failed'] / max(res['attempted'], 1):.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    if args.trace:
        values = res["per_layer"]
        print("counts=" + json.dumps(res["counts"], sort_keys=True))
    else:
        values = dict(res, setup_s=statistics.median(setups))
        name, unit = NAMED[args.workload]
        value = (res["pass_s"] if name == "validate_s"
                 else res["points_per_pass"] / res["pass_s"])
        print(f"{name} = {value:.6g} {unit}; "
              f"{res['points_per_pass']} timed points per pass; as measured, "
              f"median pass wall {res['pass_wall_s_median']:.6g} s with probes, "
              f"median probe {res['probe_ms_median']:.6g} ms")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
