"""Command-line interface.

Subcommands: point, diagram, boundary, scan, analytic, validate.  Settings
resolve with the precedence command-line flag > config file > built-in
default.  Data files are deterministic: no timestamps, floats printed with 17
significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from .analytic import (
    Side,
    asymptotic_slope,
    solve_sector_crossing,
    solve_sector_zero,
    strong_coupling_boundary,
)
from .classify import (
    DEFAULT_PIN_FRACTION,
    DEFAULT_TOL_CONV,
    IndeterminatePhaseError,
    PhasePoint,
    default_n_max,
)
from .eigen import DEFAULT_TOL, EigensolverError
from .groundstate import BracketExhausted, PsiSearchSpec
from .sweep import GridSpec, classify_at, energy_scan, refine_boundary, run_grid
from .validation import ValidationSettings, run_all

CSV_HEADER = "x_log10_kappa,y_lmu_minus_omega,psi,energy,L_expect,phase,n_max,converged"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    """Bad input; the message must name the offending parameter."""


def _fmt(value: float) -> str:
    """Floats at full round-trip precision, stable across runs."""
    return "%.17g" % value


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings shared by the computing subcommands."""

    l: int
    z: int
    mu: float
    delta: float
    n_max: int
    psi_max: float | None
    psi_eps: float | None
    tol: float
    tol_conv: float
    pin_fraction: float
    jobs: int
    out: str | None
    format: str

    def psi_spec(self) -> PsiSearchSpec:
        overrides = {}
        if self.psi_eps is not None:
            overrides["psi_zero_eps"] = self.psi_eps
        if self.psi_max is not None:
            return PsiSearchSpec(psi_max=self.psi_max, **overrides)
        return PsiSearchSpec.for_truncation(self.n_max, **overrides)

    def as_dict(self) -> dict:
        return {
            "l": self.l, "z": self.z, "mu": self.mu, "delta": self.delta,
            "n_max": self.n_max, "psi_max": self.psi_max,
            "psi_eps": self.psi_eps, "tol": self.tol,
            "tol_conv": self.tol_conv, "pin_fraction": self.pin_fraction,
            "jobs": self.jobs, "format": self.format,
        }


_DEFAULTS = {
    "z": 2,
    "mu": 1.0,
    "delta": 0.0,
    "psi_max": None,
    "psi_eps": None,
    "tol": DEFAULT_TOL,
    "tol_conv": DEFAULT_TOL_CONV,
    "pin_fraction": DEFAULT_PIN_FRACTION,
    "out": None,
    "format": "csv",
    "quick": False,
    "between": None,
    "boundary_tol": 1e-3,
}

_CONFIG_KEYS = {
    "l", "z", "mu", "delta", "n_max", "psi_max", "psi_eps", "tol",
    "tol_conv", "pin_fraction", "jobs", "out", "format", "x", "y",
    "x_range", "y_range", "axis", "fixed", "bracket", "between",
    "boundary_tol", "quick",
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise CliError(f"config: cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"config: {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise CliError(f"config: {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise CliError(f"config: unknown key '{key}'")
    return data


def _resolve(args: argparse.Namespace, key: str, file_cfg: dict):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return _DEFAULTS.get(key)


def _resolve_jobs(args: argparse.Namespace, file_cfg: dict) -> int:
    value = getattr(args, "jobs", None)
    if value is None:
        value = file_cfg.get("jobs")
    if value is None:
        env = os.environ.get("JCHM_JOBS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as err:
                raise CliError(f"jobs: JCHM_JOBS={env!r} is not an integer") from err
    if value is None:
        value = 1
    value = int(value)
    if value < 1:
        raise CliError(f"jobs: must be a positive integer, got {value}")
    return value


def _parse_range(text, name: str) -> tuple[float, float, int]:
    """Accept "lo:hi:n" or a [lo, hi, n] sequence."""
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = str(text).split(":")
    if len(parts) != 3:
        raise CliError(f"{name}: expected lo:hi:n, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except (TypeError, ValueError) as err:
        raise CliError(f"{name}: expected lo:hi:n with numeric parts, got {text!r}") from err
    if n < 2:
        raise CliError(f"{name}: need at least 2 samples, got {n}")
    if not lo < hi:
        raise CliError(f"{name}: need lo < hi, got {lo} >= {hi}")
    return lo, hi, n


def _parse_bracket(text, name: str) -> tuple[float, float]:
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = str(text).split(":")
    if len(parts) != 2:
        raise CliError(f"{name}: expected lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except (TypeError, ValueError) as err:
        raise CliError(f"{name}: expected numeric lo:hi, got {text!r}") from err


def _build_run_config(args: argparse.Namespace, file_cfg: dict) -> RunConfig:
    l = _resolve(args, "l", file_cfg)
    if l is None:
        raise CliError("l: missing (give --l or set it in the config file)")
    l = int(l)
    if not 1 <= l <= 4:
        raise CliError(f"l: must be between 1 and 4, got {l}")
    n_max = _resolve(args, "n_max", file_cfg)
    n_max = default_n_max(l) if n_max is None else int(n_max)
    if n_max < l + 2:
        raise CliError(f"n_max: must be at least l + 2 = {l + 2}, got {n_max}")
    fmt = str(_resolve(args, "format", file_cfg))
    if fmt not in ("csv", "json"):
        raise CliError(f"format: must be csv or json, got {fmt!r}")
    psi_max = _resolve(args, "psi_max", file_cfg)
    psi_eps = _resolve(args, "psi_eps", file_cfg)
    cfg = RunConfig(
        l=l,
        z=int(_resolve(args, "z", file_cfg)),
        mu=float(_resolve(args, "mu", file_cfg)),
        delta=float(_resolve(args, "delta", file_cfg)),
        n_max=n_max,
        psi_max=None if psi_max is None else float(psi_max),
        psi_eps=None if psi_eps is None else float(psi_eps),
        tol=float(_resolve(args, "tol", file_cfg)),
        tol_conv=float(_resolve(args, "tol_conv", file_cfg)),
        pin_fraction=float(_resolve(args, "pin_fraction", file_cfg)),
        jobs=_resolve_jobs(args, file_cfg),
        out=_resolve(args, "out", file_cfg),
        format=fmt,
    )
    if cfg.z < 1:
        raise CliError(f"z: must be a positive integer, got {cfg.z}")
    if cfg.tol <= 0:
        raise CliError(f"tol: must be positive, got {cfg.tol}")
    try:
        cfg.psi_spec()
    except ValueError as err:
        raise CliError(f"psi_max/psi_eps: {err}") from err
    return cfg


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_value(v: float):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return None
    return v


def _points_csv(points: Sequence[PhasePoint]) -> str:
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(",".join([
            _fmt(pt.x), _fmt(pt.y), _fmt(pt.psi_star), _fmt(pt.energy),
            _fmt(pt.l_expect), pt.token, str(pt.n_max_used),
            "true" if pt.converged else "false",
        ]))
    return "\n".join(lines) + "\n"


def _points_json(points: Sequence[PhasePoint], spec: dict) -> str:
    columns = {
        "x_log10_kappa": [_json_value(p.x) for p in points],
        "y_lmu_minus_omega": [_json_value(p.y) for p in points],
        "psi": [_json_value(p.psi_star) for p in points],
        "energy": [_json_value(p.energy) for p in points],
        "L_expect": [_json_value(p.l_expect) for p in points],
        "phase": [p.token for p in points],
        "n_max": [p.n_max_used for p in points],
        "converged": [p.converged for p in points],
    }
    return json.dumps({"spec": spec, "columns": columns},
                      indent=1, sort_keys=True) + "\n"


def cmd_point(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_run_config(args, file_cfg)
    x = _resolve(args, "x", file_cfg)
    y = _resolve(args, "y", file_cfg)
    if x is None or y is None:
        raise CliError("x/y: both coordinates are required for point")
    x, y = float(x), float(y)

    def report(pt_token: str, psi: float, energy: float, l_expect: float,
               n_used: int, converged: bool, report_obj) -> None:
        lines = [
            f"x_log10_kappa = {_fmt(x)}",
            f"y_lmu_minus_omega = {_fmt(y)}",
            f"phase = {pt_token}",
            f"psi = {_fmt(psi)}",
            f"energy = {_fmt(energy)}",
            f"L_expect = {_fmt(l_expect)}",
            f"n_max = {n_used}",
            f"converged = {'true' if converged else 'false'}",
        ]
        if report_obj is not None:
            lines.append("probe_n_max = " + " ".join(str(n) for n in report_obj.n_max_sequence))
            lines.append("probe_energy = " + " ".join(_fmt(e) for e in report_obj.energies))
            lines.append("probe_L_expect = " + " ".join(_fmt(v) for v in report_obj.l_expects))
            lines.append(f"probe_pinned = {'true' if report_obj.pinned_at_truncation else 'false'}")
        print("\n".join(lines))

    try:
        pt = classify_at(cfg.l, x, y, z=cfg.z, mu=cfg.mu, delta=cfg.delta,
                         base_n_max=cfg.n_max, psi_spec=cfg.psi_spec(),
                         tol_conv=cfg.tol_conv, pin_fraction=cfg.pin_fraction,
                         tol=cfg.tol)
    except IndeterminatePhaseError as err:
        rep = err.report
        energy = rep.energies[-1] if rep else float("nan")
        l_expect = rep.l_expects[-1] if rep else float("nan")
        n_used = rep.n_max_sequence[-1] if rep else 0
        report("INDET", 0.0, energy, l_expect, n_used, False, rep)
        print(f"note = {err}")
        return EXIT_INDETERMINATE
    report(pt.token, pt.psi_star, pt.energy, pt.l_expect, pt.n_max_used,
           pt.converged, pt.report)
    return EXIT_OK


def cmd_diagram(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_run_config(args, file_cfg)
    x_range = _resolve(args, "x_range", file_cfg)
    y_range = _resolve(args, "y_range", file_cfg)
    base = GridSpec.default(cfg.l, z=cfg.z, mu=cfg.mu, delta=cfg.delta)
    if x_range is not None:
        lo, hi, n = _parse_range(x_range, "x-range")
        base = replace(base, x_lo=lo, x_hi=hi, nx=n)
    if y_range is not None:
        lo, hi, n = _parse_range(y_range, "y-range")
        base = replace(base, y_lo=lo, y_hi=hi, ny=n)

    grid = run_grid(base, base_n_max=cfg.n_max, psi_spec=cfg.psi_spec(),
                    jobs=cfg.jobs, tol_conv=cfg.tol_conv,
                    pin_fraction=cfg.pin_fraction, tol=cfg.tol)
    points = list(grid.iter_cells())
    spec_echo = dict(cfg.as_dict())
    spec_echo.update({
        "command": "diagram",
        "x_range": [base.x_lo, base.x_hi, base.nx],
        "y_range": [base.y_lo, base.y_hi, base.ny],
    })
    if cfg.format == "csv":
        _write_text(cfg.out, _points_csv(points))
    else:
        _write_text(cfg.out, _points_json(points, spec_echo))

    counts = grid.token_counts()
    bad = counts.get("INDET", 0) + counts.get("INVALID", 0)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"cells = {len(points)} ({summary})", file=sys.stderr)
    return EXIT_PARTIAL if bad else EXIT_OK


def cmd_boundary(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_run_config(args, file_cfg)
    axis = _resolve(args, "axis", file_cfg)
    fixed = _resolve(args, "fixed", file_cfg)
    bracket = _resolve(args, "bracket", file_cfg)
    if axis not in ("x", "y"):
        raise CliError(f"axis: must be x or y, got {axis!r}")
    if fixed is None or bracket is None:
        raise CliError("fixed/bracket: both are required for boundary")
    fixed = float(fixed)
    lo, hi = _parse_bracket(bracket, "bracket")
    between = _resolve(args, "between", file_cfg)
    pair = None
    if between is not None:
        parts = between.split(",") if isinstance(between, str) else list(between)
        if len(parts) != 2:
            raise CliError(f"between: expected two phase tokens, got {between!r}")
        pair = (parts[0].strip(), parts[1].strip())
    btol = float(_resolve(args, "boundary_tol", file_cfg))

    def evaluate(t: float) -> PhasePoint:
        xx, yy = (t, fixed) if axis == "x" else (fixed, t)
        return classify_at(cfg.l, xx, yy, z=cfg.z, mu=cfg.mu, delta=cfg.delta,
                           base_n_max=cfg.n_max, psi_spec=cfg.psi_spec(),
                           tol_conv=cfg.tol_conv, pin_fraction=cfg.pin_fraction,
                           tol=cfg.tol)

    end_lo = evaluate(lo)
    end_hi = evaluate(hi)
    try:
        value = refine_boundary(evaluate, lo, hi, pair=pair, tol=btol)
    except ValueError as err:
        raise CliError(f"bracket: {err}") from err
    print(f"axis = {axis}")
    print(f"fixed = {_fmt(fixed)}")
    print(f"pair = {end_lo.token} {end_hi.token}")
    print(f"boundary = {_fmt(value)}")
    if cfg.out is not None and cfg.out != "-":
        spec_echo = dict(cfg.as_dict())
        spec_echo.update({"command": "boundary", "axis": axis, "fixed": fixed,
                          "bracket": [lo, hi], "boundary_tol": btol})
        if cfg.format == "csv":
            text = ("axis,fixed,lo,hi,token_lo,token_hi,boundary\n"
                    f"{axis},{_fmt(fixed)},{_fmt(lo)},{_fmt(hi)},"
                    f"{end_lo.token},{end_hi.token},{_fmt(value)}\n")
        else:
            text = json.dumps({"spec": spec_echo, "columns": {
                "axis": [axis], "fixed": [fixed], "lo": [lo], "hi": [hi],
                "token_lo": [end_lo.token], "token_hi": [end_hi.token],
                "boundary": [value]}}, indent=1, sort_keys=True) + "\n"
        _write_text(cfg.out, text)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_run_config(args, file_cfg)
    y = _resolve(args, "y", file_cfg)
    if y is None:
        raise CliError("y: required for scan")
    y = float(y)
    x_range = _resolve(args, "x_range", file_cfg)
    if x_range is None:
        raise CliError("x-range: required for scan")
    lo, hi, n = _parse_range(x_range, "x-range")
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    rows = energy_scan(cfg.l, y, xs, z=cfg.z, mu=cfg.mu, delta=cfg.delta,
                       base_n_max=cfg.n_max, psi_spec=cfg.psi_spec(),
                       tol=cfg.tol)
    spec_echo = dict(cfg.as_dict())
    spec_echo.update({"command": "scan", "y": y, "x_range": [lo, hi, n]})
    if cfg.format == "csv":
        lines = ["x_log10_kappa,y_lmu_minus_omega,energy,psi"]
        for x, e, psi in rows:
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(e)},{_fmt(psi)}")
        _write_text(cfg.out, "\n".join(lines) + "\n")
    else:
        _write_text(cfg.out, json.dumps({"spec": spec_echo, "columns": {
            "x_log10_kappa": [r[0] for r in rows],
            "y_lmu_minus_omega": [y] * len(rows),
            "energy": [r[1] for r in rows],
            "psi": [r[2] for r in rows]}}, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_analytic(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    l = _resolve(args, "l", file_cfg)
    if l is None:
        raise CliError("l: missing (give --l or set it in the config file)")
    l = int(l)
    if not 1 <= l <= 4:
        raise CliError(f"l: must be between 1 and 4, got {l}")
    out = _resolve(args, "out", file_cfg)
    fmt = str(_resolve(args, "format", file_cfg))
    if fmt not in ("csv", "json"):
        raise CliError(f"format: must be csv or json, got {fmt!r}")
    x_range = _resolve(args, "x_range", file_cfg)
    lo, hi, n = _parse_range(x_range, "x-range") if x_range is not None else (-4.0, -0.2, 20)
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    rows: list[dict] = []

    def add(quantity: str, **kw) -> None:
        row = {"quantity": quantity, "l": l, "L": "", "partner_or_side": "",
               "x_log10_kappa": "", "kappa": "", "omega": "",
               "y_lmu_minus_omega": "", "value": ""}
        row.update(kw)
        rows.append(row)

    for L in range(l, l + 4):
        try:
            w = solve_sector_zero(l, L)
            add("sector_zero", L=L, omega=_fmt(w), y_lmu_minus_omega=_fmt(l - w),
                value=_fmt(l - w))
        except ValueError:
            add("sector_zero", L=L, value="none")
    crossings = [(0, l)] + [(L, L + 1) for L in range(l, l + 3)]
    for L1, L2 in crossings:
        try:
            w = solve_sector_crossing(l, L1, L2)
            add("sector_crossing", L=L1, partner_or_side=str(L2),
                omega=_fmt(w), y_lmu_minus_omega=_fmt(l - w), value=_fmt(l - w))
        except ValueError:
            add("sector_crossing", L=L1, partner_or_side=str(L2), value="none")
    slope = asymptotic_slope(l, 0.0)
    if math.isinf(slope):
        add("asymptotic_slope", value="unbounded")
    else:
        # slope is omega plus a constant; report the constant
        add("asymptotic_slope", value=f"omega{slope:+g}")
    if l == 1:
        for L, side in [(0, Side.UPPER), (1, Side.UPPER), (2, Side.UPPER),
                        (1, Side.LOWER), (2, Side.LOWER)]:
            add("strong_coupling", L=L, partner_or_side=side.value,
                kappa=_fmt(0.0), value=_fmt(strong_coupling_boundary(L, side, 0.0)))
            for x in xs:
                kap = 10.0 ** x
                add("strong_coupling", L=L, partner_or_side=side.value,
                    x_log10_kappa=_fmt(x), kappa=_fmt(kap),
                    value=_fmt(strong_coupling_boundary(L, side, kap)))

    header = ["quantity", "l", "L", "partner_or_side", "x_log10_kappa",
              "kappa", "omega", "y_lmu_minus_omega", "value"]
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[k]) for k in header))
        _write_text(out, "\n".join(lines) + "\n")
    else:
        columns = {k: [row[k] for row in rows] for k in header}
        spec_echo = {"command": "analytic", "l": l, "x_range": [lo, hi, n],
                     "format": fmt}
        _write_text(out, json.dumps({"spec": spec_echo, "columns": columns},
                                    indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    file_cfg = _load_config(args.config)
    quick = bool(_resolve(args, "quick", file_cfg))
    settings = ValidationSettings(
        jobs=_resolve_jobs(args, file_cfg),
        tol_conv=float(_resolve(args, "tol_conv", file_cfg)),
        pin_fraction=float(_resolve(args, "pin_fraction", file_cfg)),
    )
    results = run_all(quick=quick, settings=settings)
    for res in results:
        print(res.line())
    out = _resolve(args, "out", file_cfg)
    if out is not None:
        payload = {
            "passed": all(r.passed for r in results),
            "checks": [
                {"name": r.name, "passed": r.passed,
                 "measured": str(r.measured), "expected": str(r.expected),
                 "tolerance": str(r.tolerance), "seconds": round(r.seconds, 3),
                 "detail": r.detail}
                for r in results
            ],
        }
        _write_text(out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jchm",
        description="Mean-field phase diagrams of l-photon lattice cavity arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, numeric: bool = True,
                   output: bool = True) -> None:
        p.add_argument("--config", metavar="PATH",
                       help="JSON file with defaults for any flag")
        p.add_argument("--l", type=int, help="photon order, 1 to 4")
        p.add_argument("--z", type=int, help="coordination number (default 2)")
        p.add_argument("--mu", type=float, help="chemical potential (default 1)")
        p.add_argument("--delta", type=float, help="detuning omega - Omega (default 0)")
        if numeric:
            p.add_argument("--n-max", dest="n_max", type=int,
                           help="base photon truncation (default 40, or 24 for l >= 3)")
            p.add_argument("--psi-max", dest="psi_max", type=float,
                           help="upper end of the psi search (default sqrt(n_max)/2)")
            p.add_argument("--psi-eps", dest="psi_eps", type=float,
                           help="threshold below which psi counts as zero (default 1e-3)")
            p.add_argument("--tol", type=float, help="eigensolver tolerance (default 1e-10)")
            p.add_argument("--tol-conv", dest="tol_conv", type=float,
                           help="energy tolerance of the truncation probe (default 1e-8)")
            p.add_argument("--pin-fraction", dest="pin_fraction", type=float,
                           help="fraction of n_max at which <L> counts as pinned (default 0.8)")
        if output:
            p.add_argument("--out", help="output path ('-' = stdout, the default)")
            p.add_argument("--format", choices=("csv", "json"),
                           help="output format (default csv)")

    p_point = sub.add_parser("point", help="classify a single parameter point")
    add_common(p_point, output=False)
    p_point.add_argument("--x", type=float, help="log10 of the hopping amplitude")
    p_point.add_argument("--y", type=float, help="l mu - omega")
    p_point.set_defaults(func=cmd_point)

    range_help = "grid samples; use --%s=LO:HI:N when LO is negative"
    p_diag = sub.add_parser("diagram", help="classify a full (x, y) grid")
    add_common(p_diag)
    p_diag.add_argument("--x-range", dest="x_range", metavar="LO:HI:N",
                        help=range_help % "x-range")
    p_diag.add_argument("--y-range", dest="y_range", metavar="LO:HI:N",
                        help=range_help % "y-range")
    p_diag.add_argument("--jobs", type=int,
                        help="worker processes (default JCHM_JOBS or 1)")
    p_diag.set_defaults(func=cmd_diagram)

    p_bound = sub.add_parser("boundary", help="bisect a phase boundary")
    add_common(p_bound)
    p_bound.add_argument("--axis", choices=("x", "y"),
                         help="coordinate to bisect along")
    p_bound.add_argument("--fixed", type=float, help="the other coordinate")
    p_bound.add_argument("--bracket", metavar="LO:HI",
                         help="search interval; use --bracket=LO:HI when LO is negative")
    p_bound.add_argument("--between", metavar="PHASE,PHASE",
                         help="required tokens at the bracket ends, e.g. MI:0,SF")
    p_bound.add_argument("--boundary-tol", dest="boundary_tol", type=float,
                         help="bisection width target (default 1e-3)")
    p_bound.set_defaults(func=cmd_boundary)

    p_scan = sub.add_parser("scan", help="minimised energy along a horizontal cut")
    add_common(p_scan)
    p_scan.add_argument("--y", type=float, help="l mu - omega of the cut")
    p_scan.add_argument("--x-range", dest="x_range", metavar="LO:HI:N",
                        help=range_help % "x-range")
    p_scan.set_defaults(func=cmd_scan)

    p_ana = sub.add_parser("analytic", help="closed-form thresholds and curves")
    p_ana.add_argument("--config", metavar="PATH")
    p_ana.add_argument("--l", type=int, help="photon order, 1 to 4")
    p_ana.add_argument("--x-range", dest="x_range", metavar="LO:HI:N",
                       help="kappa sampling for the strong-coupling curves")
    p_ana.add_argument("--out")
    p_ana.add_argument("--format", choices=("csv", "json"))
    p_ana.set_defaults(func=cmd_analytic)

    p_val = sub.add_parser("validate", help="re-derive the reference results")
    p_val.add_argument("--config", metavar="PATH")
    p_val.add_argument("--quick", action="store_const", const=True,
                       help="skip the long diagram census")
    p_val.add_argument("--jobs", type=int)
    p_val.add_argument("--tol-conv", dest="tol_conv", type=float)
    p_val.add_argument("--pin-fraction", dest="pin_fraction", type=float)
    p_val.add_argument("--out", help="write a JSON report here")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"invalid parameter: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"invalid parameter: {err}", file=sys.stderr)
        return EXIT_INVALID
    except BracketExhausted as err:
        print(f"invalid parameter: psi_max: {err}", file=sys.stderr)
        return EXIT_INVALID
    except IndeterminatePhaseError as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except EigensolverError as err:
        print(f"indeterminate: eigensolver: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE


def entrypoint() -> None:
    raise SystemExit(main())
