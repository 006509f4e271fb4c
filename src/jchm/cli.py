"""Command-line interface.

Subcommands: point, diagram, boundary, scan, analytic, validate.  Every
setting is one row of SETTINGS, which makes its flag, its config-file key and
its type.  A setting resolves as command-line flag > config file > JCHM_JOBS
(jobs only) > built-in default.  Data files are deterministic: no timestamps,
floats printed with 17 significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from .analytic import (
    Side,
    asymptotic_slope,
    solve_sector_crossing,
    solve_sector_zero,
    strong_coupling_boundary,
)
from .classify import IndeterminatePhaseError, PhasePoint
from .eigen import EigensolverError
from .groundstate import resolve_n_max
from .sweep import (
    GridSpec,
    classify_at,
    energy_scan,
    refine_boundary,
    run_grid,
)
from .validation import run_all

CSV_HEADER = "x_log10_kappa,y_lmu_minus_omega,psi,energy,L_expect,phase,n_max,converged"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_PARTIAL = 3

_COMPUTE = ("point", "diagram", "boundary", "scan")
_WRITERS = ("diagram", "boundary", "scan", "analytic")
_RANGE = "samples LO:HI:N of %s; write --%s=LO:HI:N when LO is negative"

# (key, type, default, help, subcommands with the flag).  The key names the
# flag (underscores become dashes) and the config-file key; every key is
# accepted in a config file.  type is int, float, str, bool (a switch), a
# tuple of allowed values, or None for a value parsed by its command (a
# "lo:hi[:n]" string or a JSON list).  A None default means unset: the
# solver's own default, or a value the command requires.
SETTINGS = (
    ("l", int, None, "photon order, 1 to 4", _COMPUTE + ("analytic",)),
    ("z", int, 2, "coordination number (default 2)", _COMPUTE),
    ("mu", float, 1.0, "chemical potential (default 1)", _COMPUTE),
    ("delta", float, 0.0, "detuning omega - Omega (default 0)", _COMPUTE),
    ("n_max", int, None,
     "base photon truncation (default 40, or 24 for l >= 3)", _COMPUTE),
    ("jobs", int, 1, "worker processes (default JCHM_JOBS or 1)",
     ("diagram", "validate")),
    ("x", float, None, "log10 of the hopping amplitude", ("point",)),
    ("y", float, None, "l mu - omega", ("point", "scan")),
    ("x_range", None, None, _RANGE % ("log10 kappa", "x-range"),
     ("diagram", "scan", "analytic")),
    ("y_range", None, None, _RANGE % ("l mu - omega", "y-range"), ("diagram",)),
    ("axis", ("x", "y"), None, "coordinate to bisect along", ("boundary",)),
    ("fixed", float, None, "the other coordinate", ("boundary",)),
    ("bracket", None, None,
     "search interval LO:HI; write --bracket=LO:HI when LO is negative",
     ("boundary",)),
    ("between", None, None,
     "required tokens at the bracket ends, e.g. MI:0,SF", ("boundary",)),
    ("boundary_tol", float, 1e-3, "bisection width target (default 1e-3)",
     ("boundary",)),
    ("quick", bool, False, "skip the long diagram census", ("validate",)),
    ("out", str, None,
     "output path ('-' = stdout, the default; validate writes a JSON report)",
     _WRITERS + ("validate",)),
    ("format", ("csv", "json"), "csv", "output format (default csv)", _WRITERS),
)
_TABLE = {row[0]: row for row in SETTINGS}

# Bounds on resolved values: key -> (test, message when the test fails).
_LIMITS = {
    "l": (lambda v: 1 <= v <= 4, "must be between 1 and 4"),
    "z": (lambda v: v >= 1, "must be a positive integer"),
    "jobs": (lambda v: v >= 1, "must be a positive integer"),
    "boundary_tol": (lambda v: v > 0, "must be positive"),
}


def _fmt(value: float) -> str:
    """Floats at full round-trip precision, stable across runs."""
    return "%.17g" % value


def _convert(key: str, kind, value, shown: str | None = None):
    """A flag, config-file or environment value as the key's declared type.

    Integers must be integral and switches JSON booleans; a failure names
    the key, showing the value as `shown` (default its repr).
    """
    if kind is None:
        return value
    if isinstance(kind, tuple):
        if str(value) not in kind:
            raise ValueError(f"{key}: must be {' or '.join(kind)}, got {str(value)!r}")
        return str(value)
    if kind is str:
        return str(value)
    if isinstance(value, bool) == (kind is bool):
        try:
            converted = kind(value)
            if kind is not int or converted == float(value):
                return converted
        except (TypeError, ValueError, OverflowError):
            pass
    noun = {bool: "true or false", int: "an integer", float: "a number"}[kind]
    raise ValueError(f"{key}: {repr(value) if shown is None else shown} is not {noun}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ValueError(f"config: cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config: {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"config: {path} must hold a JSON object")
    for key in data:
        if key not in _TABLE:
            raise ValueError(f"config: unknown key '{key}'")
    return data


class _Config:
    """The settings of one invocation; cfg[key] resolves a key when read."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file = _load_config(args.config)

    def __getitem__(self, key: str):
        _, kind, default, _, _ = _TABLE[key]
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file.get(key)
        shown = None
        if value is None and key == "jobs" and "JCHM_JOBS" in os.environ:
            value = os.environ["JCHM_JOBS"]
            shown = f"JCHM_JOBS={value!r}"
        if value is None:
            return default
        value = _convert(key, kind, value, shown)
        if key in _LIMITS and not _LIMITS[key][0](value):
            raise ValueError(f"{key}: {_LIMITS[key][1]}, got {value}")
        return value

    def photon_order(self) -> int:
        l = self["l"]
        if l is None:
            raise ValueError("l: missing (give --l or set it in the config file)")
        return l

    def model(self) -> dict:
        return {"z": self["z"], "mu": self["mu"], "delta": self["delta"]}

    def echo(self, **extra) -> dict:
        """The `spec` object of JSON output: the resolved configuration."""
        echo = {key: self[key] for key in ("l", "z", "mu", "delta", "jobs", "format")}
        echo.update(command=self.args.command, **extra)
        return echo


def _split(text, name: str, form: str) -> list:
    """The parts of a "lo:hi[:n]" string or a sequence, as many as form has."""
    parts = list(text) if isinstance(text, (list, tuple)) else str(text).split(":")
    if len(parts) != form.count(":") + 1:
        raise ValueError(f"{name}: expected {form}, got {text!r}")
    return parts


def _parse_range(text, name: str) -> tuple[float, float, int]:
    """Accept "lo:hi:n" or a [lo, hi, n] sequence; n must be integral."""
    parts = _split(text, name, "lo:hi:n")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: expected lo:hi:n with numeric parts, got {text!r}") from err
    n = _convert(name, int, parts[2])
    if n < 2:
        raise ValueError(f"{name}: need at least 2 samples, got {n}")
    if not lo < hi:
        raise ValueError(f"{name}: need lo < hi, got {lo} >= {hi}")
    return lo, hi, n


def _x_samples(text) -> tuple[float, float, int, list[float]]:
    """An x-range "lo:hi:n" as (lo, hi, n) and its n evenly spaced x; an
    infinite bound would make the samples NaN, so it is rejected."""
    lo, hi, n = _parse_range(text, "x-range")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"x-range: bounds must be finite, got {lo}:{hi}")
    return lo, hi, n, [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _parse_bracket(text, name: str) -> tuple[float, float]:
    parts = _split(text, name, "lo:hi")
    try:
        return float(parts[0]), float(parts[1])
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: expected numeric lo:hi, got {text!r}") from err


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_value(v):
    """v for JSON, lists item by item, with NaN and infinities as null."""
    if isinstance(v, list):
        return [_json_value(item) for item in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def _table(columns: dict[str, list], fmt: str, spec: dict) -> str:
    """Equal-length columns as a data file, in their given order.

    csv: a header row, then one line per row, bools as true/false, floats
    at full precision and anything else as str.  json: {"spec", "columns"}
    with NaN and infinities in either as null.
    """
    if fmt == "json":
        data = {part: {key: _json_value(v) for key, v in values.items()}
                for part, values in (("spec", spec), ("columns", columns))}
        return json.dumps(data, indent=1, sort_keys=True) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(map(_csv_cell, row)) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


# PhasePoint attributes behind the CSV_HEADER columns, in order.
_POINT_FIELDS = ("x", "y", "psi_star", "energy", "l_expect", "token",
                 "n_max_used", "converged")


def _point_columns(points: Sequence[PhasePoint]) -> dict[str, list]:
    return {key: [getattr(pt, name) for pt in points]
            for key, name in zip(CSV_HEADER.split(","), _POINT_FIELDS)}


def cmd_point(cfg: _Config) -> int:
    l = cfg.photon_order()
    n_max = resolve_n_max(l, cfg["n_max"])
    x, y = cfg["x"], cfg["y"]
    if x is None or y is None:
        raise ValueError("x/y: both coordinates are required for point")
    try:
        pt, note = classify_at(l, x, y, n_max, **cfg.model()), None
    except IndeterminatePhaseError as err:
        pt, note = err.point, str(err)
    # the CSV columns as key = value lines, with the phase third
    keys = CSV_HEADER.split(",")
    keys.insert(2, keys.pop(keys.index("phase")))
    columns = _point_columns([pt])
    lines = [f"{key} = {_csv_cell(columns[key][0])}" for key in keys]
    if note is not None:
        lines.append(f"note = {note}")
    print("\n".join(lines))
    return EXIT_OK if note is None else EXIT_INDETERMINATE


def cmd_diagram(cfg: _Config) -> int:
    l = cfg.photon_order()
    n_max = resolve_n_max(l, cfg["n_max"])
    base = GridSpec.default(l, **cfg.model())
    if cfg["x_range"] is not None:
        lo, hi, n = _parse_range(cfg["x_range"], "x-range")
        base = replace(base, x_lo=lo, x_hi=hi, nx=n)
    if cfg["y_range"] is not None:
        lo, hi, n = _parse_range(cfg["y_range"], "y-range")
        base = replace(base, y_lo=lo, y_hi=hi, ny=n)
    spec_echo = cfg.echo(n_max=n_max, x_range=[base.x_lo, base.x_hi, base.nx],
                         y_range=[base.y_lo, base.y_hi, base.ny])

    grid = run_grid(base, n_max, jobs=cfg["jobs"])
    points = list(grid.iter_cells())
    _write_text(cfg["out"], _table(_point_columns(points), cfg["format"], spec_echo))

    counts = grid.token_counts()
    bad = counts.get("INDET", 0) + counts.get("INVALID", 0)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"cells = {len(points)} ({summary})", file=sys.stderr)
    return EXIT_PARTIAL if bad else EXIT_OK


def cmd_boundary(cfg: _Config) -> int:
    l = cfg.photon_order()
    n_max = resolve_n_max(l, cfg["n_max"])
    axis, fixed, bracket = cfg["axis"], cfg["fixed"], cfg["bracket"]
    if axis is None:
        raise ValueError("axis: must be x or y, got None")
    if fixed is None or bracket is None:
        raise ValueError("fixed/bracket: both are required for boundary")
    lo, hi = _parse_bracket(bracket, "bracket")
    between = cfg["between"]
    pair = None
    if between is not None:
        parts = between.split(",") if isinstance(between, str) else between
        if not (isinstance(parts, list) and len(parts) == 2
                and all(isinstance(p, str) for p in parts)):
            raise ValueError(f"between: expected two phase tokens, got {between!r}")
        pair = (parts[0].strip(), parts[1].strip())
    btol = cfg["boundary_tol"]
    out = cfg["out"]
    spec_echo = cfg.echo(n_max=n_max, axis=axis, fixed=fixed, bracket=[lo, hi],
                         boundary_tol=btol)
    model = cfg.model()

    # cached, so refine_boundary does not classify the bracket ends again
    @functools.cache
    def evaluate(t: float) -> PhasePoint:
        xx, yy = (t, fixed) if axis == "x" else (fixed, t)
        return classify_at(l, xx, yy, n_max, **model)

    end_lo = evaluate(lo)
    end_hi = evaluate(hi)
    try:
        value = refine_boundary(evaluate, lo, hi, pair=pair, tol=btol)
    except ValueError as err:
        raise ValueError(f"bracket: {err}") from err
    print(f"axis = {axis}")
    print(f"fixed = {_fmt(fixed)}")
    print(f"pair = {end_lo.token} {end_hi.token}")
    print(f"boundary = {_fmt(value)}")
    if out is not None and out != "-":
        columns = {"axis": [axis], "fixed": [fixed], "lo": [lo], "hi": [hi],
                   "token_lo": [end_lo.token], "token_hi": [end_hi.token],
                   "boundary": [value]}
        _write_text(out, _table(columns, spec_echo["format"], spec_echo))
    return EXIT_OK


def cmd_scan(cfg: _Config) -> int:
    l = cfg.photon_order()
    n_max = resolve_n_max(l, cfg["n_max"])
    y = cfg["y"]
    if y is None:
        raise ValueError("y: required for scan")
    x_range = cfg["x_range"]
    if x_range is None:
        raise ValueError("x-range: required for scan")
    lo, hi, n, xs = _x_samples(x_range)
    spec_echo = cfg.echo(n_max=n_max, y=y, x_range=[lo, hi, n])
    rows = energy_scan(l, y, xs, n_max, **cfg.model())
    columns = {"x_log10_kappa": [r[0] for r in rows],
               "y_lmu_minus_omega": [y] * len(rows),
               "energy": [r[1] for r in rows], "psi": [r[2] for r in rows]}
    _write_text(cfg["out"], _table(columns, cfg["format"], spec_echo))
    return EXIT_OK


def cmd_analytic(cfg: _Config) -> int:
    l = cfg.photon_order()
    out = cfg["out"]
    fmt = cfg["format"]
    x_range = cfg["x_range"]
    lo, hi, n, xs = _x_samples(x_range if x_range is not None else "-4:-0.2:20")
    try:
        kappas = [10.0 ** x for x in xs]
    except OverflowError:
        raise ValueError(f"x-range: kappa = 10**x must be finite, "
                         f"got hi = {hi}") from None

    # the l = 1 strong-coupling edges are closed forms: evaluated before any
    # row, so that one past the float range (kappa * weight overflows for a
    # finite kappa) writes none
    edges = []
    if l == 1:
        for L, side in [(0, Side.UPPER), (1, Side.UPPER), (2, Side.UPPER),
                        (1, Side.LOWER), (2, Side.LOWER)]:
            values = [strong_coupling_boundary(L, side, k) for k in kappas]
            for x, value in zip(xs, values):
                if not math.isfinite(value):
                    raise ValueError(
                        f"x-range: the strong-coupling edge must be finite, "
                        f"got {value} at x = {x}")
            edges.append((L, side, values))

    columns: dict[str, list] = {key: [] for key in (
        "quantity", "l", "L", "partner_or_side", "x_log10_kappa", "kappa",
        "omega", "y_lmu_minus_omega", "value")}

    def add(quantity: str, **kw) -> None:
        row = dict.fromkeys(columns, "")
        row.update(quantity=quantity, l=l, **kw)
        for key, value in row.items():
            columns[key].append(value)

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
    for L, side, values in edges:
        add("strong_coupling", L=L, partner_or_side=side.value,
            kappa=_fmt(0.0), value=_fmt(strong_coupling_boundary(L, side, 0.0)))
        for x, kap, value in zip(xs, kappas, values):
            add("strong_coupling", L=L, partner_or_side=side.value,
                x_log10_kappa=_fmt(x), kappa=_fmt(kap), value=_fmt(value))

    spec_echo = {"command": "analytic", "l": l, "x_range": [lo, hi, n],
                 "format": fmt}
    _write_text(out, _table(columns, fmt, spec_echo))
    return EXIT_OK


def cmd_validate(cfg: _Config) -> int:
    results = run_all(quick=cfg["quick"], jobs=cfg["jobs"])
    for res in results:
        print(res.line())
    out = cfg["out"]
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


_COMMANDS = (
    ("point", cmd_point, "classify a single parameter point"),
    ("diagram", cmd_diagram, "classify a full (x, y) grid"),
    ("boundary", cmd_boundary, "bisect a phase boundary"),
    ("scan", cmd_scan, "minimised energy along a horizontal cut"),
    ("analytic", cmd_analytic, "closed-form thresholds and curves"),
    ("validate", cmd_validate, "re-derive the reference results"),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INVALID; argparse's own 2 is EXIT_INDETERMINATE here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jchm",
        description="Mean-field phase diagrams of l-photon lattice cavity arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON file with defaults for any flag")
        for key, kind, _, help_text, commands in SETTINGS:
            if name not in commands:
                continue
            if kind is bool:
                how = {"action": "store_const", "const": True}
            else:
                how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind or str}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text,
                           **how)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_Config(args))
    except ValueError as err:
        print(f"invalid parameter: {err}", file=sys.stderr)
        return EXIT_INVALID
    except IndeterminatePhaseError as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except EigensolverError as err:
        print(f"indeterminate: eigensolver: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE


def entrypoint() -> None:
    raise SystemExit(main())
