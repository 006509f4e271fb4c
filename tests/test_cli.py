import json
import shutil
import subprocess
import sys

import pytest

from jchm import cli, eigen, sweep
from jchm.cli import CSV_HEADER, main
from jchm.validation import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_point_insulator(capsys):
    code, out, err = run_cli(capsys, "point", "--l", "2", "--x", "-4", "--y", "-0.3")
    assert code == 0
    assert "phase = MI:2" in out
    assert "psi = 0\n" in out
    assert "converged = true" in out
    assert "n_max = 80" in out  # the label's level, twice the base truncation
    l_expect = float(next(ln for ln in out.splitlines()
                          if ln.startswith("L_expect")).split("=")[1])
    assert l_expect == pytest.approx(2.0, abs=1e-9)


def test_point_superfluid(capsys):
    code, out, _ = run_cli(capsys, "point", "--l", "1", "--x", "-0.5", "--y", "-1.2")
    assert code == 0
    assert "phase = SF" in out
    psi = float(next(ln for ln in out.splitlines() if ln.startswith("psi")).split("=")[1])
    assert psi > 1e-3


def test_point_missing_coordinate(capsys):
    code, _, err = run_cli(capsys, "point", "--l", "1", "--x", "-2")
    assert code == 1
    assert "invalid parameter" in err
    assert "x/y" in err


def test_point_bad_truncation_names_field(capsys):
    code, _, err = run_cli(capsys, "point", "--l", "1", "--x", "-2", "--y", "-1.2",
                           "--n-max", "1")
    assert code == 1
    assert "n_max" in err


def test_point_bad_l_names_field(capsys):
    code, _, err = run_cli(capsys, "point", "--l", "7", "--x", "-2", "--y", "-1.2")
    assert code == 1
    assert "l:" in err


def test_point_invalid_omega(capsys):
    # y >= l mu leaves no positive cavity frequency
    code, _, err = run_cli(capsys, "point", "--l", "1", "--x", "-2", "--y", "1.5")
    assert code == 1
    assert "omega" in err


def test_scan_bracket_exhausted_names_psi_max(capsys):
    # at l = 3 the energy falls without bound once psi grows: the minimum
    # sits at psi_max = sqrt(n_max)/2, which only a larger n_max moves
    code, out, err = run_cli(capsys, "scan", "--l", "3", "--y", "-1",
                             "--x-range=-2:-0.3:5")
    assert code == 1
    assert out == ""
    assert err == ("invalid parameter: n_max: energy minimum sits at "
                   "psi_max=2.44949; raise n_max\n")


def test_overflowing_drive_is_invalid_input(tmp_path, capsys):
    # z kappa psi_max^2 past sqrt(float max) is rejected before any solve,
    # so no overflow warning is printed and no cell reads as INDET
    code, out, err = run_cli(capsys, "point", "--l", "1", "--x", "300",
                             "--y", "-1")
    assert (code, out) == (1, "")
    assert err == ("invalid parameter: x: kappa = 1e+300 makes the drive "
                   "z kappa psi_max^2 = 2e+301 exceed sqrt(float max) = "
                   "1.34078e+154\n")
    out_file = tmp_path / "grid.csv"
    code, _, err = run_cli(capsys, "diagram", "--l", "1",
                           "--x-range=100:300:2", "--y-range=-1.2:-1:2",
                           "--out", str(out_file))
    assert code == 3
    assert "INVALID=2" in err and "SF=2" in err
    rows = [ln.split(",") for ln in out_file.read_text().splitlines()[1:]]
    assert [(r[0], r[5]) for r in rows] == (
        [("100", "SF")] * 2 + [("300", "INVALID")] * 2)


@pytest.mark.parametrize("flag, scale", [
    ("--mu=1e20", "1e+20"), ("--mu=1e300", "1e+300"), ("--y=-1e20", "1e+20"),
    ("--mu=3000", "3001"),
])
def test_unresolvable_scale_is_invalid_input(capsys, flag, scale):
    # a mu or omega whose rounding on the band, eps * scale * (2 n + l) at
    # the probe's n = 2 n_max = 80, exceeds MARGIN cannot be labelled: it
    # once printed FORBIDDEN (mu = 1e20) or failed a certificate (1e300)
    args = ["point", "--l", "1", "--x=-4", "--y=-1", flag]
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err == (f"invalid parameter: mu/omega: max(|omega|, |Omega|, |mu|)"
                   f" = {scale} rounds the band at n_max = 80 by more than "
                   f"MARGIN = 1e-10\n")


def test_point_indeterminate_exit_code(capsys):
    # shallow slope puts the occupation optimum between n_max and the pin
    code, out, _ = run_cli(capsys, "point", "--l", "1", "--x", "-6", "--y", "-0.0646")
    assert code == 2
    assert "phase = INDET" in out
    assert "note = " in out
    assert not any(ln.startswith("probe_") for ln in out.splitlines())


def test_usage_errors_exit_invalid(capsys):
    # argparse's own exit code 2 would read as an indeterminate point
    for argv in (["point", "--l", "x"], ["diagram", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: jchm" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["point", "--help"])
    assert exc.value.code == 0
    assert "usage: jchm point" in capsys.readouterr().out


def test_point_eigensolver_failure_exit_code(capsys, monkeypatch):
    # a residual bound below rounding fails every eigensolve
    monkeypatch.setattr(eigen, "TOL", 1e-17)
    code, out, err = run_cli(capsys, "point", "--l", "1", "--x=-1", "--y=-1")
    assert code == 2
    assert out == ""
    assert err.startswith("indeterminate: eigensolver: residual")
    assert len(err.splitlines()) == 1


def test_diagram_eigensolver_failure_writes_indet_cells(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(eigen, "TOL", 1e-17)
    out_file = tmp_path / "grid.csv"
    code, _, err = run_cli(capsys, "diagram", "--l", "1", "--x-range=-2:-1:2",
                           "--y-range=-1:-0.5:2", "--out", str(out_file))
    assert code == 3
    assert "INDET=4" in err
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [ln.split(",")[5] for ln in lines[1:]] == ["INDET"] * 4


def test_probe_thresholds_rejected_before_any_cell(tmp_path, capsys):
    # the labelling thresholds, the psi search's end and the eigensolver
    # tolerance are constants or follow from n_max: neither a flag nor a
    # config key sets them, and a grid writes nothing
    out_file = tmp_path / "grid.csv"
    grid = ["diagram", "--l", "1", "--x-range=-4:-0.3:3", "--y-range=-1.5:-1:2",
            "--out", str(out_file)]
    for key in ("psi_eps", "tol_conv", "pin_fraction", "psi_max", "tol"):
        for command in (["point", "--l", "1", "--x", "-4", "--y", "-1.2"],
                        grid, ["validate", "--quick"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--" + key.replace("_", "-"), "0.5"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert "usage: jchm" in err and "unrecognized arguments" in err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 0.5}))
        code, out, err = run_cli(capsys, *grid, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"invalid parameter: config: unknown key '{key}'\n"
    assert not out_file.exists()


def test_json_spec_writes_non_finite_values_as_null(tmp_path, capsys):
    out_file = tmp_path / "f.json"
    code, _, _ = run_cli(capsys, "boundary", "--l", "1", "--axis", "y",
                         "--fixed=-inf", "--bracket=-1.3:-0.9", "--format",
                         "json", "--out", str(out_file))
    assert code == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    data = json.loads(out_file.read_text(), parse_constant=reject)
    assert data["spec"]["fixed"] is None
    assert data["columns"]["fixed"] == [None]


def test_diagram_csv_file(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    args = ["diagram", "--l", "1", "--x-range=-4:-3:5",
            "--y-range=-1.8:-1.4:5", "--out", str(out_file)]
    code, _, err = run_cli(capsys, *args)
    assert code == 0
    text = out_file.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 26
    assert all(ln.split(",")[5] == "MI:0" for ln in lines[1:])
    assert "cells = 25" in err

    # rerun lands byte-identical
    first = out_file.read_bytes()
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert out_file.read_bytes() == first


def test_converged_column_is_mi_or_sf(tmp_path, capsys):
    # converged is true exactly for MI:* and SF cells, on a grid that holds
    # MI, SF, FORBIDDEN and INVALID ones (y = 1.2 leaves omega < 0)
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "diagram", "--l", "1", "--x-range=-4:-0.5:2",
                         "--y-range=-1.2:1.2:3", "--out", str(out_file))
    assert code == 3
    rows = [ln.split(",") for ln in out_file.read_text().splitlines()[1:]]
    assert {r[5] for r in rows} == {"MI:0", "SF", "FORBIDDEN", "INVALID"}
    for r in rows:
        assert r[7] == ("true" if r[5] == "SF" or r[5].startswith("MI:")
                        else "false")


def test_diagram_stdout_default(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--l", "1",
                           "--x-range=-4:-3.5:2", "--y-range=-1.8:-1.6:2")
    assert code == 0
    assert out.startswith(CSV_HEADER + "\n")
    assert len(out.splitlines()) == 5


def test_diagram_json(tmp_path, capsys):
    out_file = tmp_path / "grid.json"
    code, _, _ = run_cli(capsys, "diagram", "--l", "1", "--format", "json",
                         "--x-range=-4:-3:3", "--y-range=-1.8:-1.4:3",
                         "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["spec"]["command"] == "diagram"
    assert data["spec"]["l"] == 1
    assert data["spec"]["x_range"] == [-4.0, -3.0, 3]
    cols = data["columns"]
    assert set(cols) == {"x_log10_kappa", "y_lmu_minus_omega", "psi", "energy",
                         "L_expect", "phase", "n_max", "converged"}
    assert cols["phase"] == ["MI:0"] * 9
    assert all(isinstance(v, float) for v in cols["energy"])


def test_diagram_invalid_cells_partial_exit(tmp_path, capsys):
    out_file = tmp_path / "grid.json"
    code, _, err = run_cli(capsys, "diagram", "--l", "1", "--format", "json",
                           "--x-range=-3:-2:2", "--y-range", "1.1:1.3:2",
                           "--out", str(out_file))
    assert code == 3
    assert "INVALID=4" in err
    data = json.loads(out_file.read_text())
    assert data["columns"]["phase"] == ["INVALID"] * 4
    # non-finite numbers become JSON null
    assert data["columns"]["energy"] == [None] * 4


def test_diagram_high_order_tokens(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "diagram", "--l", "3",
                         "--x-range=-4:-1:2", "--y-range=-1.5:0:2",
                         "--out", str(out_file))
    assert code == 0
    tokens = {ln.split(",")[5] for ln in out_file.read_text().splitlines()[1:]}
    assert tokens <= {"SF", "FORBIDDEN"}


def test_diagram_bad_range_syntax(capsys):
    code, _, err = run_cli(capsys, "diagram", "--l", "1", "--x-range=-4:-3")
    assert code == 1
    assert "x-range" in err


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--l", "1", "--y", "-1.2",
                           "--x-range=-4:-1:4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_log10_kappa,y_lmu_minus_omega,energy,psi"
    assert len(lines) == 5
    for ln in lines[1:]:
        e = float(ln.split(",")[2])
        assert abs(e) < 1e-8  # whole cut sits in the empty-lattice insulator


def test_boundary_lobe(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--l", "2", "--axis", "y",
                           "--fixed", "-4", "--bracket=-1:-0.3",
                           "--between", "MI:0,MI:2")
    assert code == 0
    assert "pair = MI:0 MI:2" in out
    value = float(next(ln for ln in out.splitlines()
                       if ln.startswith("boundary")).split("=")[1])
    assert value == pytest.approx(-0.6180339887498949, abs=2e-3)


def test_boundary_pair_mismatch(capsys):
    code, _, err = run_cli(capsys, "boundary", "--l", "2", "--axis", "y",
                           "--fixed", "-4", "--bracket=-1:-0.3",
                           "--between", "MI:0,SF")
    assert code == 1
    assert "expected" in err


def test_boundary_classifies_each_point_once(monkeypatch, capsys):
    # the bracket ends are classified once, not again by refine_boundary:
    # 2 ends and 10 bisection steps from width 0.7 down to 1e-3
    calls = []
    original = cli.classify_at

    def counted(l, x, y, *args, **kwargs):
        calls.append((x, y))
        return original(l, x, y, *args, **kwargs)
    monkeypatch.setattr(cli, "classify_at", counted)
    code, _, _ = run_cli(capsys, "boundary", "--l", "2", "--axis", "y",
                         "--fixed", "-4", "--bracket=-1:-0.3",
                         "--between", "MI:0,MI:2")
    assert code == 0
    assert len(calls) == 12 and len(set(calls)) == 12


def same_cell(text: str, value) -> bool:
    """Whether a CSV cell and a JSON value carry the same datum."""
    if value is None:
        return text in ("nan", "inf", "-inf")
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value
    return text == str(value)


@pytest.mark.parametrize("argv", [
    ["diagram", "--l", "1", "--x-range=-4:-0.5:3", "--y-range=-1.2:1.2:4"],
    ["scan", "--l", "1", "--y", "-1.2", "--x-range=-2:-0.3:4"],
    ["boundary", "--l", "2", "--axis", "y", "--fixed", "-4",
     "--bracket=-1:-0.3", "--boundary-tol", "0.05"],
    ["analytic", "--l", "1", "--x-range=-3:-1:3"],
])
def test_csv_and_json_carry_the_same_cells(tmp_path, capsys, argv):
    # column by column, so it holds wherever the floats themselves differ
    files = {}
    for fmt in ("csv", "json"):
        files[fmt] = tmp_path / f"out.{fmt}"
        code, _, _ = run_cli(capsys, *argv, "--format", fmt,
                             "--out", str(files[fmt]))
        assert code in (0, 3)
    header, *lines = files["csv"].read_text().splitlines()
    rows = [line.split(",") for line in lines]
    columns = json.loads(files["json"].read_text())["columns"]
    assert sorted(header.split(",")) == sorted(columns)
    for i, key in enumerate(header.split(",")):
        assert len(columns[key]) == len(rows)
        for row, value in zip(rows, columns[key]):
            assert same_cell(row[i], value), (key, row[i], value)


def test_analytic_two_photon(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--l", "2")
    assert code == 0
    assert "2.6180339887" in out  # lobe-edge cavity frequency
    assert "0.078520" in out  # level-crossing y coordinate
    assert "omega-2" in out
    assert "strong_coupling" not in out


def test_analytic_single_photon_curves(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--l", "1",
                           "--x-range=-3:-1:3")
    assert code == 0
    assert "omega-1" in out
    assert "strong_coupling" in out
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "quantity"
    # 5 curve branches, each with kappa -> 0 plus 3 sampled kappa
    sc_rows = [ln for ln in lines[1:] if ln.startswith("strong_coupling")]
    assert len(sc_rows) == 5 * 4


def test_analytic_high_order_unbounded(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--l", "4")
    assert code == 0
    assert "unbounded" in out


def test_analytic_json(tmp_path, capsys):
    out_file = tmp_path / "analytic.json"
    code, _, _ = run_cli(capsys, "analytic", "--l", "2", "--format", "json",
                         "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["spec"]["command"] == "analytic"
    assert "value" in data["columns"]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"l": 2, "x": -4.0, "y": -1.3, "n_max": 9}))
    code, out, _ = run_cli(capsys, "point", "--config", str(cfg))
    assert code == 0
    assert "phase = MI:0" in out
    assert "n_max = 18" in out  # the label doubles the configured truncation


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"l": 2, "x": -4.0, "y": -1.3, "n_max": 9}))
    code, out, _ = run_cli(capsys, "point", "--config", str(cfg), "--n-max", "12")
    assert code == 0
    assert "n_max = 24" in out


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"l": 1, "nmax": 10}))
    code, _, err = run_cli(capsys, "point", "--config", str(cfg),
                           "--x", "-2", "--y", "-1.2")
    assert code == 1
    assert "unknown key 'nmax'" in err


def test_config_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "point", "--config", str(cfg),
                           "--x", "-2", "--y", "-1.2")
    assert code == 1
    assert "JSON object" in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "point", "--config", "/nonexistent/run.json",
                           "--x", "-2", "--y", "-1.2")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command, key, value", [
    ("point", "l", "two"),
    ("point", "z", 2.7),
    ("point", "n_max", 40.9),
    ("validate", "quick", "false"),
])
def test_config_value_errors_name_the_key(tmp_path, capsys, monkeypatch,
                                          command, key, value):
    # each value is converted to its declared type; nothing is truncated
    monkeypatch.setattr(cli, "run_all",
                        lambda quick, jobs: pytest.fail("checks ran"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"l": 1, "x": -2.0, "y": -1.2, key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith(f"invalid parameter: {key}: ")
    assert repr(value) in err


def test_non_finite_inputs_are_invalid(tmp_path, capsys, monkeypatch):
    # NaN and infinities are rejected, naming the setting, before any cell,
    # scan row or analytic row is computed; x = -inf is zero hopping and
    # stays valid, and an analytic x past 10**x's float range, or one whose
    # strong-coupling edge overflows, is rejected like an infinite one; so
    # is a config file that is not UTF-8, under its own path
    undecodable = tmp_path / "latin.json"
    undecodable.write_bytes(b"\xff\xfe")
    monkeypatch.setattr(sweep, "classify_point",
                        lambda *a, **k: pytest.fail("a cell was classified"))
    monkeypatch.setattr(sweep, "minimize_over_psi",
                        lambda *a, **k: pytest.fail("a scan row was computed"))
    monkeypatch.setattr(cli, "solve_sector_zero",
                        lambda *a, **k: pytest.fail("an analytic row was computed"))
    for argv, message in [
        (["point", "--l", "1", "--x", "nan", "--y", "-1"], "x: "),
        (["point", "--l", "1", "--x=inf", "--y", "-1"], "x: "),
        (["point", "--l", "1", "--x=1", "--y=-inf"], "y: "),
        (["point", "--l", "1", "--x", "-1", "--y", "-1", "--mu", "nan"],
         "omega must be finite"),
        (["diagram", "--l", "1", "--x-range=-inf:-1:3", "--y-range=-1:-0.5:2"],
         "grid ranges must be finite"),
        (["scan", "--l", "1", "--y=-1.2", "--x-range=-3:inf:3"],
         "x-range: bounds must be finite"),
        (["scan", "--l", "1", "--y=-1.2", "--x-range=-inf:-1:3"],
         "x-range: bounds must be finite"),
        (["analytic", "--l", "1", "--x-range=-inf:-1:3"],
         "x-range: bounds must be finite"),
        (["analytic", "--l", "1", "--x-range=-3:inf:3"],
         "x-range: bounds must be finite"),
        (["analytic", "--l", "1", "--x-range=-3:400:3"],
         "x-range: kappa = 10**x must be finite"),
        (["analytic", "--l", "1", "--x-range=-3:308:3"],
         "x-range: the strong-coupling edge must be finite"),
        (["point", "--l", "1", "--x=-1", "--y=-1", "--config", str(undecodable)],
         f"config: {undecodable} is not valid JSON: 'utf-8' codec can't decode"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"invalid parameter: {message}")
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "point", "--l", "1", "--x=-inf", "--y", "-1")
    assert code == 0
    assert "phase = MI:1\n" in out


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_boundary_tol_must_be_positive(tmp_path, capsys, monkeypatch, value):
    # rejected under its own key, from the flag and the config file alike,
    # before either bracket end is classified
    monkeypatch.setattr(sweep, "classify_point",
                        lambda *a, **k: pytest.fail("a cell was classified"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"boundary_tol": float(value)}))
    argv = ["boundary", "--l", "1", "--axis", "x", "--fixed=-1.2",
            "--bracket=-1.2:-0.4"]
    for source in ([f"--boundary-tol={value}"], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, *argv, *source)
        assert code == 1 and out == ""
        assert err == (f"invalid parameter: boundary_tol: must be positive "
                       f"and finite, got {float(value)}\n")


def test_boundary_rejects_an_infinite_bracket_end(capsys):
    # the midpoint of -inf and -0.4 is -inf, so the bisection would stop at
    # once and report boundary = -inf; the most negative finite end finds
    # the edge
    argv = ["boundary", "--l", "1", "--axis", "x", "--fixed=-1.2"]
    code, out, err = run_cli(capsys, *argv, "--bracket=-inf:-0.4")
    assert code == 1 and out == ""
    assert err == ("invalid parameter: bracket: ends and tol must be finite, "
                   "got [-inf, -0.4] and tol 0.001\n")
    code, out, _ = run_cli(capsys, *argv, "--bracket=-1e308:-0.4")
    assert code == 0
    edge = float(next(ln for ln in out.splitlines()
                      if ln.startswith("boundary")).split("=")[1])
    assert edge == pytest.approx(-0.7365, abs=1e-3)


def test_config_between_must_hold_two_strings(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for between in ([1, 2], ["MI:0"], 5):
        cfg.write_text(json.dumps({"between": between}))
        code, _, err = run_cli(capsys, "boundary", "--l", "1", "--axis", "x",
                               "--fixed=-1.2", "--bracket=-1.5:-0.3",
                               "--config", str(cfg))
        assert code == 1
        assert err == (f"invalid parameter: between: expected two phase "
                       f"tokens, got {between!r}\n")


def test_range_sample_count_is_never_truncated(tmp_path, capsys):
    # the same count is rejected from a config list and from the flag
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"x_range": [-2, -0.3, 2.7]}))
    for source in (["--config", str(cfg)], ["--x-range=-2:-0.3:2.7"]):
        code, out, err = run_cli(capsys, "scan", "--l", "1", "--y", "-1.2",
                                 *source)
        assert code == 1 and out == ""
        assert err.startswith("invalid parameter: x-range: ")
        assert "2.7" in err


def test_diagram_json_spec_echo(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("JCHM_JOBS", raising=False)
    out_file = tmp_path / "grid.json"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mu": 0.9, "jobs": 2}))

    def spec(*extra):
        code, _, _ = run_cli(capsys, "diagram", "--l", "2", "--format", "json",
                             "--x-range=-4:-3.5:2", "--y-range=-1.8:-1.6:2",
                             "--out", str(out_file), *extra)
        assert code == 0
        return json.loads(out_file.read_text())["spec"]

    assert spec() == {
        "command": "diagram", "delta": 0.0, "format": "json", "jobs": 1,
        "l": 2, "mu": 1.0, "n_max": 40,
        "x_range": [-4.0, -3.5, 2], "y_range": [-1.8, -1.6, 2], "z": 2,
    }
    # config beats the default (mu) and JCHM_JOBS (jobs)
    monkeypatch.setenv("JCHM_JOBS", "3")
    echo = spec("--config", str(cfg))
    assert (echo["mu"], echo["jobs"]) == (0.9, 2)
    # a flag beats the config
    echo = spec("--config", str(cfg), "--mu", "0.8", "--jobs", "1")
    assert (echo["mu"], echo["jobs"]) == (0.8, 1)


def test_jobs_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JCHM_JOBS", "2")
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "diagram", "--l", "1",
                         "--x-range=-4:-3.5:2", "--y-range=-1.8:-1.6:2",
                         "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 5


def test_jobs_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("JCHM_JOBS", "abc")
    code, _, err = run_cli(capsys, "diagram", "--l", "1",
                           "--x-range=-4:-3.5:2", "--y-range=-1.8:-1.6:2")
    assert code == 1
    assert "JCHM_JOBS" in err


def test_jobs_flag_beats_env(capsys, monkeypatch):
    # the flag wins, so the bad environment value is never parsed
    monkeypatch.setenv("JCHM_JOBS", "abc")
    code, _, _ = run_cli(capsys, "diagram", "--l", "1", "--jobs", "1",
                         "--x-range=-4:-3.5:2", "--y-range=-1.8:-1.6:2")
    assert code == 0


def _fake_results(all_pass):
    return [
        CheckResult(name="alpha", passed=True, measured=1.0, expected=1.0,
                    tolerance=0.1, seconds=0.01),
        CheckResult(name="beta", passed=all_pass, measured=2.0, expected=3.0,
                    tolerance=0.1, seconds=0.02, detail="off by one"),
    ]


def test_validate_reports_pass(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_all",
                        lambda quick, jobs: _fake_results(True))
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--quick", "--out", str(report))
    assert code == 0
    assert "[PASS] alpha" in out
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert [c["name"] for c in data["checks"]] == ["alpha", "beta"]


def test_validate_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all",
                        lambda quick, jobs: _fake_results(False))
    code, out, err = run_cli(capsys, "validate")
    assert code == 1
    assert "[FAIL] beta" in out
    assert "off by one" in out
    assert "failed: beta" in err


@pytest.mark.parametrize("argv", [
    ["diagram", "--l", "4", "--x-range=-4:-3:2", "--y-range=-1:0:2"],
    ["boundary", "--l", "1", "--axis", "x", "--fixed=-1.2",
     "--bracket=-1.2:-0.4", "--boundary-tol", "0.1"],
    ["scan", "--l", "1", "--y=-1.2", "--x-range=-3:-2:2"],
    ["analytic", "--l", "2"],
    ["validate", "--quick"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, monkeypatch, argv,
                                         where):
    # an --out that cannot be opened, a directory or a path under a missing
    # one, ends in an "invalid parameter:" line and exit 1, as an
    # unreadable config file does, not in a traceback
    monkeypatch.setattr(cli, "run_all",
                        lambda quick, jobs: _fake_results(True))
    out = tmp_path if where == "directory" else tmp_path / "missing" / "f"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith(f"invalid parameter: out: cannot write {out}: ")


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "jchm", "analytic", "--l", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "unbounded" in proc.stdout


@pytest.mark.skipif(shutil.which("jchm") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["jchm", "analytic", "--l", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "unbounded" in proc.stdout


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no flag, config value or
    # setting of one call reaches the next
    trees, models = [], []
    init, run_grid = cli._Parser.__init__, cli.run_grid

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "jchm":
            trees.append(self)
        init(self, *args, **kwargs)

    def recorded(spec, *args, **kwargs):
        models.append(spec.z)
        return run_grid(spec, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    monkeypatch.setattr(cli, "run_grid", recorded)
    cli._parser.cache_clear()
    first = ["diagram", "--l", "4", "--x-range=-4:-3:2", "--y-range=-1:0:2"]
    cfg = tmp_path / "z3.json"
    cfg.write_text(json.dumps({"z": 3}))
    a, b, spec = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.json"
    assert run_cli(capsys, *first, "--out", str(a))[0] == 0
    assert run_cli(capsys, *first, "--format", "json", "--config", str(cfg),
                   "--out", str(spec))[0] == 0
    assert run_cli(capsys, "point", "--l", "1", "--x=-2", "--y=-1")[0] == 0
    assert run_cli(capsys, *first, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(spec.read_text())["spec"]["z"] == 3
    assert models == [2, 3, 2]
    assert len(trees) == 1
    with pytest.raises(SystemExit) as exc:
        main(["point", "--l", "1", "--x=-3", "--y=-1", "--format", "json"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: jchm ") and "unrecognized arguments" in err
    assert len(trees) == 1
