"""End-to-end checks that re-derive the reference results.

Each check re-derives one reference number (a lobe threshold, a boundary
position, a census of the default diagrams, an invariant bundle) and compares
it to its reference within a stated tolerance.  The `validate` CLI command
and the acceptance test-suite both run these, so a regression shows up the
same way in either place.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    Branch,
    SectorSpec,
    Side,
    resonant_sector_energy,
    sector_energy,
    solve_sector_crossing,
    solve_sector_zero,
    strong_coupling_boundary,
)
from .groundstate import energy_at_psi
from .operators import ModelParams, bandwidth, build_l_diag, build_mean_field
from .sweep import GridSpec, classify_at, refine_boundary, run_grid

_RNG_SEED = 20240817


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: object
    expected: object
    tolerance: object
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"[{status}] {self.name}: measured={self.measured} "
               f"expected={self.expected} tol={self.tolerance} "
               f"({self.seconds:.1f}s)")
        if self.detail:
            out += f" -- {self.detail}"
        return out


def _run(name: str, fn: Callable[[], CheckResult]) -> CheckResult:
    """Time a check and convert any escape into a failed result."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as err:  # a crashed check is a failed check
        return CheckResult(name=name, passed=False, measured="error",
                           expected="-", tolerance="-",
                           seconds=time.perf_counter() - start,
                           detail=f"{type(err).__name__}: {err}")
    result.seconds = time.perf_counter() - start
    return result


def check_sector_zero() -> CheckResult:
    """Two-photon MI(2) lobe threshold against the vacuum at zero hopping."""
    def body() -> CheckResult:
        root = solve_sector_zero(2, 2)
        expected = (3.0 + math.sqrt(5.0)) / 2.0
        y = 2.0 - root
        ok = abs(root - expected) < 1e-8 and abs(y - (-0.6180)) < 1e-4
        return CheckResult(
            name="sector-zero-l2", passed=ok,
            measured=f"omega={root:.10f}, y={y:.6f}",
            expected=f"omega={expected:.10f}, y=-0.6180",
            tolerance="1e-8 (omega), 1e-4 (y)", seconds=0.0,
        )
    return _run("sector-zero-l2", body)


def check_sector_crossing() -> CheckResult:
    """Two-photon L=2 / L=3 level crossing at zero hopping."""
    def body() -> CheckResult:
        root = solve_sector_crossing(2, 2, 3)
        y = 2.0 - root
        ok = abs(y - 0.0785) < 1e-3
        return CheckResult(
            name="sector-crossing-l2", passed=ok,
            measured=f"omega={root:.10f}, y={y:.6f}", expected="y=0.0785",
            tolerance="1e-3 (y)", seconds=0.0,
        )
    return _run("sector-crossing-l2", body)


def check_lobe_threshold() -> CheckResult:
    """Classified MI(0)/MI(2) boundary at l=2, x=-4 against the closed form."""
    def body() -> CheckResult:
        y = refine_boundary(
            lambda t: classify_at(2, -4.0, t),
            -1.0, -0.3, pair=("MI:0", "MI:2"), tol=1e-4,
        )
        ok = abs(y - (-0.6180)) < 2e-3
        return CheckResult(
            name="lobe-threshold-l2", passed=ok, measured=f"y={y:.6f}",
            expected="y=-0.6180", tolerance="2e-3", seconds=0.0,
        )
    return _run("lobe-threshold-l2", body)


def check_forbidden_frontier() -> CheckResult:
    """Onset of the forbidden region above the l=2 Mott lobes at x=-4."""
    def body() -> CheckResult:
        # cached, so refine_boundary does not classify the bracket ends again
        @functools.cache
        def evaluate(t: float):
            return classify_at(2, -4.0, t)
        lo = evaluate(-0.1)
        hi = evaluate(0.1)
        if hi.token != "FORBIDDEN":
            raise RuntimeError(f"expected FORBIDDEN at y=0.1, got {hi.token}")
        if lo.token == "FORBIDDEN":
            raise RuntimeError("already FORBIDDEN at y=-0.1")
        y = refine_boundary(evaluate, -0.1, 0.1, tol=2e-4)
        ok = abs(y - 0.00116) < 5e-3
        return CheckResult(
            name="forbidden-frontier-l2", passed=ok, measured=f"y={y:.6f}",
            expected="y=0.00116", tolerance="5e-3 (truncation-limited)",
            seconds=0.0,
        )
    return _run("forbidden-frontier-l2", body)


def check_sf_boundaries() -> CheckResult:
    """Single-photon insulator-superfluid boundary at two reference cuts."""
    def body() -> CheckResult:
        x1 = refine_boundary(
            lambda t: classify_at(1, t, -1.2),
            -1.2, -0.4, pair=("MI:0", "SF"), tol=1e-3,
        )
        x2 = refine_boundary(
            lambda t: classify_at(1, t, -0.7),
            -1.6, -0.8, pair=("MI:1", "SF"), tol=1e-3,
        )
        ok = abs(x1 - (-0.737)) < 0.02 and abs(x2 - (-1.14)) < 0.02
        return CheckResult(
            name="sf-boundary-l1", passed=ok,
            measured=f"x(y=-1.2)={x1:.4f}, x(y=-0.7)={x2:.4f}",
            expected="x=-0.737, x=-1.14", tolerance="0.02 each", seconds=0.0,
        )
    return _run("sf-boundary-l1", body)


def check_strong_coupling_match() -> CheckResult:
    """Mean-field MI(0) upper edge against the small-kappa closed form."""
    def body() -> CheckResult:
        diffs = []
        for x in (-2.0, -2.5, -3.0):
            y_mf = refine_boundary(
                lambda t: classify_at(1, x, t),
                -1.3, -0.9, tol=1e-3,
            )
            y_sc = strong_coupling_boundary(0, Side.UPPER, 10.0 ** x)
            diffs.append(abs(y_mf - y_sc))
        worst = max(diffs)
        return CheckResult(
            name="strong-coupling-match-l1", passed=worst < 0.05,
            measured=f"max |y_mf - y_sc| = {worst:.2e}", expected="agreement",
            tolerance="0.05", seconds=0.0,
        )
    return _run("strong-coupling-match-l1", body)


def check_phase_census(jobs: int = 1) -> CheckResult:
    """Default 41x51 diagrams: which Mott lobes exist per photon order."""
    def body() -> CheckResult:
        failures = []
        summary = []
        for l in (1, 2, 3, 4):
            grid = run_grid(GridSpec.default(l, nx=41, ny=51), jobs=jobs)
            levels = grid.mi_levels()
            counts = grid.token_counts()
            bad = counts.get("INDET", 0) + counts.get("INVALID", 0)
            summary.append(f"l={l}: MI levels {sorted(levels)}, "
                           f"{bad} unclassified")
            if l == 1 and not {0, 1, 2} <= levels:
                failures.append(f"l=1 lobes {sorted(levels)} missing some of 0,1,2")
            if l == 2 and levels != {0, 2}:
                failures.append(f"l=2 lobes {sorted(levels)} != [0, 2]")
            if l >= 3 and levels:
                failures.append(f"l={l} unexpectedly has MI cells {sorted(levels)}")
            if bad:
                failures.append(f"l={l} has {bad} unclassified cells")
        return CheckResult(
            name="phase-census", passed=not failures,
            measured="; ".join(summary),
            expected="l=1 lobes >= {0,1,2}; l=2 lobes == {0,2}; none for l >= 3",
            tolerance="-", seconds=0.0, detail="; ".join(failures),
        )
    return _run("phase-census", body)


def _invariant_suite() -> CheckResult:
    rng = np.random.default_rng(_RNG_SEED)
    failures: list[str] = []

    def random_params(l: int | None = None) -> ModelParams:
        l_use = int(rng.integers(1, 5)) if l is None else l
        return ModelParams(
            l=l_use,
            omega=float(rng.uniform(0.3, 4.0)),
            Omega=float(rng.uniform(0.3, 4.0)),
            mu=float(rng.uniform(0.0, 1.5)),
            kappa=float(10.0 ** rng.uniform(-4.0, 0.0)),
            z=int(rng.integers(1, 7)),
        )

    # band layout: (bandwidth + 1, dim) in Fortran order, nothing stored past
    # the end of a subdiagonal
    for _ in range(25):
        params = random_params()
        n_max = int(rng.integers(params.l + 2, 30))
        psi = float(rng.uniform(-2.0, 2.0))
        band = build_mean_field(params, psi, n_max).band
        dim = 2 * (n_max + 1)
        if (band.shape != (bandwidth(params.l) + 1, dim)
                or not band.flags.f_contiguous
                or any(np.any(band[k, dim - k:]) for k in range(1, len(band)))):
            failures.append(f"band layout broken for {params}")

    # L is conserved at psi = 0
    for _ in range(25):
        params = random_params()
        n_max = int(rng.integers(params.l + 2, 30))
        h = build_mean_field(params, 0.0, n_max).dense()
        d = np.diag(build_l_diag(params.l, n_max))
        comm = np.abs(h @ d - d @ h).max()
        if comm > 1e-12:
            failures.append(f"[H, L] = {comm:g} at psi=0 for {params}")

    # the spectrum is even in psi
    for _ in range(100):
        params = random_params()
        n_max = int(rng.integers(params.l + 2, 25))
        psi = float(rng.uniform(0.0, 2.0))
        diff = abs(energy_at_psi(params, psi, n_max)
                   - energy_at_psi(params, -psi, n_max))
        if diff > 1e-9:
            failures.append(f"E(psi) - E(-psi) = {diff:g} for {params}")

    # enlarging the truncation cannot raise the ground energy
    for _ in range(50):
        params = random_params()
        n_small = int(rng.integers(params.l + 2, 20))
        psi = float(rng.uniform(0.0, 1.5))
        e_small = energy_at_psi(params, psi, n_small)
        e_large = energy_at_psi(params, psi, n_small + 6)
        if e_large > e_small + 1e-9:
            failures.append(f"energy rose with n_max for {params}: "
                            f"{e_small:.12g} -> {e_large:.12g}")

    # 2x2 sector eigenvalues against the full matrix and the printed form
    for l in (1, 2, 3, 4):
        for L in range(l, 31):
            for omega in (0.5, 1.0, 2.0, 3.0):
                spec = SectorSpec(l=l, L=L, omega=omega, Omega=omega, mu=1.0)
                e_minus = sector_energy(spec, Branch.MINUS)
                form = resonant_sector_energy(l, L, omega, Branch.MINUS)
                if abs(e_minus - form) > 1e-12:
                    failures.append(
                        f"sector form mismatch {abs(e_minus - form):g} "
                        f"at l={l}, L={L}, omega={omega}")
                params = ModelParams.resonant(l, omega)
                h = build_mean_field(params, 0.0, L).dense()
                i = [2 * (L - l) + 1, 2 * L]  # |e, L-l> and |g, L>
                block = h[np.ix_(i, i)]
                e_block = float(np.linalg.eigvalsh(block)[0])
                if abs(e_minus - e_block) > 1e-10:
                    failures.append(
                        f"sector vs matrix mismatch {abs(e_minus - e_block):g} "
                        f"at l={l}, L={L}, omega={omega}")

    # large-L behaviour per photon order: bounded per-excitation energy with
    # slope omega - 2 at l=2; root-law runaway above that (quadrupling L
    # scales E/L by ~l/2 powers of 2)
    for omega in (0.5, 1.0, 2.0, 3.0):
        slope2 = resonant_sector_energy(2, 400, omega, Branch.MINUS) / 400.0
        if abs(slope2 - (omega - 2.0)) > 0.05:
            failures.append(f"l=2 large-L slope {slope2:g} at omega={omega}")
        # E / L^1.5 -> -1 for l=3, but the correction decays like
        # (omega - 1)/sqrt(L): push L out until it fits inside the tolerance
        L3 = 400 if omega <= 1.0 else 2500
        norm3 = resonant_sector_energy(3, L3, omega, Branch.MINUS) / L3 ** 1.5
        if abs(norm3 + 1.0) > 0.05:
            failures.append(f"l=3 normalised energy {norm3:g} at omega={omega}, L={L3}")
        for l, growth, tol in ((3, 2.0, 0.3), (4, 4.0, 0.6)):
            per_small = resonant_sector_energy(l, 100, omega, Branch.MINUS) / 100.0
            per_large = resonant_sector_energy(l, 400, omega, Branch.MINUS) / 400.0
            if not per_large < per_small - 5.0:
                failures.append(
                    f"l={l} per-excitation energy not runaway at omega={omega}: "
                    f"{per_small:g} -> {per_large:g}")
            elif abs(per_large / per_small - growth) > tol:
                failures.append(
                    f"l={l} per-excitation growth {per_large / per_small:g} "
                    f"!= {growth:g} at omega={omega}")

    return CheckResult(
        name="invariant-suite", passed=not failures,
        measured=f"{len(failures)} violations", expected="0 violations",
        tolerance="per invariant", seconds=0.0,
        detail="; ".join(failures[:5]),
    )


def check_invariants() -> CheckResult:
    return _run("invariant-suite", _invariant_suite)


def run_all(quick: bool = False, jobs: int = 1) -> list[CheckResult]:
    """All checks in a stable order, each at the default truncation
    default_n_max(l); quick skips the long diagram census, and jobs is its
    worker-process count."""
    results = [
        check_sector_zero(),
        check_sector_crossing(),
        check_invariants(),
        check_lobe_threshold(),
        check_forbidden_frontier(),
        check_sf_boundaries(),
        check_strong_coupling_match(),
    ]
    if not quick:
        results.append(check_phase_census(jobs))
    return results
