"""The benchmark's workloads: one seeded case per workload, the work the
case does through axitherm's public API, and the checks its outputs must
pass every time it runs.

A case is one unit of user work; a run repeats it, so that every repeat
does the same work and its counts repeat exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import sympy as sp

from axitherm import cli
from axitherm import verification as ver
from tracing import patched

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Bounds the repository's own acceptance tests and `axitherm verify` use.
NEWTON_TOL = 1e-4
T_LOW, T_HIGH, T_SLACK = 300.0, 1773.0, 1e-6
ORDER_MIN = 1.9
ANNULUS_REL_MAX = 1e-3
# T_range and max_displacement against reference.json, and reread
# isoline points against the in-run ones.
REFERENCE_RTOL = 1e-8
ISOLINE_TOL = 1e-9

FINE_H = 0.05
FINE_LEVELS = (1423.0,)
# One hearth_sweep case runs the scenario at each of these mesh sizes, in
# a seeded order, so that every seed does the same mix of sizes.
SWEEP_H = (0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2)
# Four isoline levels per case, one drawn from each quarter of this range,
# so that every seed asks for a similar total contour length.
SWEEP_LEVELS = (600.0, 1700.0)
MMS_LEVELS = (1 / 32, 1 / 64, 1 / 128)
DETERMINISTIC_FILES = ("mesh.txt", "solution.vtk", "fields.csv", "config.json")


@dataclass(frozen=True)
class HearthCase:
    h: float
    levels: tuple
    reread: bool


@dataclass(frozen=True)
class SweepCase:
    runs: tuple  # HearthCase per mesh size, in seeded order


@dataclass
class MmsCase:
    thermal: ver.ThermalManufacturedCase
    mechanical: ver.MechanicalManufacturedCase
    unknowns: int = 0  # counted by the warm-up run


@dataclass
class Outcome:
    digest: dict = field(default_factory=dict)
    unknowns: int = 0
    failures: list = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _coordinate(text: str) -> float:
    # isoline_csv writes repr() of numpy scalars, which numpy 2 renders
    # as "np.float64(x)"; accept that form as well as a plain number.
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def _read_isoline(path: Path) -> list:
    polylines = {}
    for line in path.read_text().splitlines()[1:]:
        pid, r, y = line.split(",")
        polylines.setdefault(int(pid), []).append(
            (_coordinate(r), _coordinate(y)))
    return [polylines[k] for k in sorted(polylines)]


def _isoline_mismatch(a: list, b: list) -> str | None:
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} polylines"
    for pa, pb in zip(a, b):
        if len(pa) != len(pb):
            return f"polyline of {len(pa)} vs {len(pb)} points"
        for (ra, ya), (rb, yb) in zip(pa, pb):
            if abs(ra - rb) > ISOLINE_TOL or abs(ya - yb) > ISOLINE_TOL:
                return f"point ({ra!r}, {ya!r}) vs ({rb!r}, {yb!r})"
    return None


def _isoline_name(level: float) -> str:
    return f"isoline_{level:g}K.csv"


def run_hearth(case: HearthCase, out: Path):
    """One scenario run, and for sweep cases the CLI isoline reread of
    its own mesh.txt and fields.csv."""
    summary = cli.run_scenario(cli.RunConfig(
        target_h=case.h, output_dir=str(out),
        isoline_levels=list(case.levels)))
    status = None
    if case.reread:
        argv = ["isoline", "--mesh-file", str(out / "mesh.txt"),
                "--csv", str(out / "fields.csv"),
                "--out", str(out / "reread")]
        for level in case.levels:
            argv += ["--isoline", repr(level)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
    return summary, status


def check_hearth(case: HearthCase, raw, out: Path) -> Outcome:
    summary, status = raw
    failures = []
    report = json.loads((out / "thermal_report.json").read_text())
    if not report["converged"]:
        failures.append("Newton did not report convergence")
    if not summary["final_residual"] <= NEWTON_TOL:
        failures.append(f"final residual {summary['final_residual']:.3e}")
    lo, hi = summary["T_range"]
    if not (lo >= T_LOW - T_SLACK and hi <= T_HIGH + T_SLACK):
        failures.append(f"T outside [{T_LOW}, {T_HIGH}]: {lo}, {hi}")
    ref = json.loads(REFERENCE_FILE.read_text()).get(f"{case.h:g}")
    if ref is None:
        failures.append(f"no reference for h={case.h:g}")
    else:
        for name, value in (("T_min", lo), ("T_max", hi),
                            ("max_displacement", summary["max_displacement"])):
            if abs(value - ref[name]) > REFERENCE_RTOL * abs(ref[name]):
                failures.append(f"{name} {value!r} != reference {ref[name]!r}")
    if case.reread:
        if status != 0:
            failures.append(f"isoline reread exited with {status}")
        else:
            for level in case.levels:
                name = _isoline_name(level)
                bad = _isoline_mismatch(_read_isoline(out / name),
                                        _read_isoline(out / "reread" / name))
                if bad:
                    failures.append(f"reread isoline {level:g} K: {bad}")
    files = DETERMINISTIC_FILES + tuple(_isoline_name(v) for v in case.levels)
    digest = {name: _sha256(out / name) for name in files}
    digest["summary"] = repr(summary)
    unknowns = summary["temperature_dofs"] + summary["displacement_dofs"]
    return Outcome(digest, unknowns, failures)


def _sweep_dir(out: Path, run: HearthCase) -> Path:
    return out / f"h{run.h:g}"


def run_sweep(case: SweepCase, out: Path):
    return [run_hearth(run, _sweep_dir(out, run)) for run in case.runs]


def check_sweep(case: SweepCase, raw, out: Path) -> Outcome:
    outcome = Outcome()
    for run, run_raw in zip(case.runs, raw):
        part = check_hearth(run, run_raw, _sweep_dir(out, run))
        outcome.digest.update({f"h={run.h:g} {name}": value
                               for name, value in part.digest.items()})
        outcome.unknowns += part.unknowns
        outcome.failures += [f"h={run.h:g}: {f}" for f in part.failures]
    return outcome


def run_mms(case: MmsCase, out: Path):
    """The `axitherm verify --suite mms` studies one level finer, plus
    the annulus study."""
    thermal = ver.mms_thermal_study(case.thermal, MMS_LEVELS)
    mechanical = ver.mms_mechanical_study(case.mechanical, MMS_LEVELS)
    annulus, annulus_rel = ver.annulus_study()
    return thermal, mechanical, annulus, annulus_rel


def check_mms(case: MmsCase, raw, out: Path) -> Outcome:
    thermal, mechanical, annulus, annulus_rel = raw
    failures = []
    for name, rec in (("thermal", thermal), ("mechanical", mechanical),
                      ("annulus", annulus)):
        order = rec.observed_order()
        if not order >= ORDER_MIN:
            failures.append(f"{name} order {order:.3f} < {ORDER_MIN}")
    if not annulus_rel[-1] < ANNULUS_REL_MAX:
        failures.append(f"annulus relative L2 {annulus_rel[-1]:.3e}")
    digest = {"thermal": thermal.levels, "mechanical": mechanical.levels,
              "annulus": annulus.levels, "annulus_rel": list(annulus_rel)}
    return Outcome(digest, case.unknowns, failures)


def warm_up_mms(case: MmsCase, out: Path):
    """Run the case once, counting N per thermal solve and 2N per
    mechanical solve into ``case.unknowns``."""
    newton, mech = ver.newton_solve, ver.solve_mechanical
    total = 0

    def thermal(mesh, *args, **kwargs):
        nonlocal total
        total += mesh.num_nodes
        return newton(mesh, *args, **kwargs)

    def mechanical(mesh, *args, **kwargs):
        nonlocal total
        total += 2 * mesh.num_nodes
        return mech(mesh, *args, **kwargs)

    with patched({newton: thermal, mech: mechanical}):
        raw = run_mms(case, out)
    case.unknowns = total
    return raw


def _sig(x: float) -> float:
    return float(f"{x:.3g}")


def mms_case(seed: int) -> MmsCase:
    """Polynomial manufactured solutions of `axitherm verify --suite mms`
    with seeded coefficients; building them runs the sympy derivation."""
    rng = random.Random(seed)
    r, y, T = sp.symbols("r y T", positive=True)
    thermal = ver.ThermalManufacturedCase(
        exact_expr=300 + _sig(rng.uniform(30, 70)) * r**2
        + _sig(rng.uniform(10, 30)) * y,
        conductivity_expr=1 + _sig(rng.uniform(5e-4, 2e-3)) * T)
    mechanical = ver.MechanicalManufacturedCase(
        ur_expr=_sig(rng.uniform(5e-5, 2e-4)) * r * y,
        uy_expr=_sig(rng.uniform(5e-5, 2e-4)) * r**2,
        delta_T_expr=_sig(rng.uniform(50, 150)) * r)
    return MmsCase(thermal, mechanical)


def sweep_case(seed: int) -> SweepCase:
    rng = random.Random(seed)
    hs = list(SWEEP_H)
    rng.shuffle(hs)
    lo, hi = SWEEP_LEVELS
    quarter = (hi - lo) / 4
    return SweepCase(tuple(
        HearthCase(h, tuple(round(rng.uniform(lo + k * quarter,
                                              lo + (k + 1) * quarter), 1)
                            for k in range(4)), reread=True)
        for h in hs))


@dataclass
class Workload:
    case: object
    run: object      # (case, out) -> raw result; the timed work
    check: object    # (case, raw, out) -> Outcome
    warm_up: object  # (case, out) -> raw result, untimed
    spans: frozenset  # spans that must fire in a traced run


HEARTH_SPANS = frozenset({
    "mesh.generate_mesh", "mesh.tag_boundaries", "mesh.save_mesh",
    "thermal.newton_solve", "thermal.assemble_thermal_residual",
    "thermal.assemble_thermal_jacobian", "fem_core.solve_lu",
    "fem_core.assemble_csr", "fem_core.apply_constraints",
    "mechanical.assemble_mechanical_system", "mechanical.solve_mechanical",
    "mechanical.recover_stress", "io.export_vtk", "io.export_csv",
    "io.export_report", "isoline.extract_isoline", "cli.run_scenario",
})
REREAD_SPANS = frozenset({"mesh.load_mesh", "cli.main"})
MMS_SPANS = frozenset({
    "mesh.generate_mesh", "mesh.tag_boundaries", "thermal.newton_solve",
    "thermal.assemble_thermal_residual", "thermal.assemble_thermal_jacobian",
    "fem_core.solve_lu", "fem_core.assemble_csr",
    "fem_core.apply_constraints", "mechanical.assemble_mechanical_system",
    "mechanical.solve_mechanical", "verification.weighted_l2_error",
    "verification.study",
})


def build(name: str, seed: int) -> Workload:
    """The workload's case for ``seed``; the same seed gives the same
    case."""
    if name == "hearth_fine":
        return Workload(HearthCase(FINE_H, FINE_LEVELS, reread=True),
                        run_hearth, check_hearth, run_hearth,
                        HEARTH_SPANS | REREAD_SPANS)
    if name == "hearth_sweep":
        return Workload(sweep_case(seed), run_sweep, check_sweep,
                        run_sweep, HEARTH_SPANS | REREAD_SPANS)
    if name == "mms_refine":
        return Workload(mms_case(seed), run_mms, check_mms,
                        warm_up_mms, MMS_SPANS)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("hearth_fine", "hearth_sweep", "mms_refine")
