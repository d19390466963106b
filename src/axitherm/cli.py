"""Command-line interface: scenario runs, verification, mesh and
post-processing utilities.

Subcommands: solve, verify, fit-materials, isoline, mesh. A JSON config
file can preload any option; command-line flags win over file values.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import io as axio
from .fem_core import SolveReport
from .hearth import (COARSE_H, COARSE_START_H, build_hearth_materials,
                     hearth_mechanical_bc, hearth_mesh, hearth_thermal_bc)
from .isoline import extract_isoline, isoline_csv
from .mechanical import recover_stress, solve_mechanical
from .mesh import Mesh, interpolate, load_mesh, save_mesh
from .thermal import newton_solve


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON values a config file may give a RunConfig field, by its type.
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "float": ("a number", _is_number),
    "list": ("a list of numbers",
             lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


@dataclass
class RunConfig:
    mesh_file: str | None = None
    target_h: float = 0.1
    output_dir: str = "out"
    isoline_levels: list = field(default_factory=list)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            what, valid = _JSON_TYPES[cls.__dataclass_fields__[key].type]
            if not valid(value):
                raise ValueError(f"{key} must be {what}, not {value!r}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _load_scenario_mesh(config: RunConfig):
    """The hearth mesh of size ``target_h``, or the mesh file, which
    leaves ``target_h`` at its default."""
    if config.mesh_file is None:
        return hearth_mesh(config.target_h)
    if config.target_h != RunConfig.target_h:
        raise ValueError(f"target_h {config.target_h!r} does not apply to mesh "
                         f"file {config.mesh_file}: leave it at its default "
                         f"{RunConfig.target_h!r}")
    return load_mesh(config.mesh_file)


def _extract_isolines(mesh, T, levels) -> dict:
    """The isoline of every level, by the name of its file; two levels
    whose files would have the same name are rejected."""
    isolines = {}
    for level in levels:
        name = f"isoline_{level:g}K.csv"
        if name in isolines:
            raise ValueError(f"isoline levels {isolines[name].level!r} and "
                             f"{level!r} would both be written to {name}")
        isolines[name] = extract_isoline(mesh, T, level)
    return isolines


def _write_isolines(isolines, out):
    for name, iso in isolines.items():
        axio.atomic_write_text(os.path.join(out, name), isoline_csv(iso))


@dataclass(frozen=True)
class ScenarioRun:
    """What a scenario run computed, all that ``write_artifacts`` writes
    and ``run_scenario`` summarizes; ``isolines`` is by file name. The
    run holds its own copy of the config it was solved with, and T, u
    and stress are read-only."""

    config: RunConfig
    mesh: Mesh
    T: np.ndarray
    u: np.ndarray
    stress: np.ndarray
    isolines: dict
    thermal_report: SolveReport
    mechanical_report: SolveReport


def solve_scenario(config: RunConfig) -> ScenarioRun:
    """Mesh, thermal Newton solve, mechanical solve, stress recovery and
    isolines; writes nothing. A hearth finer than COARSE_START_H starts
    Newton from the COARSE_H solution, interpolated; the thermal report
    nests that solve's."""
    config = copy.deepcopy(config)
    mesh = _load_scenario_mesh(config)
    materials = build_hearth_materials()
    bc = hearth_thermal_bc()
    start = coarse_report = None
    if config.mesh_file is None and config.target_h < COARSE_START_H:
        coarse = hearth_mesh(COARSE_H)
        T, coarse_report = newton_solve(coarse, materials, bc)
        start = interpolate(coarse, T, mesh.nodes)
    T, thermal_report = newton_solve(mesh, materials, bc, start=start)
    thermal_report.coarse_start = coarse_report
    u, mech_report = solve_mechanical(mesh, materials, hearth_mechanical_bc(), T)
    stress = recover_stress(mesh, materials, T, u)
    isolines = _extract_isolines(mesh, T, config.isoline_levels)
    for a in (T, u, stress):
        a.setflags(write=False)
    return ScenarioRun(config, mesh, T, u, stress, isolines, thermal_report,
                       mech_report)


def write_artifacts(run: ScenarioRun) -> None:
    """Write the files of ``run`` to its config's output dir."""
    out = run.config.output_dir
    os.makedirs(out, exist_ok=True)
    save_mesh(run.mesh, os.path.join(out, "mesh.txt"))
    axio.export_report(run.thermal_report,
                       os.path.join(out, "thermal_report.json"))
    axio.export_report(run.mechanical_report,
                       os.path.join(out, "mechanical_report.json"))
    axio.export_vtk(run.mesh, os.path.join(out, "solution.vtk"),
                    temperature=run.T, displacement=run.u, stress=run.stress)
    axio.export_csv(run.mesh, os.path.join(out, "fields.csv"), run.T, run.u)
    _write_isolines(run.isolines, out)
    axio.atomic_write_text(os.path.join(out, "config.json"),
                           run.config.to_json())


def run_scenario(config: RunConfig) -> dict:
    """Solve, then write: every result is computed before the first
    artifact is written, so a run that raises leaves the output dir as
    it was. Returns a summary."""
    run = solve_scenario(config)
    write_artifacts(run)
    n, report = run.mesh.num_nodes, run.thermal_report
    return {
        "nodes": n,
        "temperature_dofs": n,
        "displacement_dofs": 2 * n,
        "newton_iterations": report.iterations,
        "final_residual": report.residuals[-1],
        "T_range": (float(run.T.min()), float(run.T.max())),
        "max_displacement": float(np.linalg.norm(run.u, axis=1).max()),
    }


def _config_from_args(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    for key in RunConfig.__dataclass_fields__:
        if getattr(args, key, None) is not None:
            setattr(config, key, getattr(args, key))
    return config


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    summary = run_scenario(config)
    for k, v in summary.items():
        print(f"{k}: {v}")
    return 0


def _cmd_verify(args) -> int:
    # verification imports sympy, which no other subcommand needs
    from . import verification as ver
    ok = True
    if args.suite in ("all", "materials"):
        checks = ver.material_fit_checks()
        bad = [f"{c.prop}{c.subdomain}" for c in checks if not c.ok]
        print(f"material fits: {len(checks) - len(bad)}/{len(checks)} reproduce "
              "their samples and are positive"
              + (f" (FAIL: {', '.join(bad)})" if bad else " (ok)"))
        ok &= not bad
        # the printed table is not the fit of the tabulated samples (see
        # verification.py); its agreement is reported, not checked
        report = ver.spline_coefficient_report()
        agree = sum(c.ok for c in report)
        print(f"printed spline coefficients: {agree}/{len(report)} agree "
              "(information only)")
    if args.suite in ("all", "annulus"):
        rec, rel = ver.annulus_study()
        order = rec.observed_order()
        passed = rel[-1] < 1e-3 and order >= 1.9
        print(f"annulus: rel L2 {rel[-1]:.2e}, order {order:.2f} "
              f"({'ok' if passed else 'FAIL'})")
        ok &= passed
    if args.suite in ("all", "mms"):
        import sympy as sp
        r, y, T = sp.symbols("r y T", positive=True)
        tcase = ver.ThermalManufacturedCase(
            exact_expr=300 + 50 * r**2 + 20 * y,
            conductivity_expr=1 + 1e-3 * T)
        rec = ver.mms_thermal_study(tcase, [1 / 8, 1 / 16, 1 / 32])
        t_order = rec.observed_order()
        mcase = ver.MechanicalManufacturedCase(
            ur_expr=1e-4 * r * y, uy_expr=1e-4 * r**2,
            delta_T_expr=100 * r)
        rec2 = ver.mms_mechanical_study(mcase, [1 / 8, 1 / 16, 1 / 32])
        m_order = rec2.observed_order()
        passed = t_order >= 1.9 and m_order >= 1.9
        print(f"mms: thermal order {t_order:.2f}, mechanical order "
              f"{m_order:.2f} ({'ok' if passed else 'FAIL'})")
        ok &= passed
    return 0 if ok else 1


def _cmd_fit_materials(args) -> int:
    from . import verification as ver
    report = ver.spline_coefficient_report()
    print(ver.format_coefficient_report(report), end="")
    return 0 if all(c.ok for c in report) else 1


def _cmd_isoline(args) -> int:
    mesh = load_mesh(args.mesh_file)
    # node_id and T columns of fields.csv
    table = np.loadtxt(args.csv, delimiter=",", skiprows=1, usecols=(0, 3),
                       ndmin=2)
    n = mesh.num_nodes
    if not np.array_equal(table[:, 0], np.arange(n)):
        raise ValueError(
            f"{args.csv} does not belong to {args.mesh_file}: its node_id "
            f"column must be 0..{n - 1}, and it has {len(table)} rows "
            f"for {n} nodes")
    isolines = _extract_isolines(mesh, table[:, 1], args.isoline)
    os.makedirs(args.out, exist_ok=True)
    _write_isolines(isolines, args.out)
    for name, iso in isolines.items():
        print(f"{os.path.join(args.out, name)}: {len(iso.polylines)} polylines")
    return 0


def _cmd_mesh(args) -> int:
    config = _config_from_args(args)
    mesh = _load_scenario_mesh(config)
    os.makedirs(config.output_dir, exist_ok=True)
    save_mesh(mesh, os.path.join(config.output_dir, "mesh.txt"))
    print(f"nodes: {mesh.num_nodes}")
    print(f"triangles: {len(mesh.triangles)}")
    print(f"h: {mesh.h:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axitherm",
        description="Axisymmetric thermomechanical finite element solver")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets a RunConfig field has the field's name as its
    # dest, which _config_from_args relies on
    def common(p):
        p.add_argument("--mesh-file")
        p.add_argument("--h", dest="target_h", metavar="H", type=float)
        p.add_argument("--out", dest="output_dir", metavar="OUT")
        p.add_argument("--config")

    p_solve = sub.add_parser("solve", help="run a full scenario")
    common(p_solve)
    p_solve.add_argument("--isoline", dest="isoline_levels", metavar="ISOLINE",
                         type=float, action="append")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run verification oracles")
    p_verify.add_argument("--suite", default="all",
                          choices=["all", "materials", "annulus", "mms"])
    p_verify.set_defaults(func=_cmd_verify)

    p_fit = sub.add_parser("fit-materials",
                           help="print fitted spline coefficients")
    p_fit.set_defaults(func=_cmd_fit_materials)

    p_iso = sub.add_parser("isoline", help="extract isolines from a run")
    p_iso.add_argument("--mesh-file", dest="mesh_file", required=True)
    p_iso.add_argument("--csv", required=True,
                       help="fields.csv from a previous run")
    p_iso.add_argument("--isoline", type=float, action="append", required=True)
    p_iso.add_argument("--out", default=".")
    p_iso.set_defaults(func=_cmd_isoline)

    p_mesh = sub.add_parser("mesh", help="generate and export a mesh")
    common(p_mesh)
    p_mesh.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or a bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures and the like
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
