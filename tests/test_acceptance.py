"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced. Criterion 9 is informational and never fails the
suite on the node-count comparison.
"""
import time

import numpy as np
import pytest
import sympy as sp
from scipy.interpolate import PPoly, splrep

from axitherm.cli import RunConfig, run_scenario
from axitherm.fem_core import SingularSystemError, apply_constraints
from axitherm.io import vtk_text
from axitherm.hearth import (
    CONDUCTIVITY_SAMPLE_TEMPS,
    CONDUCTIVITY_SAMPLES,
    MODULUS_SAMPLE_TEMPS,
    MODULUS_SAMPLES,
    build_hearth_materials,
    hearth_conductivity,
    hearth_mesh,
    hearth_modulus,
    hearth_thermal_bc,
)
from axitherm.mechanical import (
    FRICTIONLESS_CONTACT,
    MechanicalBC,
    TRACTION_FREE,
    assemble_mechanical_system,
    recover_stress,
    solve_mechanical,
)
from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
)
from axitherm.materials import PiecewiseQuadratic, uniform_materials
from axitherm.thermal import (
    NewtonConfig,
    ThermalProblem,
    assemble_thermal_jacobian,
    assemble_thermal_residual,
    newton_solve,
)
from axitherm.verification import (
    MechanicalManufacturedCase,
    ThermalManufacturedCase,
    annulus_study,
    mms_mechanical_study,
    mms_thermal_study,
    spline_coefficient_report,
)

TARGET_NODES = 4428


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail})")


@pytest.fixture(scope="module")
def hearth_solution():
    mesh = hearth_mesh(0.1)
    materials = build_hearth_materials()
    start = time.perf_counter()
    T, report = newton_solve(mesh, materials, hearth_thermal_bc(),
                             NewtonConfig(abs_tol=1e-4))
    elapsed = time.perf_counter() - start
    return mesh, materials, T, report, elapsed


def _scipy_spline_pieces(temps, values):
    """Interior knot and (a, b, c) of each piece of scipy's interpolating
    quadratic spline through the samples, with a*T**2 + b*T + c global."""
    pp = PPoly.from_spline(splrep(temps, values, k=2, s=0))
    pieces = []
    for i in np.flatnonzero(np.diff(pp.x) > 0):
        c2, c1, c0 = pp.c[:, i]
        x0 = pp.x[i]
        pieces.append((c2, c1 - 2 * c2 * x0, c0 - c1 * x0 + c2 * x0**2))
    return float(np.unique(pp.x)[1]), np.ravel(pieces)


def test_criterion_1_material_fit_reproduction():
    # Every fitted row is checked against scipy's interpolating quadratic
    # spline built straight from the tabulated samples, which shares no
    # code with fit_piecewise_quadratic. The printed coefficient table is
    # not the fit of these samples (see verification.py), so only its
    # constant entries, which are tabulated data, are checked against it.
    start = time.perf_counter()
    models = {("k", sid): hearth_conductivity(sid) for sid in range(1, 7)}
    models.update({("E", sid): hearth_modulus(sid) for sid in range(1, 7)})
    report = spline_coefficient_report()
    elapsed = time.perf_counter() - start

    tables = {"k": (CONDUCTIVITY_SAMPLE_TEMPS, CONDUCTIVITY_SAMPLES),
              "E": (MODULUS_SAMPLE_TEMPS, MODULUS_SAMPLES)}
    problems = []
    for prop, (temps, samples) in tables.items():
        for sid, vals in samples.items():
            model = models[prop, sid]
            values = np.array(vals)
            knot, coeffs = _scipy_spline_pieces(temps, values)
            row = f"{prop} row {sid}"
            if knot != model.Tb:
                problems.append(f"{row}: knot {model.Tb} K, scipy {knot} K")
            if not np.allclose(model.coeffs, coeffs, rtol=1e-10, atol=0):
                problems.append(f"{row}: coefficients "
                                f"{np.array(model.coeffs)} differ from "
                                f"scipy's {coeffs}")
            if not np.allclose(model(np.array(temps)), values,
                               rtol=1e-10, atol=0):
                problems.append(f"{row}: does not return its samples")
            if not model.is_positive():
                problems.append(f"{row}: not positive on [Ta, Tc]")
    n_fitted = len(tables["k"][1]) + len(tables["E"][1])

    constant = [c for c in report if c.subdomain not in tables[c.prop][1]]
    problems += [f"constant {c.prop} row {c.subdomain} {c.name}: "
                 f"{c.fitted} vs printed {c.printed}"
                 for c in constant if not c.ok]
    printed_ok = sum(c.ok for c in report)

    ok = not problems and elapsed < 1.0
    _line(1, ok, f"{n_fitted} fitted rows match scipy's interpolating "
                 f"spline, {len(constant)} constant entries match the "
                 f"printed table; printed table overall {printed_ok}/"
                 f"{len(report)} within half a printed unit "
                 f"(informational), {elapsed:.2f} s")
    assert elapsed < 1.0
    assert n_fitted == 8 and len(constant) == 8
    assert not problems, "\n".join(problems)


def test_criterion_2_hearth_newton_convergence(hearth_solution):
    _, _, _, report, elapsed = hearth_solution
    ok = (report.converged and report.iterations <= 25
          and report.residuals[-1] <= 1e-4 and elapsed < 60.0)
    _line(2, ok, f"{report.iterations} iterations, final residual "
                 f"{report.residuals[-1]:.2e}, {elapsed:.1f} s")
    assert report.converged
    assert report.iterations <= 25
    assert report.residuals[-1] <= 1e-4
    assert elapsed < 60.0


def test_criterion_3_temperature_bounds(hearth_solution):
    _, _, T, _, _ = hearth_solution
    lo, hi = float(T.min()), float(T.max())
    ok = lo >= 300.0 - 1e-6 and hi <= 1773.0 + 1e-6
    _line(3, ok, f"T in [{lo:.2f}, {hi:.2f}] K")
    assert lo >= 300.0 - 1e-6
    assert hi <= 1773.0 + 1e-6


def test_criterion_4_annulus_benchmark():
    start = time.perf_counter()
    rec, rel = annulus_study()
    elapsed = time.perf_counter() - start
    order = rec.observed_order()
    ok = rel[-1] < 1e-3 and order >= 1.9 and elapsed < 30.0
    _line(4, ok, f"rel weighted L2 {rel[-1]:.2e} at the finest level, "
                 f"order {order:.3f}, {elapsed:.1f} s")
    assert rel[-1] < 1e-3
    assert order >= 1.9
    assert elapsed < 30.0


def test_criterion_5_manufactured_solutions():
    r, y, T = sp.symbols("r y T", positive=True)
    start = time.perf_counter()
    thermal = ThermalManufacturedCase(
        exact_expr=300 + 50 * r**2 + 20 * y,
        conductivity_expr=1 + sp.Rational(1, 1000) * T)
    t_rec = mms_thermal_study(thermal, [1 / 8, 1 / 16, 1 / 32])
    mechanical = MechanicalManufacturedCase(
        ur_expr=sp.Rational(1, 10000) * r * y,
        uy_expr=sp.Rational(1, 10000) * r**2,
        delta_T_expr=100 * r)
    m_rec = mms_mechanical_study(mechanical, [1 / 8, 1 / 16, 1 / 32])
    elapsed = time.perf_counter() - start
    t_order = t_rec.observed_order()
    m_order = m_rec.observed_order()
    ok = t_order >= 1.9 and m_order >= 1.9 and elapsed < 300.0
    _line(5, ok, f"thermal order {t_order:.3f}, mechanical order "
                 f"{m_order:.3f}, {elapsed:.1f} s")
    assert t_order >= 1.9
    assert m_order >= 1.9
    assert elapsed < 300.0


def test_criterion_6_jacobian_consistency():
    mesh = hearth_mesh(0.4)
    materials = build_hearth_materials()
    bc = hearth_thermal_bc()
    rng = np.random.default_rng(20260823)
    T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
    problem = ThermalProblem(mesh, materials, bc)
    J = assemble_thermal_jacobian(problem, T)
    eps = 1e-3
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(mesh.num_nodes)
        d /= np.linalg.norm(d)
        Rp = assemble_thermal_residual(problem, T + eps * d)
        Rm = assemble_thermal_residual(problem, T - eps * d)
        fd = (Rp - Rm) / (2 * eps)
        an = J @ d
        worst = max(worst, np.linalg.norm(fd - an) / np.linalg.norm(an))
    ok = worst <= 1e-5
    _line(6, ok, f"worst directional derivative error {worst:.2e} "
                 "over 10 random directions")
    assert worst <= 1e-5


def test_criterion_7_free_expansion():
    poly = SubdomainPolygon(1, ((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0)))
    mesh = generate_mesh([poly], 0.25)
    E, alpha, dT = 2e9, 1e-5, 500.0
    materials = uniform_materials(PiecewiseQuadratic.constant(10.0),
                                  PiecewiseQuadratic.constant(E),
                                  nu=0.3, alpha=alpha, T0=300.0)
    bc = MechanicalBC({
        BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
        BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
        BoundaryTag.TOP: TRACTION_FREE,
        BoundaryTag.OUTER: TRACTION_FREE,
        BoundaryTag.INNER: TRACTION_FREE,
    })
    T = np.full(mesh.num_nodes, 300.0 + dT)
    u, _ = solve_mechanical(mesh, materials, bc, T)
    stress = recover_stress(mesh, materials, T, u)
    peak = float(np.abs(stress).max())
    limit = 1e-9 * E * alpha * dT
    ok = peak <= limit
    _line(7, ok, f"max |sigma| {peak:.2e} Pa against limit {limit:.2e} Pa")
    assert peak <= limit


def test_criterion_8_structural_invariants(hearth_solution, tmp_path):
    mesh, materials, _, _, _ = hearth_solution
    checks = []

    # conforming mesh: every interior edge is shared by exactly two
    # triangles with opposite orientation, boundary edges by one
    from collections import Counter
    edge_count = Counter()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_count[(min(a, b), max(a, b))] += 1
    checks.append(("conformity", all(c in (1, 2) for c in edge_count.values())))

    # triangle areas are positive and sum to the meshed domain area
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    checks.append(("areas", bool(np.all(areas > 0))
                   and abs(areas.sum() - 20.454675) < 1e-9))

    # exact stiffness symmetry and positive definiteness on free dofs
    cyl = generate_mesh([SubdomainPolygon(
        1, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))], 0.25)
    simple = uniform_materials(PiecewiseQuadratic.constant(10.0),
                               PiecewiseQuadratic.constant(2e9),
                               nu=0.3, alpha=1e-5, T0=300.0)
    bc = MechanicalBC({
        BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
        BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
        BoundaryTag.TOP: TRACTION_FREE,
        BoundaryTag.OUTER: TRACTION_FREE,
        BoundaryTag.INNER: TRACTION_FREE,
    })
    K, f, dofs, values = assemble_mechanical_system(
        cyl, simple, bc, np.full(cyl.num_nodes, 300.0))
    checks.append(("symmetry", float(abs(K - K.T).max()) == 0.0))
    eigvals = np.linalg.eigvalsh(
        apply_constraints(K, f, dofs, values)[0].toarray())
    checks.append(("spd", bool(eigvals.min() > 0)))

    # rigid axial translation carries no stress, and a fully
    # traction-free problem is rejected as singular
    rigid = np.column_stack([np.zeros(cyl.num_nodes),
                             np.full(cyl.num_nodes, 1e-3)])
    stress = recover_stress(cyl, simple, np.full(cyl.num_nodes, 300.0), rigid)
    kernel_ok = float(np.abs(stress).max()) <= 1e-6
    try:
        assemble_mechanical_system(
            cyl, simple, MechanicalBC({t: TRACTION_FREE for t in BoundaryTag}),
            np.full(cyl.num_nodes, 300.0))
        kernel_ok = False
    except SingularSystemError:
        pass
    checks.append(("rigid modes", kernel_ok))

    # contact constraints hold as exact zeros in a solved field
    T = np.full(cyl.num_nodes, 800.0)
    u, _ = solve_mechanical(cyl, simple, bc, T)
    checks.append(("constraints",
                   bool(np.all(u[cyl.nodes[:, 0] == 0.0, 0] == 0.0))
                   and bool(np.all(u[cyl.nodes[:, 1] == 0.0, 1] == 0.0))))

    # frozen VTK export is reproduced bit for bit
    import pathlib
    tri = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               triangles=np.array([[0, 1, 2]]),
               tri_subdomain=np.array([1]),
               boundary_edges=[])
    golden = (pathlib.Path(__file__).parent
              / "data" / "single_triangle_golden.vtk").read_text()
    text = vtk_text(tri,
                    temperature=np.array([1.0, 2.0, 3.0]),
                    displacement=np.array([[0.1, 0.0], [0.0, -0.2],
                                           [0.25, 0.5]]),
                    stress=np.array([[1e6, -2e6, 3.5e6, 0.0]]))
    checks.append(("vtk golden", text == golden))

    # two identical runs leave identical artifacts
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_scenario(RunConfig(target_h=0.5, output_dir=str(out)))
    same = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
               for name in ("mesh.txt", "solution.vtk", "fields.csv"))
    checks.append(("determinism", same))

    failed = [name for name, ok in checks if not ok]
    _line(8, not failed, "all structural invariants hold" if not failed
          else "failed: " + ", ".join(failed))
    assert not failed


def test_criterion_9_scale_report(hearth_solution):
    mesh, _, _, _, _ = hearth_solution
    t_dofs = mesh.num_nodes
    u_dofs = 2 * t_dofs
    within = TARGET_NODES / 2 <= t_dofs <= TARGET_NODES * 2
    _line(9, True, f"{t_dofs} temperature dofs against the {TARGET_NODES} "
                   f"reference ({'within' if within else 'outside'} a factor "
                   f"of two), {u_dofs} displacement dofs")
    assert u_dofs == 2 * t_dofs
