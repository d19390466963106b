"""Independent oracles: analytic annulus conduction, manufactured
solutions for both physics, and the reproduction of the reference
spline coefficients from the raw property samples.

Manufactured forcing terms are derived symbolically from the strong
operators, so the declared forcing is the exact image of the declared
solution by construction; a finite-difference cross-check lives in the
test suite. The exact displacement is a Displacement on every tag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import sympy as sp

from . import hearth
from .materials import (MaterialSet, PiecewiseQuadratic, elasticity_matrix,
                        thermal_stress_term, uniform_materials)
from .mesh import BoundaryTag, Mesh, SubdomainPolygon, generate_mesh
from .mechanical import Displacement, MechanicalBC, solve_mechanical
from .thermal import ADIABATIC, NewtonConfig, Robin, ThermalBC, newton_solve

_r, _y, _T = sp.symbols("r y T", positive=True)

# Newton settings of every thermal study; the test is relative, so one
# tolerance serves each problem and mesh size
_STUDY_NEWTON = NewtonConfig(abs_tol=1e-9, relative=True)


def _field(expr):
    """``expr`` as a numpy function of (r, y) whose value has the shape
    of r, a constant ``expr`` included."""
    f = sp.lambdify((_r, _y), expr, "numpy")
    return lambda r, y: np.broadcast_to(f(r, y), np.shape(r))


@dataclass
class ConvergenceRecord:
    """Refinement history with the least-squares observed order."""

    levels: list = field(default_factory=list)  # (h, L2)

    def add(self, h, l2):
        if self.levels and h >= self.levels[-1][0]:
            raise ValueError("mesh sizes must decrease strictly")
        if l2 < 0:
            raise ValueError("errors must be nonnegative")
        self.levels.append((float(h), float(l2)))

    def observed_order(self) -> float:
        hs = np.log([h for h, _ in self.levels])
        es = np.log([e for _, e in self.levels])
        slope, _ = np.polyfit(hs, es, 1)
        return float(slope)


def annulus_analytic(r1, r2, k, h1, T_R1, h2, T_R2):
    """Closed-form radial conduction through an annulus with Robin walls.

    T(r) = A ln r + B where the fluxes k A / r1 = h1 (T(r1) - T_R1) and
    -k A / r2 = h2 (T(r2) - T_R2) fix (A, B).
    """
    if not (0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    M = np.array([
        [k / r1 - h1 * math.log(r1), -h1],
        [-k / r2 - h2 * math.log(r2), -h2],
    ])
    rhs = np.array([-h1 * T_R1, -h2 * T_R2])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-14 * max(abs(M).max(), 1.0):
        raise ValueError("singular Robin system")
    A, B = np.linalg.solve(M, rhs)

    def T(r):
        return A * np.log(r) + B

    T.A, T.B = float(A), float(B)
    return T


def weighted_l2_error(mesh: Mesh, nodal, exact) -> float:
    """r-weighted L2 distance between a P1 field and a callable exact
    solution, via a degree-5 rule."""
    geo = mesh.assembly_workspace
    quad = geo.quadrature(5)
    M = len(geo.triangles)
    # nodal values per element with a component axis: (M, 3, C)
    v_el = np.asarray(nodal, float)[geo.triangles].reshape(M, 3, -1)
    u_h = quad.rule.points @ v_el                            # (M, Q, C)
    diff = u_h - np.asarray(exact(quad.r, quad.y), float).reshape(u_h.shape)
    sq = (diff * diff).sum(axis=2)                           # (M, Q)
    return math.sqrt(float(np.sum(quad.w * sq)))


def _unit_square_mesh(h, r0=0.0, r1=1.0, y0=0.0, y1=1.0):
    poly = SubdomainPolygon(1, ((r0, y0), (r1, y0), (r1, y1), (r0, y1)))
    return generate_mesh([poly], h)


def _refinement_study(h_levels, error) -> ConvergenceRecord:
    """The L2 errors ``error(mesh)`` on the unit-square mesh of each
    size in ``h_levels``; needs at least 3 levels."""
    if len(h_levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    rec = ConvergenceRecord()
    for h in h_levels:
        mesh = _unit_square_mesh(h)
        rec.add(mesh.h, error(mesh))
    return rec


@dataclass
class ThermalManufacturedCase:
    """Exact temperature plus symbolically derived source and Robin data.

    ``conductivity`` is a sympy expression in T; the source is the exact
    image of the strong conduction operator applied to ``exact``.
    """

    exact_expr: sp.Expr
    conductivity_expr: sp.Expr
    robin_h: ClassVar[float] = 100.0

    def __post_init__(self):
        Te = self.exact_expr
        k_of_T = self.conductivity_expr.subs(_T, Te)
        flux_r = _r * k_of_T * sp.diff(Te, _r)
        source = -(sp.diff(flux_r, _r) / _r + sp.diff(k_of_T * sp.diff(Te, _y), _y))
        self.exact = _field(Te)
        self.source = _field(source)
        # Robin ambient temperature realizing the exact solution on each
        # outward normal: T_R = T + k dT/dn / h
        self._k_of_T = k_of_T

    def robin_ambient(self, normal):
        nr, ny = normal
        dTdn = nr * sp.diff(self.exact_expr, _r) + ny * sp.diff(self.exact_expr, _y)
        TR = self.exact_expr + self._k_of_T * dTdn / self.robin_h
        return _field(TR)

    def material_set(self) -> MaterialSet:
        kT = sp.Poly(self.conductivity_expr, _T).all_coeffs()
        if len(kT) > 3:
            raise ValueError("conductivity must be at most quadratic in T")
        a, b, c = ([0.0] * (3 - len(kT)) + [float(x) for x in kT])
        k_model = PiecewiseQuadratic(1.0, 5000.0, 10000.0,
                                     (a, b, c, a, b, c))
        E_model = PiecewiseQuadratic.constant(1e9)
        return uniform_materials(k_model, E_model, nu=0.3, alpha=1e-5)

    def boundary_conditions(self) -> ThermalBC:
        normals = {BoundaryTag.BOTTOM: (0.0, -1.0), BoundaryTag.TOP: (0.0, 1.0),
                   BoundaryTag.OUTER: (1.0, 0.0), BoundaryTag.INNER: (-1.0, 0.0)}
        return ThermalBC({BoundaryTag.AXIS: ADIABATIC} | {
            tag: Robin(self.robin_h, self.robin_ambient(n))
            for tag, n in normals.items()})


def mms_thermal_study(case: ThermalManufacturedCase, h_levels) -> ConvergenceRecord:
    """Refinement study for the thermal solver against a manufactured
    solution; needs at least 3 levels."""
    mats = case.material_set()
    bc = case.boundary_conditions()

    def error(mesh):
        T, _ = newton_solve(mesh, mats, bc, _STUDY_NEWTON, source=case.source)
        return weighted_l2_error(mesh, T, case.exact)

    return _refinement_study(h_levels, error)


@dataclass
class MechanicalManufacturedCase:
    """Exact displacement plus symbolically derived body force.

    The body force is minus the divergence of the axisymmetric stress of
    the exact field, which is a Displacement condition on every tag.
    """

    ur_expr: sp.Expr
    uy_expr: sp.Expr
    E: ClassVar[float] = 1e9
    nu: ClassVar[float] = 0.25
    alpha: ClassVar[float] = 1e-5
    T0: ClassVar[float] = 300.0
    delta_T_expr: sp.Expr = sp.Integer(0)

    def __post_init__(self):
        ur, uy = self.ur_expr, self.uy_expr
        eps = sp.Matrix([
            sp.diff(ur, _r),
            sp.diff(uy, _y),
            ur / _r,
            sp.diff(ur, _y) + sp.diff(uy, _r),
        ])
        C = sp.Matrix(elasticity_matrix(self.E, self.nu))
        sig = C * eps
        s0 = thermal_stress_term(self.E, self.nu, self.alpha,
                                 self.delta_T_expr, 0)
        srr, syy, stt = (sig[k] - s0 for k in range(3))
        sry = sig[3]
        fr = -(sp.diff(srr, _r) + sp.diff(sry, _y) + (srr - stt) / _r)
        fy = -(sp.diff(sry, _r) + sp.diff(syy, _y) + sry / _r)
        self._fr, self._fy = _field(fr), _field(fy)
        self._ur, self._uy = _field(ur), _field(uy)
        self._dT = _field(self.delta_T_expr)

    def body_force(self, r, y):
        return self._fr(r, y), self._fy(r, y)

    def exact(self, r, y):
        return np.stack([self._ur(r, y), self._uy(r, y)], axis=-1)

    def temperature(self, mesh: Mesh) -> np.ndarray:
        return self.T0 + self._dT(mesh.nodes[:, 0], mesh.nodes[:, 1]).astype(float)

    def material_set(self) -> MaterialSet:
        return uniform_materials(
            PiecewiseQuadratic.constant(1.0),
            PiecewiseQuadratic.constant(self.E),
            nu=self.nu, alpha=self.alpha, T0=self.T0)


def mms_mechanical_study(case: MechanicalManufacturedCase, h_levels) -> ConvergenceRecord:
    """Refinement study for the mechanical solver against a manufactured
    solution; needs at least 3 levels."""
    mats = case.material_set()
    exact = Displacement(case.exact)
    bc = MechanicalBC({tag: exact for tag in BoundaryTag})

    def error(mesh):
        u, _ = solve_mechanical(mesh, mats, bc, case.temperature(mesh),
                                body_force=case.body_force)
        return weighted_l2_error(mesh, u, case.exact)

    return _refinement_study(h_levels, error)


def annulus_study(subdivisions=(16, 32, 64)):
    """FEM against the closed-form annulus solution on a thin strip."""
    r1, r2, k = 1.0, 2.0, 10.0
    h1, T_R1, h2, T_R2 = 100.0, 1000.0, 50.0, 300.0   # inner, outer Robin
    exact = annulus_analytic(r1, r2, k, h1, T_R1, h2, T_R2)
    mats = uniform_materials(PiecewiseQuadratic.constant(k),
                             PiecewiseQuadratic.constant(1e9),
                             nu=0.3, alpha=1e-5)
    bc = ThermalBC({
        BoundaryTag.INNER: Robin(h1, T_R1),
        BoundaryTag.OUTER: Robin(h2, T_R2),
        BoundaryTag.TOP: ADIABATIC,
        BoundaryTag.BOTTOM: ADIABATIC,
    })
    rec = ConvergenceRecord()
    rel_errors = []
    for n in subdivisions:
        h = (r2 - r1) / n
        mesh = _unit_square_mesh(h, r1, r2, 0.0, 0.1)
        T, _ = newton_solve(mesh, mats, bc, _STUDY_NEWTON)
        l2 = weighted_l2_error(mesh, T, lambda r, y: exact(r))
        norm = weighted_l2_error(mesh, np.zeros_like(T), lambda r, y: exact(r))
        rec.add(mesh.h, l2)
        rel_errors.append(l2 / norm)
    return rec, rel_errors


@dataclass
class MaterialFitCheck:
    """How one fitted property row meets its tabulated samples."""

    subdomain: int
    prop: str
    sample_error: float   # largest relative error at the samples
    positive: bool

    @property
    def ok(self) -> bool:
        return self.sample_error <= 1e-10 and self.positive


def material_fit_checks() -> list[MaterialFitCheck]:
    """Check every fitted conductivity and modulus row against its
    tabulated samples: each sample reproduced to 1e-10 relative, and the
    fit positive on its knot range. The knots are derived from the
    samples by the fit, so there is no separate knot to check."""
    out = []
    for prop, fit, temps, samples in (
        ("k", hearth.hearth_conductivity, hearth.CONDUCTIVITY_SAMPLE_TEMPS,
         hearth.CONDUCTIVITY_SAMPLES),
        ("E", hearth.hearth_modulus, hearth.MODULUS_SAMPLE_TEMPS,
         hearth.MODULUS_SAMPLES),
    ):
        for sid, values in samples.items():
            model = fit(sid)
            v = np.asarray(values)
            err = np.abs(model(np.asarray(temps)) - v) / np.abs(v)
            out.append(MaterialFitCheck(
                subdomain=sid, prop=prop, sample_error=float(err.max()),
                positive=model.is_positive()))
    return out


# Reference spline coefficients as printed (two to three significant
# digits); `None` marks constant-model entries with no fitted a, b.
#
# This table is not the fit of the samples in `hearth`, and
# `spline_coefficient_report` reports the disagreement (20 of 56 entries
# within half a printed unit). The fit itself is scipy's interpolating
# quadratic spline (`splrep`, k=2, s=0), whose interior knot lies at the
# sample midpoints (473+873)/2 = 673 K and (573+1073)/2 = 823 K, the
# middle knots the fit derives; acceptance criterion 1 checks that agreement.
# - The printed k rows 1, 2 and 5 miss the fit by 129-155 half-units of
#   their last printed digit. They are reproduced to within 1.16
#   half-units only if the 873 K conductivity sample is taken at the
#   673 K knot instead.
# - That sample set is not physical: printed k row 2 gives
#   k = -5.7 W/(m K) at 1680 K, and subdomain 2 reaches 1680.6 K in the
#   h = 0.1 hearth solve.
# - The printed E rows 1, 2, 4 and 5 match no nearby sample set: the
#   best single move of one sample temperature or of the middle knot,
#   in 5 K steps, still leaves them 6 to 21 half-units off. Row 3 is
#   within 1.4 half-units as tabulated.
# Until the paper's material tables settle which samples were used, the
# values below stay exactly as printed.
REFERENCE_CONDUCTIVITY_COEFFS = {
    1: ("1.4E-5", "-1.3E-2", "1.9E1", "-4.7E-6", "1.1E-2", "1.1E1"),
    2: ("3.9E-4", "-4.3E-1", "1.4E2", "-1.2E-4", "2.5E-1", "-8.7E1"),
    3: (None, None, "5.3", None, None, "5.3"),
    4: (None, None, "4.75", None, None, "4.75"),
    5: ("3.9E-5", "-4.4E-2", "3.3E1", "-1.3E-5", "2.6E-2", "9.2"),
    6: (None, None, "45.6", None, None, "45.6"),
}
REFERENCE_MODULUS_COEFFS = {
    1: ("1.2E3", "-1.6E6", "1.1E10", "-1.2E3", "2.4E6", "9.2E9"),
    2: ("-4.5E2", "-2.3E6", "1.6E10", "9.1E3", "-1.8E7", "2.3E10"),
    3: ("-1.05E5", "1.2E8", "3.1E10", "6.1E4", "-1.5E8", "1.4E11"),
    4: ("-7.4E2", "8.8E5", "1.7E9", "6.5E2", "-1.4E6", "2.6E9"),
    5: ("1.3E3", "8.9E5", "1.4E10", "-1.9E4", "3.4E7", "5.6E8"),
    6: (None, None, "1.9E11", None, None, "1.9E11"),
}
_COEFF_NAMES = ("a0", "b0", "c0", "a1", "b1", "c1")


def _printed_tolerance(printed: str) -> float:
    """Half a unit in the last printed digit of the mantissa: 0.05 for
    "5.3", 0.005 for "4.75", 0.005E5 for "-1.05E5"."""
    mantissa, _, exponent = printed.upper().partition("E")
    _, _, decimals = mantissa.partition(".")
    return 0.5 * 10.0 ** (int(exponent or 0) - len(decimals))


@dataclass
class CoefficientComparison:
    subdomain: int
    prop: str
    name: str
    fitted: float
    printed: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.fitted - self.printed) <= self.tolerance


def spline_coefficient_report() -> list[CoefficientComparison]:
    """Fit the property splines from the raw samples and compare every
    printed coefficient against the fit.

    The printed table disagrees with the fit of the tabulated samples
    (see the note above `REFERENCE_CONDUCTIVITY_COEFFS`); this report is
    what shows that disagreement, entry by entry."""
    out = []
    for prop, refs, fit in (
        ("k", REFERENCE_CONDUCTIVITY_COEFFS, hearth.hearth_conductivity),
        ("E", REFERENCE_MODULUS_COEFFS, hearth.hearth_modulus),
    ):
        for sid, printed in refs.items():
            model = fit(sid)
            for name, coeff, ref in zip(_COEFF_NAMES, model.coeffs, printed):
                if ref is None:
                    continue
                out.append(CoefficientComparison(
                    subdomain=sid, prop=prop, name=name,
                    fitted=float(coeff), printed=float(ref),
                    tolerance=_printed_tolerance(ref)))
    return out


def format_coefficient_report(report) -> str:
    lines = ["subdomain property coeff fitted printed tol status"]
    for c in report:
        lines.append(
            f"{c.subdomain} {c.prop} {c.name} {c.fitted:.6e} "
            f"{c.printed:.6e} {c.tolerance:.1e} "
            f"{'ok' if c.ok else 'MISMATCH'}")
    n_bad = sum(not c.ok for c in report)
    lines.append(f"# {len(report)} coefficients compared, {n_bad} mismatches")
    return "\n".join(lines) + "\n"
