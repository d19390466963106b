"""Temperature-dependent material models.

Thermal conductivity and Young's modulus are two-piece C1 quadratic
splines fitted to four tabulated samples; Poisson's ratio and the
thermal expansion coefficient are constants. SI units throughout,
temperatures in kelvin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Two quadratic pieces over [Ta, Tb] and [Tb, Tc], C1 at Tb.

    Evaluation clamps to [Ta, Tc]: outside the knot range the boundary
    value is held constant (and the derivative is zero), which keeps
    properties physical when Newton iterates overshoot.
    """

    Ta: float
    Tb: float
    Tc: float
    coeffs: tuple  # (a0, b0, c0, a1, b1, c1)

    def __post_init__(self):
        if not (self.Ta < self.Tb < self.Tc):
            raise ValueError("knots must satisfy Ta < Tb < Tc")
        a0, b0, c0, a1, b1, c1 = self.coeffs
        v0 = a0 * self.Tb**2 + b0 * self.Tb + c0
        v1 = a1 * self.Tb**2 + b1 * self.Tb + c1
        scale = max(abs(v0), abs(v1), 1.0)
        if abs(v0 - v1) > 1e-9 * scale:
            raise ValueError("value mismatch at the middle knot")
        s0 = 2 * a0 * self.Tb + b0
        s1 = 2 * a1 * self.Tb + b1
        sscale = max(abs(s0), abs(s1), scale / self.Tb)
        if abs(s0 - s1) > 1e-9 * sscale:
            raise ValueError("slope mismatch at the middle knot")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseQuadratic":
        return cls(0.0, 1500.0, 3000.0, (0.0, 0.0, value, 0.0, 0.0, value))

    def __call__(self, T):
        T = np.asarray(T, float)
        Tc = np.clip(T, self.Ta, self.Tc)
        a0, b0, c0, a1, b1, c1 = self.coeffs
        lo = Tc <= self.Tb
        out = np.where(lo,
                       (a0 * Tc + b0) * Tc + c0,
                       (a1 * Tc + b1) * Tc + c1)
        return out if out.ndim else float(out)

    def derivative(self, T):
        """d/dT, zero outside [Ta, Tc] consistently with clamping."""
        T = np.asarray(T, float)
        a0, b0, _, a1, b1, _ = self.coeffs
        inside = (T >= self.Ta) & (T <= self.Tc)
        lo = T <= self.Tb
        out = np.where(lo, 2 * a0 * T + b0, 2 * a1 * T + b1)
        out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

    def is_positive(self) -> bool:
        """Positivity on [Ta, Tc], exactly: the minimum of a parabola over
        its piece lies at an end of the piece or at its vertex, so the
        three knots and each vertex inside its piece are checked."""
        # Tb too: the pieces are C1 only to the 1e-9 of __post_init__, so
        # a minimum at Tb need not be a vertex of either piece
        Ts = [self.Ta, self.Tb, self.Tc]
        a0, b0, _, a1, b1, _ = self.coeffs
        if a0 != 0:
            v = -b0 / (2 * a0)
            if self.Ta <= v <= self.Tb:
                Ts.append(v)
        if a1 != 0:
            v = -b1 / (2 * a1)
            if self.Tb <= v <= self.Tc:
                Ts.append(v)
        return bool(np.all(self(np.asarray(Ts)) > 0))


def fit_piecewise_quadratic(samples, T_max) -> PiecewiseQuadratic:
    """Fit the two-piece quadratic through 4 samples with C1 matching.

    ``samples`` is a sequence of 4 (T, value) pairs with strictly
    increasing T, the last at most ``T_max``. The knots follow from
    them: Ta is the first sample temperature, Tb = (T_1 + T_2) / 2, the
    interior knot of scipy's interpolating quadratic spline (splrep,
    k=2, s=0), so two samples lie on each piece, and Tc = ``T_max``.
    The 6x6 system combines the four interpolation conditions with
    value and slope continuity at Tb; two steps of iterative refinement
    keep the interpolation residual at the 1e-10 relative level despite
    the T^2 scaling.
    """
    if len(samples) != 4:
        raise ValueError(f"need exactly 4 samples, got {len(samples)}")
    temps = [T for T, _ in samples]
    if not all(a < b for a, b in zip(temps, temps[1:])):
        raise ValueError(f"sample temperatures must increase strictly: {temps}")
    if not temps[3] <= T_max:
        raise ValueError(f"sample at T={temps[3]} lies above T_max={T_max}")
    Ta, Tb, Tc = temps[0], (temps[1] + temps[2]) / 2, T_max

    A = np.zeros((6, 6))
    rhs = np.zeros(6)
    # rows 0-1: the lower piece's samples, rows 2-3: the upper piece's
    for row, (T, v) in enumerate(samples):
        col = 0 if row < 2 else 3
        A[row, col:col + 3] = [T * T, T, 1.0]
        rhs[row] = v
    A[4] = [Tb * Tb, Tb, 1.0, -Tb * Tb, -Tb, -1.0]
    A[5] = [2 * Tb, 1.0, 0.0, -2 * Tb, -1.0, 0.0]

    try:
        x = np.linalg.solve(A, rhs)
        for _ in range(2):
            x += np.linalg.solve(A, rhs - A @ x)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular interpolation system: {exc}") from exc
    return PiecewiseQuadratic(Ta, Tb, Tc, tuple(x))


@dataclass(frozen=True)
class MaterialRecord:
    """Per-subdomain properties: k(T) [W/(m K)], E(T) [Pa], nu, alpha [1/K]."""

    k: PiecewiseQuadratic
    E: PiecewiseQuadratic
    nu: float
    alpha: float

    def __post_init__(self):
        if not 0 <= self.nu < 0.5:
            raise ValueError("Poisson's ratio must lie in [0, 0.5)")
        if self.alpha <= 0:
            raise ValueError("thermal expansion coefficient must be positive")


@dataclass(frozen=True)
class MaterialSet:
    records: dict  # subdomain id -> MaterialRecord
    T0: float = 300.0

    def by_subdomain(self, subdomains: dict) -> list:
        """(record, element indices) per entry of ``subdomains`` (subdomain
        id -> element indices, as in ``AssemblyWorkspace.subdomains``);
        raises ValueError naming every subdomain without a record."""
        missing = sorted(set(subdomains) - set(self.records))
        if missing:
            raise ValueError(f"no material record for subdomains {missing}")
        return [(self.records[sid], idx) for sid, idx in subdomains.items()]


def elasticity_matrix(E: float, nu: float) -> np.ndarray:
    """4x4 axisymmetric constitutive matrix for (e_rr, e_yy, e_tt, g_ry)."""
    if not 0 <= nu < 0.5:
        raise ValueError("Poisson's ratio must lie in [0, 0.5)")
    c = E / ((1 - 2 * nu) * (1 + nu))
    m = np.full((3, 3), nu)
    np.fill_diagonal(m, 1 - nu)
    C = np.zeros((4, 4))
    C[:3, :3] = m
    C[3, 3] = (1 - 2 * nu) / 2
    return c * C


def thermal_stress_term(E: float, nu: float, alpha: float,
                        T: float, T0: float) -> float:
    """Scalar E*alpha*(T - T0)/(1 - 2 nu) multiplying the identity."""
    if nu >= 0.5:
        raise ValueError("Poisson's ratio must be below 0.5")
    return E * alpha * (T - T0) / (1 - 2 * nu)


def uniform_materials(k_model, E_model, nu, alpha, T0=300.0) -> MaterialSet:
    """One record, on subdomain 1; handy for test problems."""
    rec = MaterialRecord(k=k_model, E=E_model, nu=nu, alpha=alpha)
    return MaterialSet(records={1: rec}, T0=T0)
