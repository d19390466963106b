"""Temperature-dependent material models.

Thermal conductivity and Young's modulus are two-piece C1 quadratic
splines fitted to four tabulated samples; Poisson's ratio and the
thermal expansion coefficient are constants. SI units throughout,
temperatures in kelvin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POSITIVITY_SAMPLES = 200  # temperatures PiecewiseQuadratic.is_positive checks


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
        """Positivity on [Ta, Tc], checked at POSITIVITY_SAMPLES points
        plus the vertex of each parabola when it falls inside its piece."""
        Ts = list(np.linspace(self.Ta, self.Tc, POSITIVITY_SAMPLES))
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


def fit_piecewise_quadratic(samples, knots) -> PiecewiseQuadratic:
    """Fit the two-piece quadratic through 4 samples with C1 matching.

    ``samples`` is a sequence of 4 (T, value) pairs, two with T in
    [Ta, Tb] and two in [Tb, Tc]. The 6x6 system combines the four
    interpolation conditions with value and slope continuity at Tb;
    one step of iterative refinement keeps the interpolation residual
    at the 1e-10 relative level despite the T^2 scaling.
    """
    Ta, Tb, Tc = knots
    lo = [(T, v) for T, v in samples if Ta - 1e-12 <= T < Tb]
    hi = [(T, v) for T, v in samples if Tb < T <= Tc + 1e-12]
    # a sample at Tb lies on both closed pieces: give it to the one
    # short of two samples
    for T, v in samples:
        if T == Tb:
            if len(lo) < 2:
                lo.append((T, v))
            else:
                hi.insert(0, (T, v))
    if len(samples) != 4 or len(lo) != 2 or len(hi) != 2:
        raise ValueError("need exactly two samples per piece inside the knot range")
    if len({T for T, _ in samples}) != 4:
        raise ValueError("sample temperatures must be distinct")

    A = np.zeros((6, 6))
    rhs = np.zeros(6)
    for row, (T, v) in enumerate(lo):
        A[row, :3] = [T * T, T, 1.0]
        rhs[row] = v
    for row, (T, v) in enumerate(hi, start=2):
        A[row, 3:] = [T * T, T, 1.0]
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

    def __getitem__(self, subdomain_id: int) -> MaterialRecord:
        return self.records[subdomain_id]

    def subdomain_ids(self):
        return sorted(self.records)


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


# Hearth material data. Conductivity samples in W/(m K), modulus samples
# in Pa, at the sample temperatures in kelvin.
CONDUCTIVITY_KNOTS = (293.0, 673.0, 1800.0)
MODULUS_KNOTS = (293.0, 823.0, 1800.0)

CONDUCTIVITY_SAMPLE_TEMPS = (293.0, 473.0, 873.0, 1273.0)
MODULUS_SAMPLE_TEMPS = (293.0, 573.0, 1073.0, 1273.0)

CONDUCTIVITY_SAMPLES = {
    1: (16.07, 15.53, 15.97, 17.23),
    2: (49.35, 24.75, 27.06, 38.24),
    5: (23.34, 20.81, 20.99, 21.62),
}
CONSTANT_CONDUCTIVITY = {3: 5.3, 4: 4.75, 6: 45.6}

MODULUS_SAMPLES_GPA = {
    1: (10.5, 10.3, 10.4, 10.3),
    2: (15.4, 14.7, 13.8, 14.4),
    3: (58.2, 67.3, 52.9, 51.6),
    4: (1.85, 1.92, 1.83, 1.85),
    5: (14.5, 15.0, 15.3, 13.3),
}
CONSTANT_MODULUS = {6: 1.9e11}

POISSON_RATIO = {1: 0.3, 2: 0.2, 3: 0.1, 4: 0.1, 5: 0.2, 6: 0.3}
EXPANSION_COEFF = {1: 2.3e-6, 2: 4.6e-6, 3: 4.7e-6, 4: 4.6e-6,
                   5: 6e-6, 6: 1.2e-5}

REFERENCE_TEMPERATURE = 300.0


def hearth_conductivity(subdomain_id: int) -> PiecewiseQuadratic:
    if subdomain_id in CONSTANT_CONDUCTIVITY:
        return PiecewiseQuadratic.constant(CONSTANT_CONDUCTIVITY[subdomain_id])
    vals = CONDUCTIVITY_SAMPLES[subdomain_id]
    return fit_piecewise_quadratic(
        list(zip(CONDUCTIVITY_SAMPLE_TEMPS, vals)), CONDUCTIVITY_KNOTS)


def hearth_modulus(subdomain_id: int) -> PiecewiseQuadratic:
    if subdomain_id in CONSTANT_MODULUS:
        return PiecewiseQuadratic.constant(CONSTANT_MODULUS[subdomain_id])
    vals = [v * 1e9 for v in MODULUS_SAMPLES_GPA[subdomain_id]]
    return fit_piecewise_quadratic(
        list(zip(MODULUS_SAMPLE_TEMPS, vals)), MODULUS_KNOTS)


def build_hearth_materials() -> MaterialSet:
    """Material set for the six hearth subdomains."""
    records = {
        sid: MaterialRecord(
            k=hearth_conductivity(sid),
            E=hearth_modulus(sid),
            nu=POISSON_RATIO[sid],
            alpha=EXPANSION_COEFF[sid],
        )
        for sid in range(1, 7)
    }
    return MaterialSet(records=records, T0=REFERENCE_TEMPERATURE)


def uniform_materials(k_model, E_model, nu, alpha, T0=300.0,
                      subdomain_ids=(1,)) -> MaterialSet:
    """Same record on every listed subdomain; handy for test problems."""
    rec = MaterialRecord(k=k_model, E=E_model, nu=nu, alpha=alpha)
    return MaterialSet(records={sid: rec for sid in subdomain_ids}, T0=T0)
