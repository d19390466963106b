"""Oracle and convergence machinery tests."""
import math

import numpy as np
import pytest
import sympy as sp

from axitherm.verification import (
    ConvergenceRecord,
    MechanicalManufacturedCase,
    ThermalManufacturedCase,
    annulus_analytic,
    annulus_study,
    mms_mechanical_study,
    mms_thermal_study,
    spline_coefficient_report,
    format_coefficient_report,
    weighted_l2_error,
)

_r, _y, _T = sp.symbols("r y T", positive=True)

# Constants of the closed-form annulus solution for the default study
# parameters (r1=1, r2=2, k=10, h1=100, T_R1=1000, h2=50, T_R2=300),
# frozen from an independent symbolic solve of the two Robin equations.
ANNULUS_A = -783.7454063966762
ANNULUS_B = 921.6254593603323


class TestConvergenceRecord:
    def test_observed_order_of_synthetic_data(self):
        rec = ConvergenceRecord()
        for h in (0.4, 0.2, 0.1):
            rec.add(h, 3.0 * h**2)
        assert rec.observed_order() == pytest.approx(2.0, abs=1e-12)

    def test_requires_decreasing_h(self):
        rec = ConvergenceRecord()
        rec.add(0.2, 1.0)
        with pytest.raises(ValueError):
            rec.add(0.2, 0.5)


class TestAnnulusAnalytic:
    def test_frozen_constants(self):
        T = annulus_analytic(1.0, 2.0, 10.0, 100.0, 1000.0, 50.0, 300.0)
        assert T.A == pytest.approx(ANNULUS_A, rel=1e-12)
        assert T.B == pytest.approx(ANNULUS_B, rel=1e-12)

    def test_robin_balance_at_both_walls(self):
        r1, r2, k, h1, TR1, h2, TR2 = 0.5, 3.0, 7.0, 40.0, 1200.0, 15.0, 350.0
        T = annulus_analytic(r1, r2, k, h1, TR1, h2, TR2)
        # flux continuity with the convection laws at both radii
        assert k * T.A / r1 == pytest.approx(h1 * (T(r1) - TR1), rel=1e-10)
        assert -k * T.A / r2 == pytest.approx(h2 * (T(r2) - TR2), rel=1e-10)

    def test_monotone_between_ambients(self):
        T = annulus_analytic(1.0, 2.0, 10.0, 100.0, 1000.0, 50.0, 300.0)
        r = np.linspace(1.0, 2.0, 50)
        vals = T(r)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals < 1000.0)
        assert np.all(vals > 300.0)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            annulus_analytic(2.0, 1.0, 10.0, 1.0, 0.0, 1.0, 0.0)


class TestWeightedNorms:
    def test_norm_of_known_field(self, unit_square_mesh):
        # ||1||^2 in the r-weighted L2 over the unit square is 1/2; the
        # norm is the distance from the zero field
        zeros = np.zeros(unit_square_mesh.num_nodes)
        val = weighted_l2_error(unit_square_mesh, zeros,
                                lambda r, y: np.ones_like(r))
        assert val == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_error_of_interpolated_field_is_zero(self, unit_square_mesh):
        nodal = 2.0 * unit_square_mesh.nodes[:, 0] - unit_square_mesh.nodes[:, 1]
        l2 = weighted_l2_error(unit_square_mesh, nodal,
                               lambda r, y: 2.0 * r - y)
        assert l2 <= 1e-14

    def test_vector_field_error(self, unit_square_mesh):
        nodal = np.column_stack([unit_square_mesh.nodes[:, 0],
                                 3.0 * unit_square_mesh.nodes[:, 1]])
        l2 = weighted_l2_error(
            unit_square_mesh, nodal,
            lambda r, y: np.stack([r, 3.0 * y], axis=-1))
        assert l2 <= 1e-14


class TestManufacturedCases:
    def test_thermal_source_cross_checked_by_fd(self):
        case = ThermalManufacturedCase(
            exact_expr=300 + 50 * _r**2 + 20 * _y,
            conductivity_expr=1 + sp.Rational(1, 1000) * _T)
        # independent finite-difference divergence of the flux
        Tf = sp.lambdify((_r, _y), case.exact_expr, "numpy")
        kf = lambda r, y: 1 + 1e-3 * Tf(r, y)
        eps = 1e-5

        def flux_r(r, y):
            return r * kf(r, y) * (Tf(r + eps, y) - Tf(r - eps, y)) / (2 * eps)

        def flux_y(r, y):
            return kf(r, y) * (Tf(r, y + eps) - Tf(r, y - eps)) / (2 * eps)

        for (r, y) in [(0.3, 0.4), (0.7, 0.2), (0.5, 0.9)]:
            div = ((flux_r(r + eps, y) - flux_r(r - eps, y)) / (2 * eps) / r
                   + (flux_y(r, y + eps) - flux_y(r, y - eps)) / (2 * eps))
            assert case.source(r, y) == pytest.approx(-div, rel=1e-4)

    def test_mechanical_force_balances_uniform_translation(self):
        # u = (0, const) is strain free, so the derived body force vanishes
        case = MechanicalManufacturedCase(ur_expr=sp.Integer(0),
                                          uy_expr=sp.Float(0.001))
        fr, fy = case.body_force(np.array([0.5]), np.array([0.5]))
        assert abs(float(fr[0])) <= 1e-12
        assert abs(float(fy[0])) <= 1e-12

    def test_thermal_mms_second_order(self):
        case = ThermalManufacturedCase(
            exact_expr=300 + 50 * _r**2 + 20 * _y,
            conductivity_expr=1 + sp.Rational(1, 1000) * _T)
        rec = mms_thermal_study(case, [1 / 8, 1 / 16, 1 / 32])
        assert rec.observed_order() >= 1.9

    def test_mechanical_mms_second_order(self):
        case = MechanicalManufacturedCase(
            ur_expr=sp.Rational(1, 10000) * _r * _y,
            uy_expr=sp.Rational(1, 10000) * _r**2,
            delta_T_expr=100 * _r)
        rec = mms_mechanical_study(case, [1 / 8, 1 / 16, 1 / 32])
        assert rec.observed_order() >= 1.9

    def test_needs_three_levels(self):
        thermal = ThermalManufacturedCase(
            exact_expr=300 + _r, conductivity_expr=sp.Integer(1))
        mechanical = MechanicalManufacturedCase(ur_expr=_r * _y, uy_expr=_r)
        for study, case in ((mms_thermal_study, thermal),
                            (mms_mechanical_study, mechanical)):
            with pytest.raises(ValueError, match="at least 3 refinement"):
                study(case, [0.5, 0.25])


class TestAnnulusStudy:
    def test_convergence_and_accuracy(self):
        rec, rel = annulus_study()
        assert rel[-1] < 1e-3
        assert rec.observed_order() >= 1.9


class TestSplineReport:
    def test_report_covers_all_noncontstant_entries(self):
        report = spline_coefficient_report()
        # 3 conductivity rows and 5 modulus rows carry 6 printed
        # coefficients each; constants contribute c-only entries
        fitted = [(c.prop, c.subdomain) for c in report]
        assert ("k", 1) in fitted
        assert ("E", 5) in fitted
        assert len(report) == 3 * 6 + 5 * 6 + 4 * 2

    def test_constant_rows_match(self):
        report = spline_coefficient_report()
        for c in report:
            if (c.prop, c.subdomain) in (("k", 3), ("k", 4), ("k", 6),
                                         ("E", 6)):
                assert c.ok

    def test_formatting_mentions_mismatches(self):
        report = spline_coefficient_report()
        text = format_coefficient_report(report)
        assert "coefficients compared" in text
        assert text.count("\n") == len(report) + 2
