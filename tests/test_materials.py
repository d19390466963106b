"""Material model and spline fitting tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import splev, splrep

from axitherm.hearth import (
    CONDUCTIVITY_SAMPLE_TEMPS,
    CONDUCTIVITY_SAMPLES,
    PROPERTY_T_MAX,
    build_hearth_materials,
    hearth_conductivity,
    hearth_modulus,
)
from axitherm.materials import (
    MaterialRecord,
    MaterialSet,
    PiecewiseQuadratic,
    elasticity_matrix,
    fit_piecewise_quadratic,
    thermal_stress_term,
)

# Coefficients of the C1 interpolating spline through the subdomain-1
# conductivity samples, frozen from this fit. Acceptance criterion 1
# (tests/test_acceptance.py) cross-checks this and every other fitted
# row against scipy's interpolating quadratic spline (splrep, k=2, s=0).
W1_K_COEFFS = (8.174846625766951e-06, -0.009261932515337511,
               18.081943819018427, 1.7607361963189932e-06,
               -0.0006285398773005604, 15.176807196318993)


class TestPiecewiseQuadratic:
    def test_evaluates_both_pieces(self):
        m = PiecewiseQuadratic(0.0, 1.0, 2.0, (1, 0, 0, -1, 4, -2))
        assert m(0.5) == pytest.approx(0.25)
        assert m(1.5) == pytest.approx(-2.25 + 6 - 2)

    def test_continuity_validated(self):
        with pytest.raises(ValueError, match="value mismatch"):
            PiecewiseQuadratic(0.0, 1.0, 2.0, (0, 0, 1, 0, 0, 2))
        with pytest.raises(ValueError, match="slope mismatch"):
            PiecewiseQuadratic(0.0, 1.0, 2.0, (1, 0, 0, 0, 0, 1))

    def test_knot_ordering_validated(self):
        with pytest.raises(ValueError, match="knots"):
            PiecewiseQuadratic(2.0, 1.0, 0.0, (0, 0, 1, 0, 0, 1))

    def test_clamping_outside_range(self):
        m = PiecewiseQuadratic(0.0, 1.0, 2.0, (1, 0, 0, -1, 4, -2))
        assert m(-5.0) == m(0.0)
        assert m(10.0) == m(2.0)
        assert m.derivative(-5.0) == 0.0
        assert m.derivative(10.0) == 0.0

    def test_derivative_matches_fd(self):
        m = PiecewiseQuadratic(0.0, 1.0, 2.0, (1, 0, 0, -1, 4, -2))
        for T in (0.3, 0.8, 1.2, 1.9):
            fd = (m(T + 1e-7) - m(T - 1e-7)) / 2e-7
            assert m.derivative(T) == pytest.approx(fd, rel=1e-6)

    def test_vectorized(self):
        m = PiecewiseQuadratic.constant(5.3)
        out = m(np.array([100.0, 500.0, 2500.0]))
        assert np.allclose(out, 5.3)

    def test_is_positive_catches_interior_vertex(self):
        # parabola dipping negative strictly between samples
        m = PiecewiseQuadratic(0.0, 2.0, 4.0, (1, -2, 0.5, 1, -2, 0.5))
        assert not m.is_positive()

    def test_is_positive_catches_kink_minimum_at_middle_knot(self):
        # the slopes at Tb differ by 4e-10, inside the C1 tolerance, so
        # neither vertex lies in its piece and only Tb shows the dip
        d = 1e-10
        b0, b1 = -2 * (2 + d), -2 * (2 - d)
        m = PiecewiseQuadratic(0.0, 2.0, 4.0, (1.0, b0, -4.001 - 2 * b0,
                                               1.0, b1, -4.001 - 2 * b1))
        assert m(2.0) < 0 < min(m(0.0), m(4.0))
        assert not m.is_positive()


class TestFitPiecewiseQuadratic:
    def test_interpolates_samples(self):
        samples = list(zip(CONDUCTIVITY_SAMPLE_TEMPS, CONDUCTIVITY_SAMPLES[1]))
        m = fit_piecewise_quadratic(samples, PROPERTY_T_MAX)
        for T, v in samples:
            assert m(T) == pytest.approx(v, rel=1e-10)

    def test_c1_at_knot(self):
        samples = list(zip(CONDUCTIVITY_SAMPLE_TEMPS, CONDUCTIVITY_SAMPLES[2]))
        m = fit_piecewise_quadratic(samples, PROPERTY_T_MAX)
        # Ta the first sample, Tb the midpoint of the middle two
        assert (m.Ta, m.Tb, m.Tc) == (293.0, 673.0, PROPERTY_T_MAX)
        Tb = m.Tb
        a0, b0, c0, a1, b1, c1 = m.coeffs
        assert a0 * Tb**2 + b0 * Tb + c0 == pytest.approx(
            a1 * Tb**2 + b1 * Tb + c1, rel=1e-10)
        assert 2 * a0 * Tb + b0 == pytest.approx(2 * a1 * Tb + b1, rel=1e-9)

    def test_frozen_subdomain1_coefficients(self):
        m = hearth_conductivity(1)
        assert m.coeffs == pytest.approx(W1_K_COEFFS, rel=1e-12)

    def test_constant_data_gives_constant_spline(self):
        samples = [(293.0, 5.3), (473.0, 5.3), (873.0, 5.3), (1273.0, 5.3)]
        m = fit_piecewise_quadratic(samples, PROPERTY_T_MAX)
        a0, b0, c0, a1, b1, c1 = m.coeffs
        assert abs(a0) < 1e-12 and abs(b0) < 1e-9
        assert abs(a1) < 1e-12 and abs(b1) < 1e-9
        assert c0 == pytest.approx(5.3)
        assert c1 == pytest.approx(5.3)

    def test_needs_two_samples_per_piece(self):
        # exactly 4 samples with increasing T put two on each side of
        # the derived middle knot; any other call is rejected by name
        good = list(zip(CONDUCTIVITY_SAMPLE_TEMPS, CONDUCTIVITY_SAMPLES[1]))
        for bad, message in (
            (good[:3], "^need exactly 4 samples, got 3$"),
            (good + [(1500.0, 17.0)], "^need exactly 4 samples, got 5$"),
            ([good[0], good[2], good[1], good[3]], "must increase strictly"),
            (good[:2] + [good[1]] + good[3:], "must increase strictly"),
        ):
            with pytest.raises(ValueError, match=message):
                fit_piecewise_quadratic(bad, PROPERTY_T_MAX)
        with pytest.raises(ValueError, match=r"^sample at T=1273.0 lies "
                                             r"above T_max=1200.0$"):
            fit_piecewise_quadratic(good, 1200.0)
        # the last sample may lie at T_max
        assert fit_piecewise_quadratic(good, 1273.0).Tc == 1273.0

    def test_needs_distinct_temperatures(self):
        bad = [(300.0, 1.0), (300.0, 2.0), (900.0, 3.0), (1273.0, 4.0)]
        with pytest.raises(ValueError, match="must increase strictly"):
            fit_piecewise_quadratic(bad, PROPERTY_T_MAX)

    @given(v=st.tuples(*[st.floats(1.0, 100.0) for _ in range(4)]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, v):
        samples = list(zip(CONDUCTIVITY_SAMPLE_TEMPS, v))
        m = fit_piecewise_quadratic(samples, PROPERTY_T_MAX)
        for T, val in samples:
            assert m(T) == pytest.approx(val, rel=1e-8, abs=1e-8)

    @given(temps=st.lists(st.floats(250.0, 1700.0), min_size=4, max_size=4)
           .map(sorted).filter(lambda t: min(np.diff(t)) >= 10.0),
           values=st.lists(st.floats(0.1, 100.0), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_interpolating_spline(self, temps, values):
        # scipy's quadratic interpolating spline through the same samples
        # shares no code with the fit: same interior knot, same curve
        m = fit_piecewise_quadratic(list(zip(temps, values)), PROPERTY_T_MAX)
        tck = splrep(temps, values, k=2, s=0)
        assert m.Tb == np.unique(tck[0])[1]
        T = np.linspace(temps[0], temps[-1], 50)
        assert np.abs(m(T) - splev(T, tck)).max() <= 1e-9 * max(values)


class TestElasticityMatrix:
    def test_known_entries(self):
        E, nu = 2.0e9, 0.25
        C = elasticity_matrix(E, nu)
        c = E / ((1 - 2 * nu) * (1 + nu))
        assert C[0, 0] == pytest.approx(c * (1 - nu))
        assert C[0, 1] == pytest.approx(c * nu)
        assert C[3, 3] == pytest.approx(c * (1 - 2 * nu) / 2)
        assert C[0, 3] == 0.0

    def test_symmetric(self):
        C = elasticity_matrix(1e9, 0.3)
        assert np.allclose(C, C.T)

    @given(nu=st.floats(0.0, 0.49), E=st.floats(1e6, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_spd_property(self, nu, E):
        C = elasticity_matrix(E, nu)
        eig = np.linalg.eigvalsh(C)
        assert np.all(eig > 0)

    def test_rejects_incompressible(self):
        with pytest.raises(ValueError):
            elasticity_matrix(1e9, 0.5)

    def test_thermal_stress_term(self):
        val = thermal_stress_term(2e9, 0.25, 1e-5, 800.0, 300.0)
        assert val == pytest.approx(2e9 * 1e-5 * 500 / 0.5)


class TestHearthMaterials:
    def test_all_six_subdomains(self):
        ms = build_hearth_materials()
        assert sorted(ms.records) == [1, 2, 3, 4, 5, 6]
        assert ms.T0 == 300.0

    def test_constant_conductivities(self):
        ms = build_hearth_materials()
        assert ms.records[3].k(600.0) == pytest.approx(5.3)
        assert ms.records[4].k(600.0) == pytest.approx(4.75)
        assert ms.records[6].k(600.0) == pytest.approx(45.6)

    def test_constant_modulus_subdomain6(self):
        assert hearth_modulus(6)(1000.0) == pytest.approx(1.9e11)

    def test_poisson_and_expansion(self):
        ms = build_hearth_materials()
        assert ms.records[1].nu == 0.3
        assert ms.records[5].nu == 0.2
        assert ms.records[1].alpha == pytest.approx(2.3e-6)
        assert ms.records[6].alpha == pytest.approx(1.2e-5)

    def test_positive_properties_over_working_range(self):
        ms = build_hearth_materials()
        T = np.linspace(250.0, 1850.0, 400)
        for sid in sorted(ms.records):
            assert np.all(ms.records[sid].k(T) > 0)
            assert np.all(ms.records[sid].E(T) > 0)

    def test_record_validation(self):
        k = PiecewiseQuadratic.constant(1.0)
        with pytest.raises(ValueError):
            MaterialRecord(k=k, E=k, nu=0.6, alpha=1e-5)
        with pytest.raises(ValueError):
            MaterialRecord(k=k, E=k, nu=0.3, alpha=-1e-5)

    def test_by_subdomain_names_every_missing_record(self):
        k = PiecewiseQuadratic.constant(1.0)
        rec = MaterialRecord(k=k, E=k, nu=0.3, alpha=1e-5)
        ms = MaterialSet(records={7: rec})
        idx = np.array([0, 2])
        [(found, found_idx)] = ms.by_subdomain({7: idx})
        assert found is rec and found_idx is idx
        with pytest.raises(ValueError, match=r"^no material record for "
                                             r"subdomains \[3, 9\]$"):
            ms.by_subdomain({9: idx, 7: idx, 3: idx})
