"""The paper's one scenario, a blast-furnace hearth wall: its
cross-section, the tagging of its notch, its material tables and its
boundary conditions, the molten-metal load among them. Every other
module is generic, so a study of another wall or of a hearth variant
replaces the names of this module only. SI units throughout,
temperatures in kelvin.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .materials import (MaterialRecord, MaterialSet, PiecewiseQuadratic,
                        fit_piecewise_quadratic)
from .mechanical import (FRICTIONLESS_CONTACT, TRACTION_FREE, MechanicalBC,
                         Traction)
from .mesh import GEOM_TOL, BoundaryTag, Mesh, SubdomainPolygon, generate_mesh
from .thermal import ADIABATIC, Robin, ThermalBC

# Cross-section, vertex coordinates in meters. Subdomain 2 consists of
# two disconnected blocks; a naive vertex list for it would overlap the
# neighbouring subdomains, so the two blocks are trimmed to a tiling of
# the domain (west edge of the lower block at r = 0.39, inner corner of
# the upper block at y = 6.4).
HEARTH_POLYGONS = (
    SubdomainPolygon(1, ((0.0, 0.0), (5.9501, 0.0), (5.9501, 1.0), (2.1, 1.0),
                         (0.0, 1.0))),
    SubdomainPolygon(2, ((0.39, 1.0), (2.1, 1.0), (2.1, 1.6), (0.39, 1.6))),
    SubdomainPolygon(2, ((4.875, 5.2), (5.9501, 5.2), (5.9501, 7.35),
                         (5.5188, 7.35), (5.5188, 6.4), (4.875, 6.4))),
    SubdomainPolygon(3, ((0.0, 1.0), (0.39, 1.0), (0.39, 1.6), (0.0, 1.6))),
    SubdomainPolygon(4, ((0.39, 1.6), (2.1, 1.6), (4.875, 1.6), (4.875, 5.2),
                         (4.875, 6.4), (5.5188, 6.4), (5.5188, 7.35),
                         (5.5188, 7.4), (4.875, 7.4), (4.875, 7.0),
                         (4.475, 7.0), (4.475, 2.1), (0.39, 2.1))),
    SubdomainPolygon(5, ((2.1, 1.0), (5.9501, 1.0), (5.9501, 5.2),
                         (4.875, 5.2), (4.875, 1.6), (2.1, 1.6))),
    SubdomainPolygon(6, ((5.9501, 0.0), (6.0201, 0.0), (6.0201, 7.4),
                         (5.9501, 7.4), (5.9501, 7.35), (5.9501, 5.2),
                         (5.9501, 1.0))),
)

# The top of the wall, which is also the metal surface of the
# hydrostatic load on the cavity wall.
HEARTH_Y_MAX = max(y for p in HEARTH_POLYGONS for _, y in p.vertices)

# (lower-left, upper-right) corners of the notch between the upper
# subdomain-2 block (top at y = 7.35) and the top of the wall. Its three
# walls are exterior edges left of r_max, which the generic rule makes
# INNER; they are stepped upper surface, in contact like the top.
_NOTCH_BOX = ((5.5188, 7.35), (5.9501, HEARTH_Y_MAX))

# A hearth run meshed finer than COARSE_START_H starts its Newton solve
# from the solution on the COARSE_H mesh; COARSE_H is at most 0.6, the
# smallest polygon extent (subdomain 3's block). From that start the
# fine solve factors one LU at h = 0.1 and 0.05 and two at 0.025, where
# a cold solve factors three at each. Timed over the whole Newton stage
# on 2 CPUs, the coarse start takes 1.1 times a cold solve's time at
# h = 0.2 and 0.18, 0.91-0.96 times at 0.16 and 0.15, and 0.84-0.87
# times at 0.14 (faster in 23 of 24 runs); 0.14 keeps it to the sizes
# where the gain is clear.
COARSE_H = 0.4
COARSE_START_H = 0.14


def hearth_mesh(target_h: float) -> Mesh:
    """Generate the hearth mesh, tagged by the generic rule of
    :func:`~axitherm.mesh.tag_boundaries`, and retag the notch's INNER
    edges as TOP."""
    mesh = generate_mesh(HEARTH_POLYGONS, target_h)
    i, j, tags = zip(*mesh.boundary_edges)
    lo, hi = np.asarray(_NOTCH_BOX)
    ends = mesh.nodes[[i, j]]                       # (2, E, 2)
    notch = np.all((ends >= lo - GEOM_TOL) & (ends <= hi + GEOM_TOL),
                   axis=(0, 2))
    return replace(mesh, boundary_edges=[
        (a, b, BoundaryTag.TOP if t is BoundaryTag.INNER and on else t)
        for a, b, t, on in zip(i, j, tags, notch.tolist())])


# Material data. Conductivity samples in W/(m K), modulus samples in Pa,
# at the sample temperatures. Each fit spans its first sample
# temperature to PROPERTY_T_MAX and holds its end values beyond.
PROPERTY_T_MAX = 1800.0

CONDUCTIVITY_SAMPLE_TEMPS = (293.0, 473.0, 873.0, 1273.0)
MODULUS_SAMPLE_TEMPS = (293.0, 573.0, 1073.0, 1273.0)

CONDUCTIVITY_SAMPLES = {
    1: (16.07, 15.53, 15.97, 17.23),
    2: (49.35, 24.75, 27.06, 38.24),
    5: (23.34, 20.81, 20.99, 21.62),
}
CONSTANT_CONDUCTIVITY = {3: 5.3, 4: 4.75, 6: 45.6}

# tabulated in GPa
MODULUS_SAMPLES = {sid: tuple(v * 1e9 for v in gpa) for sid, gpa in {
    1: (10.5, 10.3, 10.4, 10.3),
    2: (15.4, 14.7, 13.8, 14.4),
    3: (58.2, 67.3, 52.9, 51.6),
    4: (1.85, 1.92, 1.83, 1.85),
    5: (14.5, 15.0, 15.3, 13.3),
}.items()}
CONSTANT_MODULUS = {6: 1.9e11}

POISSON_RATIO = {1: 0.3, 2: 0.2, 3: 0.1, 4: 0.1, 5: 0.2, 6: 0.3}
EXPANSION_COEFF = {1: 2.3e-6, 2: 4.6e-6, 3: 4.7e-6, 4: 4.6e-6,
                   5: 6e-6, 6: 1.2e-5}

REFERENCE_TEMPERATURE = 300.0


def _property(sid, constants, samples, temps) -> PiecewiseQuadratic:
    """The constant of subdomain ``sid``, or the fit of its samples."""
    if sid in constants:
        return PiecewiseQuadratic.constant(constants[sid])
    return fit_piecewise_quadratic(list(zip(temps, samples[sid])),
                                   PROPERTY_T_MAX)


def hearth_conductivity(subdomain_id: int) -> PiecewiseQuadratic:
    return _property(subdomain_id, CONSTANT_CONDUCTIVITY, CONDUCTIVITY_SAMPLES,
                     CONDUCTIVITY_SAMPLE_TEMPS)


def hearth_modulus(subdomain_id: int) -> PiecewiseQuadratic:
    return _property(subdomain_id, CONSTANT_MODULUS, MODULUS_SAMPLES,
                     MODULUS_SAMPLE_TEMPS)


def build_hearth_materials() -> MaterialSet:
    """Material set for every hearth subdomain."""
    records = {
        sid: MaterialRecord(
            k=hearth_conductivity(sid),
            E=hearth_modulus(sid),
            nu=POISSON_RATIO[sid],
            alpha=EXPANSION_COEFF[sid],
        )
        for sid in sorted({p.subdomain_id for p in HEARTH_POLYGONS})
    }
    return MaterialSet(records=records, T0=REFERENCE_TEMPERATURE)


def hearth_thermal_bc() -> ThermalBC:
    return ThermalBC({
        BoundaryTag.BOTTOM: Robin(200.0, 300.0),
        BoundaryTag.OUTER: Robin(200.0, 300.0),
        BoundaryTag.TOP: ADIABATIC,
        BoundaryTag.INNER: Robin(2000.0, 1773.0),
        BoundaryTag.AXIS: ADIABATIC,
    })


HYDROSTATIC_SLOPE = 77106.0  # N/m^2 per meter of metal column


def hydrostatic_traction(y):
    """Magnitude of the molten-metal column load at heights y, which
    must not lie above the metal surface HEARTH_Y_MAX."""
    if np.any(np.asarray(y) > HEARTH_Y_MAX + 1e-12):
        raise ValueError(f"y={np.max(y)} is above the metal surface "
                         f"y_max={HEARTH_Y_MAX}")
    return HYDROSTATIC_SLOPE * (HEARTH_Y_MAX - y)


def hearth_mechanical_bc() -> MechanicalBC:
    return MechanicalBC({
        BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
        BoundaryTag.TOP: FRICTIONLESS_CONTACT,
        BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
        # the metal column's compression toward the wall
        BoundaryTag.INNER: Traction(lambda r, y, normal: -np.expand_dims(
            hydrostatic_traction(y), -1) * normal),
        BoundaryTag.OUTER: TRACTION_FREE,
    })
