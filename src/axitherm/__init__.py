"""Axisymmetric one-way coupled thermomechanical finite element solver."""

from .materials import (
    MaterialRecord,
    MaterialSet,
    PiecewiseQuadratic,
    elasticity_matrix,
    fit_piecewise_quadratic,
    thermal_stress_term,
)
from .mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
    load_mesh,
    save_mesh,
)
from .fem_core import SolveReport
from .thermal import NewtonConfig, Robin, ThermalBC, newton_solve
from .mechanical import (
    Displacement,
    MechanicalBC,
    Traction,
    recover_stress,
    solve_mechanical,
)
from .isoline import IsoLine, extract_isoline
from .hearth import build_hearth_materials, hearth_mesh, hydrostatic_traction

__version__ = "0.1.0"

__all__ = [
    "BoundaryTag", "Mesh", "SubdomainPolygon", "generate_mesh",
    "hearth_mesh", "load_mesh", "save_mesh",
    "MaterialRecord", "MaterialSet", "PiecewiseQuadratic",
    "build_hearth_materials", "elasticity_matrix", "fit_piecewise_quadratic",
    "thermal_stress_term", "NewtonConfig", "Robin", "SolveReport",
    "ThermalBC", "newton_solve", "Displacement", "MechanicalBC", "Traction",
    "hydrostatic_traction", "recover_stress", "solve_mechanical",
    "IsoLine", "extract_isoline",
]
