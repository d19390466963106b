"""The hearth scenario: its facts live in one module and agree with its
geometry."""
import importlib

import numpy as np
import pytest

from axitherm import hearth
from axitherm.hearth import (
    HEARTH_POLYGONS,
    HEARTH_Y_MAX,
    HYDROSTATIC_SLOPE,
    build_hearth_materials,
    hearth_mechanical_bc,
    hearth_mesh,
    hydrostatic_traction,
)
from axitherm.mesh import BoundaryTag

# the three walls of the notch between the upper subdomain-2 block and
# the top of the wall
NOTCH_WALLS = [
    ((5.5188, 7.35), (5.5188, 7.4)),
    ((5.5188, 7.35), (5.9501, 7.35)),
    ((5.9501, 7.35), (5.9501, 7.4)),
]


@pytest.mark.parametrize("name", ["mesh", "materials", "cli", "thermal",
                                  "mechanical"])
def test_generic_modules_hold_no_hearth_data(name):
    module = importlib.import_module(f"axitherm.{name}")
    strays = [attr for attr, value in vars(module).items()
              if ("hearth" in attr.lower() or "hydrostatic" in attr.lower())
              and getattr(value, "__module__", None) != "axitherm.hearth"]
    assert strays == []


def _vertices():
    return {v for p in HEARTH_POLYGONS for v in p.vertices}


def _in_notch(points):
    (r0, y0), (r1, y1) = hearth._NOTCH_BOX
    return all(r0 <= r <= r1 and y0 <= y <= y1 for r, y in points)


def test_y_max_is_the_top_of_the_geometry():
    assert HEARTH_Y_MAX == max(y for _, y in _vertices()) == 7.4
    mesh = hearth_mesh(0.1)
    for i, j, tag in mesh.boundary_edges:
        ends = mesh.nodes[[i, j]].tolist()
        if tag is BoundaryTag.TOP and not _in_notch(ends):
            assert [y for _, y in ends] == [HEARTH_Y_MAX] * 2


def test_metal_surface_carries_no_load():
    assert hydrostatic_traction(HEARTH_Y_MAX) == 0


class TestHydrostaticLoad:
    def test_linear_in_depth(self):
        assert hydrostatic_traction(7.4) == 0.0
        assert hydrostatic_traction(0.0) == pytest.approx(
            HYDROSTATIC_SLOPE * 7.4)

    def test_above_surface_rejected(self):
        with pytest.raises(ValueError):
            hydrostatic_traction(8.0)

    def test_array_matches_scalar_calls(self):
        y = np.array([0.0, 1.3, 5.0, 7.4])
        assert np.array_equal(hydrostatic_traction(y),
                              [hydrostatic_traction(v) for v in y])
        with pytest.raises(ValueError, match="above the metal surface"):
            hydrostatic_traction(np.array([0.0, 8.0, 3.0]))

    def test_traction_points_against_normal(self):
        bc = hearth_mechanical_bc().conditions[BoundaryTag.INNER]
        g = bc.evaluate(1.0, 3.4, np.array([1.0, 0.0]))
        assert g[0] == pytest.approx(-HYDROSTATIC_SLOPE * 4.0)
        assert g[1] == 0.0


def test_notch_box_corners_are_polygon_vertices():
    assert set(hearth._NOTCH_BOX) <= _vertices()


def test_retagged_notch_edges_are_the_three_notch_walls():
    mesh = hearth_mesh(0.1)
    notch = [mesh.nodes[[i, j]] for i, j, _ in mesh.boundary_edges
             if _in_notch(mesh.nodes[[i, j]].tolist())]
    assert notch
    assert all(tag is BoundaryTag.TOP for i, j, tag in mesh.boundary_edges
               if _in_notch(mesh.nodes[[i, j]].tolist()))
    covered = np.zeros(len(NOTCH_WALLS))
    for ends in notch:
        on = [k for k, (a, b) in enumerate(NOTCH_WALLS)
              if np.all((ends >= np.minimum(a, b)) & (ends <= np.maximum(a, b)))]
        assert len(on) == 1, f"notch edge {ends.tolist()} on {len(on)} walls"
        covered[on[0]] += np.linalg.norm(ends[1] - ends[0])
    lengths = [np.linalg.norm(np.subtract(b, a)) for a, b in NOTCH_WALLS]
    assert covered == pytest.approx(lengths)


def test_materials_cover_exactly_the_polygons_subdomains():
    assert set(build_hearth_materials().records) == \
        {p.subdomain_id for p in HEARTH_POLYGONS}
