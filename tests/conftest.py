"""Shared fixtures for the test suite."""
import numpy as np
import pytest

from axitherm.materials import PiecewiseQuadratic, uniform_materials
from axitherm.mesh import SubdomainPolygon, generate_mesh


@pytest.fixture(scope="session")
def unit_square_mesh():
    poly = SubdomainPolygon(1, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return generate_mesh([poly], 0.25)


@pytest.fixture(scope="session")
def simple_materials():
    return uniform_materials(PiecewiseQuadratic.constant(10.0),
                             PiecewiseQuadratic.constant(2e9),
                             nu=0.3, alpha=1e-5, T0=300.0)


@pytest.fixture(scope="session")
def coarse_hearth_mesh():
    from axitherm.hearth import hearth_mesh
    return hearth_mesh(0.4)


@pytest.fixture(scope="session")
def hearth_materials():
    from axitherm.hearth import build_hearth_materials
    return build_hearth_materials()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def _parse_vtk(text: str) -> dict:
    """Minimal legacy-VTK reader: the independent round-trip check of
    ``axitherm.io.vtk_text``.

    Returns points, cells, and the named point/cell data arrays. Only
    the subset that ``vtk_text`` emits is understood.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# vtk"):
        raise ValueError("not a VTK file")
    # line 2 is a free-form title and may contain spaces; drop it before
    # switching to token-wise parsing
    tokens = "\n".join(lines[2:]).split()
    out = {"point_data": {}, "cell_data": {}}
    i = 0

    def take(k=1):
        nonlocal i
        vals = tokens[i:i + k]
        i += k
        return vals

    if take(1)[0] != "ASCII":
        raise ValueError("only ASCII VTK supported")
    if take(2) != ["DATASET", "UNSTRUCTURED_GRID"]:
        raise ValueError("only unstructured grids supported")

    section = None
    n_items = 0
    while i < len(tokens):
        word = tokens[i]
        if word == "POINTS":
            take(1)
            n = int(take(1)[0])
            take(1)  # dtype
            flat = [float(v) for v in take(3 * n)]
            out["points"] = np.array(flat).reshape(n, 3)
        elif word == "CELLS":
            take(1)
            m = int(take(1)[0])
            total = int(take(1)[0])
            flat = [int(v) for v in take(total)]
            cells = []
            j = 0
            while j < total:
                cnt = flat[j]
                cells.append(flat[j + 1:j + 1 + cnt])
                j += cnt + 1
            out["cells"] = cells
        elif word == "CELL_TYPES":
            take(1)
            m = int(take(1)[0])
            out["cell_types"] = [int(v) for v in take(m)]
        elif word == "POINT_DATA":
            take(1)
            n_items = int(take(1)[0])
            section = "point_data"
        elif word == "CELL_DATA":
            take(1)
            n_items = int(take(1)[0])
            section = "cell_data"
        elif word == "SCALARS":
            take(1)
            name, dtype, _comps = take(3)
            if take(2) != ["LOOKUP_TABLE", "default"]:
                raise ValueError("expected default lookup table")
            conv = int if dtype == "int" else float
            out[section][name] = np.array([conv(v) for v in take(n_items)])
        elif word == "VECTORS":
            take(1)
            name, _dtype = take(2)
            flat = [float(v) for v in take(3 * n_items)]
            out[section][name] = np.array(flat).reshape(n_items, 3)
        else:
            raise ValueError(f"unexpected token '{word}'")
    return out


@pytest.fixture(scope="session")
def parse_vtk():
    """The test-side VTK reader, :func:`_parse_vtk`."""
    return _parse_vtk
