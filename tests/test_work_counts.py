"""The solver work of a hearth run, pinned.

    python -m pytest -q tests/test_work_counts.py
    python tests/test_work_counts.py --update   # rewrite work_counts.json

``solve_scenario`` runs at h = 0.2, a cold start, and at h = 0.1, which
starts Newton from the coarse solution. For the fine and the coarse
solve the test pins the Newton steps, the LU factorizations and the
residuals recorded, and the mechanical solve's factorizations. It also
pins the fill nnz(L) + nnz(U) of the factors ``fem_core._splu`` makes of
J at the converged T and of the float32 K_ff. These counts do not
depend on the machine or its BLAS thread count, so unlike a time they
show a change in solver work exactly. The fill depends on SuperLU, so
the file records the scipy version; under another version the test
fails. Rewrite the file only for a change meant to move a count, and
say which moved and why.
"""
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package is in src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy

from axitherm import fem_core
from axitherm.cli import RunConfig, solve_scenario
from axitherm.hearth import (build_hearth_materials, hearth_mechanical_bc,
                             hearth_thermal_bc)
from axitherm.mechanical import assemble_mechanical_system
from axitherm.thermal import ThermalProblem, assemble_thermal_jacobian

COUNTS = Path(__file__).resolve().parent / "work_counts.json"
H_LEVELS = (0.2, 0.1)


def _solve_counts(report):
    if report is None:
        return None
    return {"steps": report.iterations, "lus": report.factorizations,
            "residuals": len(report.residuals)}


def _fill(A, dtype=None):
    factor = fem_core._splu(A.tocsr(), dtype)
    return int(factor.L.nnz + factor.U.nnz)


def work_counts(h):
    run = solve_scenario(RunConfig(target_h=h))
    materials = build_hearth_materials()
    J = assemble_thermal_jacobian(
        ThermalProblem(run.mesh, materials, hearth_thermal_bc()), run.T)
    K_ff = fem_core.apply_constraints(*assemble_mechanical_system(
        run.mesh, materials, hearth_mechanical_bc(), run.T))[0]
    return {
        "fine": _solve_counts(run.thermal_report),
        "coarse": _solve_counts(run.thermal_report.coarse_start),
        "mechanical_lus": run.mechanical_report.factorizations,
        "J_fill": _fill(J),
        "K_ff_fill": _fill(K_ff, np.float32),
    }


def _all_counts():
    return {"scipy": scipy.__version__,
            **{f"h={h:g}": work_counts(h) for h in H_LEVELS}}


def test_work_counts_match_the_committed_file():
    pinned = json.loads(COUNTS.read_text())
    assert scipy.__version__ == pinned["scipy"], (
        f"{COUNTS.name} was written under scipy {pinned['scipy']}, this "
        f"is scipy {scipy.__version__}: rewrite it with --update")
    assert _all_counts() == pinned


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    COUNTS.write_text(json.dumps(_all_counts(), indent=2) + "\n")
