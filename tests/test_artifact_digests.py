"""The bytes of a hearth run's artifacts, pinned.

    python -m pytest -q tests/test_artifact_digests.py
    python tests/test_artifact_digests.py --update   # rewrite artifact_digests.json

``solve_scenario`` and ``write_artifacts`` run at h = 0.2, a cold start,
and at h = 0.1, which starts Newton from the coarse solution, with
isolines at 1423 and 1000 K, into a relative output directory. The test
pins the sha256 of every file written, ``config.json`` included, the
solve reports with every ``wall_time`` line removed. The bytes do not
depend on the BLAS thread count (``tests/test_cli.py`` runs 1 and 2
threads), but they do depend on the numpy, scipy and BLAS builds and on
the CPU kernels those pick at run time. So the file records the builds,
and under others the test fails naming both. Rewrite the file only for a
change meant to move an artifact, and say which moved and why.
"""
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package is in src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy

from axitherm.cli import RunConfig, solve_scenario, write_artifacts

DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"
H_LEVELS = (0.2, 0.1)
ISOLINE_LEVELS = [1423.0, 1000.0]
WALL_TIME = re.compile(rb'\n *"wall_time": [^\n]*')


def artifact_bytes(out: Path) -> dict:
    """The bytes of every file in ``out`` by name, less any wall_time
    line, the one part of a run's output that changes between runs."""
    return {p.name: WALL_TIME.sub(b"", p.read_bytes())
            for p in sorted(out.iterdir())}


def _blas(config) -> str:
    blas = config["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def builds() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np.show_config(mode="dicts")),
            "scipy_blas": _blas(scipy.show_config(mode="dicts"))}


def digests(h) -> dict:
    """sha256 of each artifact of a run at ``h``, written under the
    current directory."""
    out = f"h{h:g}"
    write_artifacts(solve_scenario(RunConfig(
        target_h=h, output_dir=out, isoline_levels=ISOLINE_LEVELS)))
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in artifact_bytes(Path(out)).items()}


def _all_digests():
    return {**builds(), **{f"h={h:g}": digests(h) for h in H_LEVELS}}


def test_artifact_digests_match_the_committed_file(tmp_path, monkeypatch):
    pinned = json.loads(DIGESTS.read_text())
    here = builds()
    written = {k: pinned.get(k) for k in here}
    assert written == here, (
        f"{DIGESTS.name} was written under {written}, this is {here}: "
        "rewrite it with --update")
    monkeypatch.chdir(tmp_path)
    got = _all_digests()
    moved = [f"{run} {name}" for run in got if run.startswith("h=")
             for name in sorted(got[run].keys() | pinned[run].keys())
             if got[run].get(name) != pinned[run].get(name)]
    assert got == pinned, (
        f"bytes differ from {DIGESTS.name}: {', '.join(moved)}. Under the "
        "same numpy, scipy and BLAS builds they also depend on the CPU "
        "kernels those pick at run time: on another CPU, rewrite the file "
        "with --update")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        DIGESTS.write_text(json.dumps(_all_digests(), indent=2) + "\n")
