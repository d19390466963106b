"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_counts.py
    python3 perfbench/test_counts.py --update   # rewrite counts_seed0.json

The per-layer counts of a traced run (Newton iterations, call counts,
LU matrix nonzeros, traction edges, bytes written, isoline points) must
equal the committed snapshot for seed 0 exactly, so a change that moves
any of them shows. Rewrite the snapshot only for a change meant to move
them, and say which counts moved and why.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SNAPSHOT = BENCH_DIR / "counts_seed0.json"
COUNT_UNITS = ("count", "bytes")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_run(workload, root=ROOT, seed=0, trace=1):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def counts_of(result):
    return {m["name"]: result["metrics"][m["name"]]["value"]
            for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_match_snapshot(workload):
    done = bench_run(workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counts_of(result) == json.loads(SNAPSHOT.read_text())[workload]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    done = bench_run(WORKLOADS[0], root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "extract_isoline can split one contour in two; see 'Known defects' "
    "in perfbench/README.md. When this passes, list hearth_sweep in "
    "BENCHMARK.json and remove this mark."))
def test_hearth_sweep_isolines_survive_reread():
    # Seed 2: at h = 0.14 the 1034.8 K contour is two polylines in the
    # run and one after the reread.
    done = bench_run("hearth_sweep", seed=2, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr


def update_snapshot():
    snapshot = {}
    for name in WORKLOADS:
        done = bench_run(name)
        result = json.loads(done.stdout.strip().splitlines()[-1]) \
            if done.returncode == 0 else {}
        if not result.get("correct"):
            raise SystemExit(f"{name}: traced run failed\n{done.stderr}")
        snapshot[name] = counts_of(result)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    update_snapshot()
