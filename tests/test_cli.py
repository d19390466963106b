"""Command-line interface tests."""
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import axitherm
from axitherm import cli, hearth
from axitherm.cli import (RunConfig, main, run_scenario, solve_scenario,
                          write_artifacts)
from axitherm.fem_core import ConvergenceError
from axitherm.mechanical import solve_mechanical
from axitherm.mesh import BoundaryTag, load_mesh, save_mesh
from axitherm.thermal import newton_solve

from test_artifact_digests import artifact_bytes


def _with_t(row, value):
    """A fields.csv row with its T column set to ``value``."""
    node, r, y, _, *rest = row.split(",")
    return ",".join([node, r, y, value, *rest])


class TestRunConfig:
    def test_four_fields(self):
        assert list(RunConfig.__dataclass_fields__) == [
            "mesh_file", "target_h", "output_dir", "isoline_levels"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"target_h": 0.5, "isoline_levels": [7]}))
        config = RunConfig.from_file(path)
        assert config.target_h == 0.5
        assert config.isoline_levels == [7]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mesh_size": 0.5}))
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_file(path)

    def test_solver_key_rejected(self, tmp_path):
        # sparse LU is the only linear solver; the key is gone
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"target_h": 0.5, "solver": "lu"}))
        with pytest.raises(ValueError,
                           match=r"unknown config keys: \['solver'\]"):
            RunConfig.from_file(path)

    # run_scenario checks each value where it is used, and a bad one
    # fails the run before its output directory is created
    def test_validate_rejects_bad_values(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="target_h"):
            run_scenario(RunConfig(target_h=-1.0, output_dir=str(out)))
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(FileNotFoundError, match=re.escape(missing)):
            run_scenario(RunConfig(mesh_file=missing, output_dir=str(out)))
        with pytest.raises(ValueError, match="finite"):
            run_scenario(RunConfig(target_h=0.5, output_dir=str(out),
                                   isoline_levels=[float("nan")]))
        assert not out.exists()

    def test_validate_rejects_non_finite_target_h(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="target_h must be finite"):
            run_scenario(RunConfig(target_h=float("nan"), output_dir=str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("target_h", "0.1"),
        ("isoline_levels", 1423),
        ("isoline_levels", ["1423"]),
        ("mesh_file", 3),
    ])
    def test_from_file_rejects_wrong_types(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            RunConfig.from_file(path)

    def test_json_round_trip(self, tmp_path):
        config = RunConfig(target_h=0.3, isoline_levels=[1423.0])
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert RunConfig.from_file(path) == config


@pytest.fixture(scope="module")
def coarse_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = RunConfig(target_h=0.5, output_dir=str(out),
                       isoline_levels=[1423.0])
    summary = run_scenario(config)
    return out, summary


class TestRunScenario:
    def test_summary_contents(self, coarse_run):
        _, summary = coarse_run
        assert summary["displacement_dofs"] == 2 * summary["temperature_dofs"]
        assert summary["newton_iterations"] <= 25
        assert summary["final_residual"] <= 1e-4
        lo, hi = summary["T_range"]
        assert lo >= 300.0 - 1e-6
        assert hi <= 1773.0 + 1e-6

    def test_artifacts_exist(self, coarse_run):
        out, _ = coarse_run
        for name in ("mesh.txt", "thermal_report.json",
                     "mechanical_report.json", "solution.vtk", "fields.csv",
                     "isoline_1423K.csv", "config.json"):
            assert (out / name).exists(), name

    def test_vtk_fields_parse(self, coarse_run, parse_vtk):
        out, summary = coarse_run
        parsed = parse_vtk((out / "solution.vtk").read_text())
        n = summary["nodes"]
        assert parsed["point_data"]["temperature"].shape == (n,)
        assert parsed["point_data"]["displacement"].shape == (n, 3)
        assert "stress_tt" in parsed["cell_data"]

    def test_deterministic_artifacts(self, coarse_run, tmp_path):
        out, _ = coarse_run
        config = RunConfig(target_h=0.5, output_dir=str(tmp_path),
                           isoline_levels=[1423.0])
        run_scenario(config)
        for name in ("mesh.txt", "solution.vtk", "fields.csv",
                     "isoline_1423K.csv"):
            assert (tmp_path / name).read_text() == (out / name).read_text()

    def test_artifact_modes_match_open(self, tmp_path):
        # every file of a run and of its reread gets the mode that open()
        # gives a new file in the same directory under the same umask
        run, iso = tmp_path / "run", tmp_path / "iso"
        old = os.umask(0o027)
        try:
            run_scenario(RunConfig(target_h=0.5, output_dir=str(run),
                                   isoline_levels=[1423.0]))
            assert main(["isoline", "--mesh-file", str(run / "mesh.txt"),
                         "--csv", str(run / "fields.csv"),
                         "--isoline", "1000", "--out", str(iso)]) == 0
            for out in (run, iso):
                open(out / "by_open", "w").close()
        finally:
            os.umask(old)
        files = sorted(run.iterdir()) + sorted(iso.iterdir())
        # seven run artifacts and one reread isoline, besides by_open
        assert len(files) == 8 + 2
        for path in files:
            assert path.stat().st_mode == \
                (path.parent / "by_open").stat().st_mode, path.name

    def test_solve_writes_nothing(self, tmp_path):
        run = solve_scenario(RunConfig(target_h=0.5,
                                       output_dir=str(tmp_path / "out"),
                                       isoline_levels=[1423.0]))
        assert not (tmp_path / "out").exists()
        assert list(run.isolines) == ["isoline_1423K.csv"]

    def test_solve_then_write_is_the_run(self, tmp_path):
        def files():
            # the solve reports differ in their wall times only
            out = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            for name in ("thermal_report.json", "mechanical_report.json"):
                out[name] = json.loads(out[name])
                out[name].pop("wall_time")
            return out

        config = RunConfig(target_h=0.5, output_dir=str(tmp_path),
                           isoline_levels=[1423.0])
        run_scenario(config)
        by_run = files()
        shutil.rmtree(tmp_path)
        write_artifacts(solve_scenario(config))
        assert files() == by_run

    def test_run_owns_its_config(self, tmp_path):
        # the caller's config changing between solve and write does not
        # reach the files of the run
        config = RunConfig(target_h=0.5, output_dir=str(tmp_path),
                           isoline_levels=[1423.0])
        run = solve_scenario(config)
        config.isoline_levels.append(1000.0)
        write_artifacts(run)
        written = json.loads((tmp_path / "config.json").read_text())
        assert written["isoline_levels"] == [1423.0]
        assert sorted(p.name for p in tmp_path.glob("isoline_*")) == \
            ["isoline_1423K.csv"]
        for field in (run.T, run.u, run.stress):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0

    def test_failed_run_leaves_output_dir_as_it_was(self, tmp_path,
                                                    monkeypatch):
        # a run that fails after meshing must not leave a mesh.txt that
        # the fields.csv of the earlier run does not belong to
        run_scenario(RunConfig(target_h=0.5, output_dir=str(tmp_path),
                               isoline_levels=[1423.0]))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args, **kwargs):
            raise ConvergenceError("mechanical solve failed")

        monkeypatch.setattr(cli, "solve_mechanical", fail)
        with pytest.raises(ConvergenceError, match="mechanical solve failed"):
            run_scenario(RunConfig(target_h=0.4, output_dir=str(tmp_path)))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.fixture(scope="module")
def cold_solve():
    """The h = 0.1 hearth solved from the uniform start, and its max |u|."""
    mesh = hearth.hearth_mesh(0.1)
    materials = hearth.build_hearth_materials()
    T, report = newton_solve(mesh, materials, hearth.hearth_thermal_bc())
    u, _ = solve_mechanical(mesh, materials, hearth.hearth_mechanical_bc(), T)
    return mesh, T, report, float(np.linalg.norm(u, axis=1).max())


class TestCoarseStart:
    def test_fine_run_starts_from_the_coarse_solution(self, cold_solve,
                                                      tmp_path, monkeypatch):
        mesh, T_cold, cold_report, u_cold = cold_solve
        solves = []

        def recording(mesh, *args, **kwargs):
            result = newton_solve(mesh, *args, **kwargs)
            solves.append((mesh, kwargs.get("start"), result[0]))
            return result

        monkeypatch.setattr(cli, "newton_solve", recording)
        summary = run_scenario(RunConfig(target_h=0.1, output_dir=str(tmp_path)))
        (coarse, cold_start, _), (fine, start, T) = solves
        assert np.array_equal(coarse.nodes,
                              hearth.hearth_mesh(hearth.COARSE_H).nodes)
        assert cold_start is None and start is not None
        assert np.array_equal(fine.nodes, mesh.nodes)
        assert np.abs(T - T_cold).max() <= 1e-6
        assert summary["max_displacement"] == pytest.approx(u_cold, rel=1e-8)
        report = json.loads((tmp_path / "thermal_report.json").read_text())
        # the warm start spares the LUs the cold solve re-factors for
        assert report["factorizations"] == 1 < cold_report.factorizations
        # the coarse solve that gave the start is kept in the same file
        assert report["coarse_start"]["converged"] is True
        assert report["coarse_start"]["iterations"] >= 1
        assert report["coarse_start"]["coarse_start"] is None

    def test_run_at_the_cutover_starts_cold(self):
        run = solve_scenario(RunConfig(target_h=hearth.COARSE_START_H))
        _, cold_report = newton_solve(run.mesh, hearth.build_hearth_materials(),
                                      hearth.hearth_thermal_bc())
        report = run.thermal_report
        assert report.residuals[0] == cold_report.residuals[0]
        assert report.iterations == cold_report.iterations
        assert report.coarse_start is None

    def test_mesh_file_run_starts_cold(self, cold_solve, tmp_path):
        mesh, _, cold_report, _ = cold_solve
        save_mesh(mesh, tmp_path / "mesh.txt")
        report = solve_scenario(
            RunConfig(mesh_file=str(tmp_path / "mesh.txt"))).thermal_report
        assert report.residuals[0] == cold_report.residuals[0]
        assert report.iterations == cold_report.iterations
        assert report.coarse_start is None


def test_cli_import_leaves_out_sympy():
    # only `verify` and `fit-materials` need verification, and with it
    # sympy; every other subcommand starts without them
    src = str(Path(axitherm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, axitherm.cli; "
         "print(sorted({'sympy', 'axitherm.verification'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_outputs_under_one_and_two_blas_threads(tmp_path):
    # every artifact, and each solve report less its wall_time, is the
    # same byte for byte under 1 and 2 BLAS threads. np.linalg.norm of a
    # vector is a BLAS ddot, which sums in an order that depends on the
    # thread count; the solvers' stopping tests therefore use
    # fem_core._norm. h = 0.05 is the coarsest hearth mesh on which that
    # norm was seen to move u.
    src = str(Path(axitherm.__file__).resolve().parents[1])
    files = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-c",
             "import sys, axitherm.cli; sys.exit(axitherm.cli.main())",
             "solve", "--h", "0.05", "--isoline", "1423", "--out", "out"],
            cwd=cwd, env=env, capture_output=True, text=True, check=True)
        files[threads] = artifact_bytes(cwd / "out")
    assert sorted(files["1"]) == [
        "config.json", "fields.csv", "isoline_1423K.csv",
        "mechanical_report.json", "mesh.txt", "solution.vtk",
        "thermal_report.json"]
    for name, data in files["1"].items():
        assert data == files["2"][name], name


class TestMain:
    def test_mesh_subcommand(self, tmp_path, capsys):
        rc = main(["mesh", "--h", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "nodes:" in captured
        assert (tmp_path / "mesh.txt").exists()

    def test_solve_subcommand(self, tmp_path, capsys):
        rc = main(["solve", "--h", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert "newton_iterations:" in capsys.readouterr().out
        assert (tmp_path / "solution.vtk").exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.4, "output_dir": "ignored"}))
        out = tmp_path / "out"
        rc = main(["mesh", "--config", str(cfg), "--h", "0.5",
                   "--out", str(out)])
        assert rc == 0
        # the mesh written at h=0.5 must differ from one written at h=0.4
        other = tmp_path / "other"
        main(["mesh", "--config", str(cfg), "--out", str(other)])
        assert ((out / "mesh.txt").read_text()
                != (other / "mesh.txt").read_text())

    def test_flags_reach_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--h", "0.5", "--out", str(out),
                   "--isoline", "1423"])
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert config == dict(
            json.loads(RunConfig().to_json()), target_h=0.5,
            output_dir=str(out), isoline_levels=[1423.0])
        assert (out / "isoline_1423K.csv").exists()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        usage = capsys.readouterr().out
        for flag in ("--h H", "--out OUT", "--isoline ISOLINE"):
            assert flag in usage

    def test_isoline_subcommand(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert main(["solve", "--h", "0.5", "--out", str(run_out)]) == 0
        iso_out = tmp_path / "iso"
        rc = main(["isoline", "--mesh-file", str(run_out / "mesh.txt"),
                   "--csv", str(run_out / "fields.csv"),
                   "--isoline", "1423", "--out", str(iso_out)])
        assert rc == 0
        text = (iso_out / "isoline_1423K.csv").read_text()
        assert text.startswith("polyline,r,y\n")
        assert len(text.strip().split("\n")) > 2

    # a second level that fails is rejected before the first is written
    @pytest.mark.parametrize("edit, levels, match", [
        (lambda rows: rows[:-1], ["1423"], r"has \d+ rows for \d+ nodes"),
        (lambda rows: rows + [rows[-1]], ["1423"],
         r"has \d+ rows for \d+ nodes"),
        (lambda rows: rows, ["nan"], "level must be finite, not nan"),
    (lambda rows: rows[:4] + [_with_t(rows[4], "nan")] + rows[5:], ["1423"],
     "node 4 has a non-finite value: nan"),
        (lambda rows: rows, ["1423", "nan"], "level must be finite, not nan"),
        (lambda rows: rows, ["1423", "1423.0000001"],
         r"levels 1423\.0 and 1423\.0000001 would both be written to "
         r"isoline_1423K\.csv"),
    ], ids=["too-few-rows", "too-many-rows", "nan-level", "nan-value",
            "1423-then-nan",
            "levels-sharing-a-file-name"])
    def test_isoline_rejects_foreign_input(self, coarse_run, tmp_path, capsys,
                                           edit, levels, match):
        out, summary = coarse_run
        header, *rows = (out / "fields.csv").read_text().splitlines()
        csv = tmp_path / "fields.csv"
        csv.write_text("\n".join([header] + edit(rows)) + "\n")
        flags = [arg for level in levels for arg in ("--isoline", level)]
        rc = main(["isoline", "--mesh-file", str(out / "mesh.txt"),
                   "--csv", str(csv), *flags, "--out", str(tmp_path / "iso")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(match, err), err
        if "rows" in match:
            assert f"for {summary['nodes']} nodes" in err
        assert not (tmp_path / "iso").exists()

    def test_fit_materials_subcommand(self, capsys):
        rc = main(["fit-materials"])
        out = capsys.readouterr().out
        assert "coefficients compared" in out
        # printed table disagrees with the fit for several rows, so the
        # command reports failure
        assert rc == 1

    def test_verify_materials_subcommand(self, capsys):
        rc = main(["verify", "--suite", "materials"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "material fits: 8/8" in out
        assert "20/56 agree (information only)" in out

    def test_verify_materials_fails_on_broken_fit(self, monkeypatch, capsys):
        fit = hearth.hearth_conductivity

        def broken(sid):
            # a fit that misses one of subdomain 2's samples
            if sid != 2:
                return fit(sid)
            values = list(hearth.CONDUCTIVITY_SAMPLES[2])
            values[1] *= 1.001
            return hearth.fit_piecewise_quadratic(
                list(zip(hearth.CONDUCTIVITY_SAMPLE_TEMPS, values)),
                hearth.PROPERTY_T_MAX)

        monkeypatch.setattr(hearth, "hearth_conductivity", broken)
        rc = main(["verify", "--suite", "materials"])
        assert rc == 1
        assert "FAIL: k2" in capsys.readouterr().out

    def test_verify_annulus_subcommand(self, capsys):
        rc = main(["verify", "--suite", "annulus"])
        assert rc == 0
        assert "annulus" in capsys.readouterr().out

    def test_bad_value_exits_2(self, capsys):
        rc = main(["mesh", "--h", "-0.5", "--out", "unused"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_levels_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--h", "0.5", "--isoline", "1423",
                   "--isoline", "1423.0000001", "--out", str(out)])
        assert rc == 2
        assert ("isoline levels 1423.0 and 1423.0000001 would both be "
                "written to isoline_1423K.csv") in capsys.readouterr().err
        assert not out.exists()

    def test_nan_h_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--h", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "target_h must be finite" in capsys.readouterr().err

    def test_non_finite_mesh_node_exits_2(self, tmp_path, capsys):
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        path = tmp_path / "mesh.txt"
        lines = path.read_text().splitlines()
        lines[2] = "nan 0.0"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--mesh-file", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "node 0 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "mesh"])
    @pytest.mark.parametrize("flags, messages", [
        (["--h", "0.05"], ["target_h 0.05 does not apply to mesh file",
                           "default 0.1"]),
    ], ids=["h"])
    def test_mesh_file_rejects_scenario_and_h(self, tmp_path, capsys, command,
                                              flags, messages):
        # a mesh file fixes the mesh, so a size that the run would not
        # use is an error rather than a false record
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        out = tmp_path / "run"
        rc = main([command, "--mesh-file", str(tmp_path / "mesh.txt"), *flags,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(m in err for m in messages)
        assert not out.exists()

    @pytest.mark.parametrize("defect, message", [
        ("untagged", "tag one of bottom, outer, top, inner, axis, "
                     "interface, got '{i} {j} untagged'"),
        ("repeated", "boundary edge ({i}, {j}) is listed twice"),
        ("interior", "boundary edge ({i}, {j}) is shared by two triangles"),
        ("exterior", "missing exterior edge ({i}, {j})"),
        ("dropped", "missing exterior edge ({i}, {j})"),
    ], ids=["untagged", "repeated", "interior", "exterior", "dropped"])
    def test_boundary_rows_that_change_the_answer_exit_2(
            self, tmp_path, capsys, defect, message):
        # each file was once solved: with a hot edge untagged, with one
        # edge's load counted twice, with a load inside the wall, with the
        # hot face declared an interface, or with one hot edge left out
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        mesh = load_mesh(tmp_path / "mesh.txt")
        edges = list(mesh.boundary_edges)
        i, j, _ = next(e for e in edges if e[2] is BoundaryTag.INNER)
        if defect == "exterior":
            edges = [(a, b, BoundaryTag.INTERFACE if t is BoundaryTag.INNER
                      else t) for a, b, t in edges]
        elif defect == "repeated":
            # in the other orientation, which names the edge as listed
            i, j = j, i
            edges.append((i, j, BoundaryTag.INNER))
        elif defect == "interior":
            # the diagonal of the first cell, shared by its two triangles
            i, _, j = sorted(mesh.triangles[0].tolist())
            edges.append((i, j, BoundaryTag.INNER))
        elif defect == "dropped":
            edges.remove((i, j, BoundaryTag.INNER))
        path = tmp_path / "bad.txt"
        save_mesh(replace(mesh, boundary_edges=edges), path)
        if defect == "untagged":
            # no Mesh holds an untagged row, so it is written as text
            path.write_text(path.read_text().replace(
                f"\n{i} {j} inner\n", f"\n{i} {j} untagged\n"))
        out = tmp_path / "run"
        rc = main(["solve", "--mesh-file", str(path), "--out", str(out)])
        assert rc == 2
        assert message.format(i=i, j=j) in capsys.readouterr().err
        assert not out.exists()

    def test_edge_of_three_triangles_exits_2(self, tmp_path, capsys):
        # a repeated interior triangle, each of whose edges then lies on
        # three triangles, was once solved
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        mesh = load_mesh(tmp_path / "mesh.txt")
        k = mesh.triangles.tolist().index([1, 7, 8])
        path = tmp_path / "bad.txt"
        save_mesh(replace(mesh, triangles=np.insert(mesh.triangles, k,
                                                    mesh.triangles[k], axis=0),
                          tri_subdomain=np.insert(mesh.tri_subdomain, k,
                                                  mesh.tri_subdomain[k])),
                  path)
        out = tmp_path / "run"
        rc = main(["solve", "--mesh-file", str(path), "--out", str(out)])
        assert rc == 2
        assert ("edge (1, 7) lies on more than two triangles"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "mesh", "isoline"])
    @pytest.mark.parametrize("defect, message", [
        ("short", "content after the boundary_edges section: '{row}'"),
        ("trailing", "content after the boundary_edges section: 'hello world'"),
        ("unused", "node {n} lies on no triangle"),
        ("dropped", "missing exterior edge ({i}, {j})"),
    ], ids=["short", "trailing", "unused", "dropped"])
    def test_every_reader_of_a_mesh_file_rejects_it(self, tmp_path, capsys,
                                                    command, defect, message):
        # each file was once read without a word: a boundary_edges count
        # one short ignored its last row, trailing text was ignored, and
        # a node on no triangle gave an empty, singular matrix row
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        mesh = load_mesh(tmp_path / "mesh.txt")
        n, edges = mesh.num_nodes, list(mesh.boundary_edges)
        i, j, _ = edges[0]
        if defect == "dropped":
            save_mesh(replace(mesh, boundary_edges=edges[1:]),
                      tmp_path / "mesh.txt")
        lines = (tmp_path / "mesh.txt").read_text().splitlines()
        if defect == "short":
            lines[-len(edges) - 1] = f"boundary_edges {len(edges) - 1}"
        elif defect == "trailing":
            lines.append("hello world")
        elif defect == "unused":
            lines[1] = f"nodes {n + 1}"
            lines.insert(2 + n, "9.0 9.0")
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        files = {"solve": [], "mesh": [],
                 "isoline": ["--csv", str(path), "--isoline", "1423"]}
        rc = main([command, "--mesh-file", str(path), *files[command],
                   "--out", str(out)])
        assert rc == 2
        assert (message.format(row=lines[-1], n=n, i=i, j=j)
                in capsys.readouterr().err)
        assert not out.exists()

    def test_interface_rows_of_older_files_are_dropped(self, tmp_path):
        # files written before the interface rows were dropped list, in
        # key order, an extra row for each edge between two subdomains
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        mesh = load_mesh(tmp_path / "mesh.txt")
        sides = {}
        for tri, sub in zip(mesh.triangles.tolist(),
                            mesh.tri_subdomain.tolist()):
            for a, b in zip(tri, tri[1:] + tri[:1]):
                sides.setdefault((min(a, b), max(a, b)), set()).add(sub)
        interface = [(a, b, BoundaryTag.INTERFACE)
                     for (a, b), subs in sides.items() if len(subs) == 2]
        assert interface
        old = tmp_path / "old.txt"
        save_mesh(replace(mesh, boundary_edges=sorted(
            [*mesh.boundary_edges, *interface])), old)
        back = load_mesh(old)
        assert back.boundary_edges == mesh.boundary_edges
        for path, out in ((tmp_path / "mesh.txt", "new"), (old, "old")):
            assert main(["solve", "--mesh-file", str(path),
                         "--out", str(tmp_path / out)]) == 0
        for name in ("fields.csv", "solution.vtk"):
            assert ((tmp_path / "old" / name).read_bytes()
                    == (tmp_path / "new" / name).read_bytes())
        # the mesh command rewrites an older file without them
        assert main(["mesh", "--mesh-file", str(old),
                     "--out", str(tmp_path / "rewritten")]) == 0
        assert ((tmp_path / "rewritten" / "mesh.txt").read_bytes()
                == (tmp_path / "mesh.txt").read_bytes())

    def test_case_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--case", "hearth", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --case" in capsys.readouterr().err

    # the Newton settings live in axitherm.thermal alone
    @pytest.mark.parametrize("flag, value", [("--newton-tol", "1e-5"),
                                             ("--newton-max-iter", "30")])
    def test_newton_flags_are_gone(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", flag, value, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("scenario", "hearth"),
                                            ("initial_guess", 300.0),
                                            ("newton_tol", 1e-4),
                                            ("newton_max_iter", 25)])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": 0.5, key: value}))
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": "0.1"}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "target_h must be a number" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("command, message", [
        ("solve", "Is a directory"),
        ("mesh", "File exists"),
        ("isoline", "Is a directory"),
    ])
    def test_os_error_on_a_given_path_exits_2(self, tmp_path, capsys,
                                              command, message):
        # each once exited 1, as a solver failure does
        assert main(["mesh", "--h", "0.5", "--out", str(tmp_path)]) == 0
        folder, taken = tmp_path / "folder", tmp_path / "taken"
        folder.mkdir()
        taken.write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "run"
        argv, path = {
            "solve": (["--mesh-file", str(folder), "--out", str(out)], folder),
            "mesh": (["--h", "0.5", "--out", str(taken)], taken),
            "isoline": (["--mesh-file", str(tmp_path / "mesh.txt"),
                         "--csv", str(folder), "--isoline", "1423",
                         "--out", str(out)], folder),
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and f"'{path}'" in err, err
        assert sorted(tmp_path.rglob("*")) == before
        assert taken.read_text() == "kept\n"
