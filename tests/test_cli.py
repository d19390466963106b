"""Command-line interface tests."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import axitherm
from axitherm import materials
from axitherm.cli import RunConfig, main, run_scenario
from axitherm.materials import CONDUCTIVITY_KNOTS


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.scenario == "hearth"
        config.validate()

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"target_h": 0.5, "newton_max_iter": 7}))
        config = RunConfig.from_file(path)
        assert config.target_h == 0.5
        assert config.newton_max_iter == 7
        assert config.scenario == "hearth"

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

    def test_validate_rejects_bad_values(self, tmp_path):
        with pytest.raises(ValueError, match="target_h"):
            RunConfig(target_h=-1.0).validate()
        with pytest.raises(ValueError, match="mesh file"):
            RunConfig(mesh_file=str(tmp_path / "missing.txt")).validate()
        with pytest.raises(ValueError, match="finite"):
            RunConfig(isoline_levels=[float("nan")]).validate()

    def test_validate_rejects_non_finite_target_h(self):
        with pytest.raises(ValueError, match="target_h must be finite"):
            RunConfig(target_h=float("nan")).validate()

    @pytest.mark.parametrize("key, value", [
        ("target_h", "0.1"),
        ("isoline_levels", 1423),
        ("isoline_levels", ["1423"]),
        ("newton_max_iter", 2.5),
        ("mesh_file", 3),
    ])
    def test_from_file_rejects_wrong_types(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("field, value, match", [
        ("initial_guess", float("nan"), "initial_guess"),
        ("initial_guess", float("inf"), "initial_guess"),
        ("newton_tol", 0.0, "newton_tol"),
        ("newton_tol", -1e-4, "newton_tol"),
        ("newton_max_iter", 0, "newton_max_iter"),
    ])
    def test_validate_rejects_bad_newton_settings(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**{field: value}).validate()

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

    def test_unknown_scenario(self, tmp_path):
        config = RunConfig(scenario="ladle", output_dir=str(tmp_path))
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario(config)


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

    @pytest.mark.parametrize("edit, level, match", [
        (lambda rows: rows[:-1], "1423", r"has \d+ rows for \d+ nodes"),
        (lambda rows: rows + [rows[-1]], "1423", r"has \d+ rows for \d+ nodes"),
        (lambda rows: rows, "nan", "level must be finite, not nan"),
    ], ids=["too-few-rows", "too-many-rows", "nan-level"])
    def test_isoline_rejects_foreign_input(self, coarse_run, tmp_path, capsys,
                                           edit, level, match):
        out, summary = coarse_run
        header, *rows = (out / "fields.csv").read_text().splitlines()
        csv = tmp_path / "fields.csv"
        csv.write_text("\n".join([header] + edit(rows)) + "\n")
        rc = main(["isoline", "--mesh-file", str(out / "mesh.txt"),
                   "--csv", str(csv), "--isoline", level,
                   "--out", str(tmp_path / "iso")])
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

    @pytest.mark.parametrize("knots, scale", [
        ((293.0, 700.0, 1800.0), 1.0),    # middle knot off the midpoint
        (CONDUCTIVITY_KNOTS, 1.001),      # fit misses a sample
    ])
    def test_verify_materials_fails_on_broken_fit(self, monkeypatch, capsys,
                                                  knots, scale):
        fit = materials.hearth_conductivity

        def broken(sid):
            if sid != 2:
                return fit(sid)
            values = list(materials.CONDUCTIVITY_SAMPLES[2])
            values[1] *= scale
            return materials.fit_piecewise_quadratic(
                list(zip(materials.CONDUCTIVITY_SAMPLE_TEMPS, values)), knots)

        monkeypatch.setattr(materials, "hearth_conductivity", broken)
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

    def test_mistyped_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target_h": "0.1"}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "target_h must be a number" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
