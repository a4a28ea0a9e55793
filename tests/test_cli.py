import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

import coilfringe
from coilfringe.cli import build_parser, main


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestReproducePaper:
    def test_exit_zero_and_rows(self, capsys):
        assert main(["reproduce-paper"]) == 0
        out = capsys.readouterr().out
        for name in ("p_mec", "p_add_coeff", "i_zero_field", "inverse_i_max"):
            assert name in out
        for tag in ("Eq2", "Eq4", "Eq5", "Eq10"):
            assert tag in out
        assert "FAIL" not in out

    def test_strict_profile_flags_inconsistent_rows(self, capsys):
        # the printed momentum endpoints are internally inconsistent, so
        # halving every band is expected to fail them
        assert main(["reproduce-paper", "--tolerance-profile", "strict"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_json_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        assert main(["reproduce-paper", "--format", "json", "--out", out_path]) == 0
        data = json.loads(read(out_path))
        assert data["all_ok"] is True
        assert len(data["rows"]) == 10

    def test_json_to_stdout_without_out(self, capsys):
        assert main(["reproduce-paper", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_ok"] is True
        assert len(data["rows"]) == 10

    def test_out_without_json_rejected(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.txt")
        assert main(["reproduce-paper", "--out", out_path]) == 2
        assert not os.path.exists(out_path)


class TestSweep:
    def test_current_sweep_with_fit_sidecar(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.csv")
        args = [
            "sweep", "--variable", "current",
            "--from", "-10", "--to", "10", "--step", "1",
            "--out", out_path,
        ]
        assert main(args) == 0
        lines = [l for l in read(out_path).splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 21  # header + rows
        fit = json.loads(read(out_path + ".fit.json"))
        assert float(fit["r_squared"]) >= 1 - 1e-12

    def test_determinism(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out_path in (a, b):
            main(["sweep", "--from", "-5", "--to", "5", "--step", "0.5", "--out", out_path])
        assert read(a) == read(b)
        assert read(a + ".fit.json") == read(b + ".fit.json")

    def test_single_point_rejected(self, tmp_path, capsys):
        out_path = str(tmp_path / "bad.csv")
        args = ["sweep", "--from", "1", "--to", "1", "--step", "1", "--out", out_path]
        assert main(args) == 2

    def test_model_domain_rows_marked(self, tmp_path, capsys):
        # far negative currents push the effective momentum negative
        out_path = str(tmp_path / "err.csv")
        args = ["sweep", "--from", "-30", "--to", "0", "--step", "10", "--out", out_path]
        assert main(args) == 0
        content = read(out_path)
        assert "model-domain-error" in content

    def test_voltage_sweep(self, tmp_path, capsys):
        out_path = str(tmp_path / "u.csv")
        args = [
            "sweep", "--variable", "voltage",
            "--from", "10000", "--to", "50000", "--step", "10000",
            "--out", out_path,
        ]
        assert main(args) == 0
        lines = [l for l in read(out_path).splitlines() if not l.startswith("#")]
        assert lines[0].startswith("U_V,")
        assert len(lines) == 6


class TestFieldMap:
    def test_ideal_coil_rows_identical(self, tmp_path, capsys):
        config = tmp_path / "ideal.json"
        config.write_text(json.dumps({"coil": {"type": "ideal"}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "2", "--out", out_path,
        ]
        assert main(args) == 0
        lines = [l for l in read(out_path).splitlines() if not l.startswith("#")]
        field_cols = {l.split(",", 3)[3] for l in lines[1:]}
        assert len(field_cols) == 1  # homogeneous: identical A on every row
        hom = json.loads(read(out_path + ".homogeneity.json"))
        assert float(hom["rel_error_vs_ideal"]) == 0.0

    @pytest.mark.parametrize(
        "region, grid",
        [
            ("-0.5,0.5,-0.5,0.5,-0.02,0.02", "2"),  # far outside the bore
            ("-0.02,0.02,-0.02,0.02,-0.02,0.02", "1"),
        ],
    )
    def test_ideal_coil_checks_region_and_grid(self, tmp_path, capsys, region, grid):
        config = tmp_path / "ideal.json"
        config.write_text(json.dumps({"coil": {"type": "ideal"}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            f"--region={region}", "--grid", grid, "--out", out_path,
        ]
        assert main(args) == 1
        assert not os.path.exists(out_path)
        assert not os.path.exists(out_path + ".homogeneity.json")

    def test_winding_map_and_homogeneity(self, tmp_path, capsys):
        config = tmp_path / "on.json"
        config.write_text(json.dumps({"current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "2", "--out", out_path,
        ]
        assert main(args) == 0
        hom = json.loads(read(out_path + ".homogeneity.json"))
        # default scenario has L/R2 = 100
        assert float(hom["rel_error_vs_ideal"]) <= 0.01

    def test_region_touching_winding_rejected(self, tmp_path, capsys):
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map",
            "--region=-0.1,0.1,-0.01,0.01,-0.01,0.01",
            "--grid", "2", "--out", out_path,
        ]
        assert main(args) == 1
        assert not os.path.exists(out_path)
        assert not os.path.exists(out_path + ".homogeneity.json")

    @pytest.mark.parametrize(
        "coil, grid",
        [
            ("ideal", "100000"),  # 1e15 points
            ("winding", "100"),  # 1e6 points, but 1e6 * 10056 segments
        ],
    )
    def test_work_limits(self, tmp_path, capsys, coil, grid):
        config = tmp_path / "on.json"
        config.write_text(json.dumps({"coil": {"type": coil}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", grid, "--out", out_path,
        ]
        assert main(args) == 2
        assert "exceeds" in capsys.readouterr().err
        assert not os.path.exists(out_path)
        assert not os.path.exists(out_path + ".homogeneity.json")

    def test_huge_length_rejected_before_any_array(self, tmp_path, capsys):
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"coil": {"L_m": 1e308}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "2", "--out", out_path,
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: segment endpoints must be finite\n"
        assert os.listdir(tmp_path) == ["long.json"]

    def test_zero_current_rejected_before_writing(self, tmp_path, capsys):
        # the default scenario has I = 0, where relative deviations are undefined
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map",
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "2", "--out", out_path,
        ]
        assert main(args) == 1
        assert not os.path.exists(out_path)
        assert not os.path.exists(out_path + ".homogeneity.json")


class TestDiffract:
    def test_csv_and_summary(self, tmp_path, capsys):
        out_path = str(tmp_path / "fringes.csv")
        assert main(["diffract", "--k-max", "3", "--out", out_path]) == 0
        lines = [l for l in read(out_path).splitlines() if not l.startswith("#")]
        assert lines[0] == "k,theta_k_rad,y_k_m,ring_radius_m"
        assert len(lines) == 1 + 4
        summary = json.loads(read(out_path + ".summary.json"))
        assert abs(float(summary["interfringe_m"]) - 2.776e-3) / 2.776e-3 < 0.003

    def test_json_format(self, tmp_path, capsys):
        out_path = str(tmp_path / "fringes.json")
        assert main(["diffract", "--format", "json", "--out", out_path]) == 0
        data = json.loads(read(out_path))
        assert len(data["orders"]) == 4
        assert "lambda_m" in data["summary"]


class TestValidateCoil:
    def test_default_scenario_valid(self, capsys):
        assert main(["validate-coil"]) == 0
        out = capsys.readouterr().out
        assert "constructible" in out
        assert "L/D" in out

    def test_infeasible_winding(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"coil": {"wire_diameter_m": 5e-3}}))
        assert main(["validate-coil", "--config", str(config)]) == 1

    def test_geometry_violation(self, tmp_path, capsys):
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"coil": {"L_m": 0.5}}))
        assert main(["validate-coil", "--config", str(config)]) == 1

    def test_huge_length_rejected_before_any_array(self, tmp_path, capsys):
        # 2*L + 2*(R2 - R1) overflows: no winding, and no numpy warnings
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"coil": {"type": "winding", "L_m": 1e308}}))
        assert main(["validate-coil", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(
            "winding NOT constructible: segment endpoints must be finite\n"
        )
        assert captured.err == ""

    def test_segment_limit(self, tmp_path, capsys):
        # about 2.5e9 segments at 4 per turn: a usage error, not a build
        config = tmp_path / "dense.json"
        config.write_text(
            json.dumps({"coil": {"turn_density_per_m": 1e9, "wire_diameter_m": 1e-9}})
        )
        assert main(["validate-coil", "--config", str(config)]) == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-3"])
    def test_geometry_factor_must_be_finite_and_positive(self, factor, capsys):
        assert main(["validate-coil", f"--geometry-factor={factor}"]) == 2
        captured = capsys.readouterr()
        assert "--geometry-factor" in captured.err
        assert captured.out == ""


class TestImport:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate takes most of a command's start-up time and only
        # the quadrature oracle needs it
        src = os.path.dirname(os.path.dirname(coilfringe.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, coilfringe.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.strip() == "False"

    def test_package_names_resolve_on_access(self):
        for name in coilfringe.__all__:
            module = coilfringe._MODULE_OF.get(name, "constants")
            obj = getattr(importlib.import_module(f"coilfringe.{module}"), name)
            assert getattr(coilfringe, name) is obj
        assert coilfringe.constants().e == 1.602176634e-19
        assert "field_at" in dir(coilfringe)
        with pytest.raises(AttributeError):
            coilfringe.no_such_name

    def test_scalar_commands_leave_numpy_unloaded(self, tmp_path):
        # only the array-making commands (sweep, field-map) need numpy
        src = os.path.dirname(os.path.dirname(coilfringe.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        runs = [
            ["reproduce-paper"],
            ["reproduce-paper", "--format", "json", "--out", "report.json"],
            ["diffract", "--out", "fringes.csv"],
            ["diffract", "--format", "json", "--out", "fringes.json"],
            ["validate-coil"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from coilfringe.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
        assert sorted(os.listdir(tmp_path)) == [
            "fringes.csv", "fringes.csv.summary.json", "fringes.json", "report.json"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["diffract"],
        ["sweep", "--from", "-1", "--to", "1", "--step", "1"],
        ["field-map", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02", "--grid", "2"],
        ["reproduce-paper", "--format", "json"],
    ],
)
def test_out_in_missing_directory_is_exit_2(tmp_path, capsys, argv):
    config = tmp_path / "ideal.json"
    config.write_text(json.dumps({"coil": {"type": "ideal"}, "current_A": 1.0}))
    out_path = str(tmp_path / "missing" / "x.csv")
    if argv[0] != "reproduce-paper":
        argv = argv + ["--config", str(config)]
    assert main(argv + ["--out", out_path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: cannot write {out_path}: ")
    assert os.listdir(tmp_path) == ["ideal.json"]


class TestConfigHandling:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        # reproduce-paper takes its setup from the built-in scenario and
        # has no --config; diffract reads it
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-paper", "--config", str(config)])
        assert exc.value.code == 2
        assert main(["diffract", "--config", str(config)]) == 2

    def test_config_dir_env(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "scen.json").write_text(json.dumps({"current_A": 1.0}))
        monkeypatch.setenv("COILFRINGE_CONFIG_DIR", str(tmp_path))
        assert main(["diffract", "--config", "scen.json"]) == 0
        out = capsys.readouterr().out
        assert "interfringe_m" in out


def test_each_subcommand_declares_only_the_options_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # option -> required, per subcommand
    options = {
        name: {
            opt: action.required
            for action in p._actions if action.dest != "help"
            for opt in action.option_strings
        }
        for name, p in sub.choices.items()
    }
    assert options == {
        "reproduce-paper": {"--out": False, "--format": False, "--tolerance-profile": False},
        "sweep": {
            "--config": False, "--out": True, "--variable": False,
            "--from": True, "--to": True, "--step": True,
        },
        "field-map": {
            "--config": False, "--out": True, "--region": True, "--grid": False,
            "--segments-per-turn": False,
        },
        "diffract": {"--config": False, "--out": False, "--format": False, "--k-max": False},
        "validate-coil": {"--config": False, "--geometry-factor": False},
    }

