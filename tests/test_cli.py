import argparse
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys

import pytest

import coilfringe
from coilfringe.cli import build_parser, main
from coilfringe.diffraction import MAX_ORDERS
from coilfringe.report import reproduce_paper
from coilfringe.scenario import geometry_ratios, paper_scenario


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class FullStdout:  # a stream with no fileno, whose every write fails
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


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

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="^unknown tolerance profile 'x'$"):
            reproduce_paper(profile="x")

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


CURRENTS = ["--from", "-1", "--to", "1", "--step", "0.5"]
VOLTAGES = ["--variable", "voltage", "--from", "1000", "--to", "3000", "--step", "1000"]


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

    def test_sweep_without_fit_removes_stale_fit_sidecar(self, tmp_path, capsys, monkeypatch):
        # a voltage sweep has no fit, so the current sweep's sidecar
        # would no longer describe the CSV it sits beside
        out_path = str(tmp_path / "s.csv")
        assert main(["sweep", *CURRENTS, "--out", out_path]) == 0
        assert os.path.exists(out_path + ".fit.json")
        assert main(["sweep", *VOLTAGES, "--out", out_path]) == 0
        assert read(out_path).startswith("# sweep_variable = voltage\n")
        assert os.listdir(tmp_path) == ["s.csv"]
        assert main(["sweep", *VOLTAGES, "--out", out_path]) == 0  # nothing to remove
        assert os.listdir(tmp_path) == ["s.csv"]
        # a sidecar that cannot be removed fails the run, which then
        # leaves none of its files
        os.mkdir(out_path + ".fit.json")
        capsys.readouterr()
        assert main(["sweep", *VOLTAGES, "--out", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: cannot remove {out_path}.fit.json: Is a directory\n"
        )
        assert os.listdir(tmp_path) == ["s.csv.fit.json"]
        # a failed stdout removes the new CSV, and so leaves no sidecar
        # beside no CSV either
        os.rmdir(out_path + ".fit.json")
        assert main(["sweep", *CURRENTS, "--out", out_path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["sweep", *VOLTAGES, "--out", out_path]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            "configuration error: cannot write stdout: No space left on device\n"
        )
        assert os.listdir(tmp_path) == []

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


    @pytest.mark.parametrize(
        "scenario, span, message",
        [
            ({"grating_screen": {"a_m": 1e300}}, CURRENTS, "overflow encountered in divide"),
            ({"grating_screen": {"D_m": 1e-300}}, CURRENTS, "overflow encountered in matmul"),
            ({"current_A": 1e308}, VOLTAGES, "overflow encountered in divide"),
            # the interfringe underflows to 0
            ({"grating_screen": {"D_m": 1e-320}}, CURRENTS, "divide by zero encountered in divide"),
            # lstsq returns an inf coefficient without raising
            (
                {"beam": {"U_V": 3.4e-312}, "grating_screen": {"a_m": 1e289, "D_m": 1e-10}},
                ["--from", "1e-157", "--to", "3e-157", "--step", "1e-157"],
                "the fit is not finite",
            ),
        ],
        ids=["a_m", "D_m", "current_A", "D_m-subnormal", "fit"],
    )
    def test_overflow_rejected(self, tmp_path, capsys, scenario, span, message):
        # the inverse interfringe, or the fit or its sums of squares, pass the
        # float range; the suite's "error" warning filter fails any warning
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps(scenario))
        args = ["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")] + span
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep values overflow the float range ({message})\n"
        assert os.listdir(tmp_path) == ["extreme.json"]


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

    def test_max_B_magnitude_is_even_in_current(self, tmp_path, capsys):
        def max_B(current):
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"current_A": current}))
            out_path = str(tmp_path / "map.csv")
            assert main(["field-map", "--config", str(config),
                         "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
                         "--grid", "2", "--out", out_path]) == 0
            return float(json.loads(read(out_path + ".homogeneity.json"))["max_B_magnitude"])

        negative = max_B(-3.3)
        assert negative >= 0
        assert negative == max_B(3.3)

    @pytest.mark.parametrize("region", ["-0.02,0.02,-0.02,0.02,-0.02", "0,1,0,1,0,1,0"])
    def test_region_of_other_than_six_values_rejected(self, tmp_path, capsys, region):
        out_path = str(tmp_path / "m.csv")
        assert main(["field-map", f"--region={region}", "--out", out_path]) == 2
        assert capsys.readouterr().err == "usage error: region must be x0,x1,y0,y1,z0,z1\n"
        assert os.listdir(tmp_path) == []

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
            # 1e6 points, but 1e6 * 10056 segments: the region reaches
            # r = 0.99 * R1, where each layer needs all of its turns
            ("winding", "100"),
        ],
    )
    def test_work_limits(self, tmp_path, capsys, coil, grid):
        config = tmp_path / "on.json"
        config.write_text(json.dumps({"coil": {"type": coil}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.07,0.07,-0.07,0.07,-0.02,0.02",
            "--grid", grid, "--out", out_path,
        ]
        assert main(args) == 2
        assert "exceeds" in capsys.readouterr().err
        assert not os.path.exists(out_path)
        assert not os.path.exists(out_path + ".homogeneity.json")

    @pytest.mark.parametrize(
        "region, message",
        [
            ("-0.01,0.01,-0.01,0.01,-inf,inf", "box corners must be finite"),
            ("-0.01,0.01,-0.01,0.01,nan,0.01", "box corners must be finite"),
            # finite corners, but hi - lo overflows
            ("-0.01,0.01,-0.01,0.01,-1e308,1e308", "box extent hi - lo must be finite on every axis"),
        ],
        ids=["inf", "nan", "overflow"],
    )
    def test_non_finite_region_rejected(self, tmp_path, capsys, region, message):
        config = tmp_path / "ideal.json"
        config.write_text(json.dumps({"coil": {"type": "ideal"}, "current_A": 1.0}))
        args = [
            "field-map", "--config", str(config), f"--region={region}", "--grid", "2",
            "--out", str(tmp_path / "map.csv"),
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"
        assert os.listdir(tmp_path) == ["ideal.json"]

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

    @pytest.mark.parametrize("coil", ["ideal", "winding"])
    def test_segments_per_turn_checked_for_both_coil_types(self, tmp_path, capsys, coil):
        config = tmp_path / "on.json"
        config.write_text(json.dumps({"coil": {"type": coil}, "current_A": 1.0}))
        out_path = str(tmp_path / "map.csv")
        args = [
            "field-map", "--config", str(config),
            "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "2", "--segments-per-turn", "3", "--out", out_path,
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: segments_per_turn must be a positive multiple of 4, got 3\n"
        )
        assert os.listdir(tmp_path) == ["on.json"]

    @pytest.mark.parametrize("current", [1e-300, -1e-300, 1e308, -1e308])
    def test_extreme_currents_give_finite_statistics(self, tmp_path, capsys, current):
        # the report is taken at 1 A and scaled by I once, so nothing over-
        # or underflows (a warning fails the test) and the relative figures
        # are those of the 1 A run
        def field_map(I, name):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"current_A": I}))
            out_path = str(tmp_path / f"{name}.csv")
            args = [
                "field-map", "--config", str(config),
                "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
                "--grid", "2", "--out", out_path,
            ]
            assert main(args) == 0
            assert capsys.readouterr().err == ""
            rows = [l for l in read(out_path).splitlines() if not l.startswith("#")][1:]
            return rows, json.loads(read(out_path + ".homogeneity.json"))

        rows, summary = field_map(current, "extreme")
        _, unit = field_map(1.0, "unit")
        numbers = [float(v) for row in rows for v in row.split(",")]
        numbers += [float(v) for v in summary["mean_A"]]
        numbers += [float(v) for k, v in summary.items() if k != "mean_A"]
        assert all(math.isfinite(x) for x in numbers)
        for key in ("max_rel_deviation", "rel_error_vs_ideal"):
            assert summary[key] == unit[key]

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

    def test_order_limit(self, tmp_path, capsys):
        # a 1 m grating spacing solves about 1.4e11 orders, so only the cap
        # bounds the pattern
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"grating_screen": {"a_m": 1.0}}))
        out_path = str(tmp_path / "fringes.csv")
        argv = ["diffract", "--config", str(config), "--out", out_path, "--k-max"]
        assert main(argv + [str(MAX_ORDERS)]) == 0
        assert len(read(out_path).splitlines()) == 4 + 1 + MAX_ORDERS + 1
        os.remove(out_path)
        os.remove(out_path + ".summary.json")
        capsys.readouterr()
        assert main(argv + [str(MAX_ORDERS + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: k_max exceeds {MAX_ORDERS} orders\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["wide.json"]

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (
                {"beam": {"U_V": 1e308}, "grating_screen": {"a_m": 1e308}},
                "sin(theta_1) = lambda/a underflows to 0 (lambda = 1.226e-163 m, a = 1.000e+308 m)",
            ),
            (
                {"beam": {"U_V": 1e-300}},
                "momentum sqrt(2*m_e*e*U) underflows to 0 at U = 1.000e-300 V",
            ),
        ],
        ids=["angle", "momentum"],
    )
    def test_underflow_rejected(self, tmp_path, capsys, scenario, message):
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps(scenario))
        args = ["diffract", "--config", str(config), "--out", str(tmp_path / "fringes.csv")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["extreme.json"]

    @pytest.mark.parametrize(
        "D_m, k_max, scales",
        [
            # tan(theta_36) = 4.6, so y_36 = D*tan(theta_36) passes the float range
            (1e308, "36", "y_1 - y_0 = 2.778e+306 m, lambda*D/a = 2.777e+306 m, "
                          "y_k_max = inf m"),
            # lambda*D underflows to 0 before the division by a
            (1e-320, "1", "y_1 - y_0 = 2.767e-322 m, lambda*D/a = 0.000e+00 m, "
                          "y_k_max = 2.767e-322 m"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_positions_beyond_the_float_range_rejected(self, tmp_path, capsys, D_m, k_max,
                                                       scales):
        # both exited 0, writing inf positions or a zero interfringe
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({"grating_screen": {"D_m": D_m}}))
        args = ["diffract", "--config", str(config), "--k-max", k_max,
                "--out", str(tmp_path / "fringes.csv")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: fringe positions leave the float range ({scales})\n"
        assert os.listdir(tmp_path) == ["extreme.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["field-map", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02", "--grid", "2",
         "--out", "map.csv"],
        ["diffract", "--out", "fringes.csv"],
    ],
    ids=["field-map", "diffract"],
)
def test_ideal_bore_value_overflow_rejected(tmp_path, capsys, monkeypatch, argv):
    # K = 3.6e4 T*m/A at 1e12 turns, so K*I passes the float range
    (tmp_path / "huge.json").write_text(
        json.dumps({"coil": {"type": "ideal", "N_turns": 10**12}, "current_A": 1e308})
    )
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", "huge.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bore potential K*I overflows the float range at I = 1.000e+308 A\n"
    )
    assert os.listdir(tmp_path) == ["huge.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["field-map", "--region=-0.002,0.002,-0.002,0.002,-0.002,0.002", "--out", "map.csv"],
        ["diffract", "--out", "fringes.csv"],
        ["sweep", "--from=-20", "--to=1", "--step=1", "--out", "sweep.csv"],
        ["validate-coil"],
    ],
    ids=["field-map", "diffract", "sweep", "validate-coil"],
)
def test_coil_constant_overflow_rejected(tmp_path, capsys, monkeypatch, argv):
    # R2/R1 = 1e310 passes the float range, so ln(R2/R1) and K are inf: the
    # sweep warned "invalid value" at I = 0, validate-coil printed K = inf
    # with exit 0, and diffract blamed K*I at I = 0
    (tmp_path / "wide.json").write_text(json.dumps(
        {"coil": {"type": "ideal", "R1_m": 0.01, "R2_m": 1e308, "N_turns": 10**12}}
    ))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", "wide.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coil constant K overflows the float range "
        "(N = 1.000e+12, R1 = 1.000e-02 m, R2 = 1.000e+308 m)\n"
    )
    assert os.listdir(tmp_path) == ["wide.json"]


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

    def test_error_line_comes_without_stdout(self, tmp_path, capsys):
        # the winding is not constructible, and then K overflows: the
        # error line alone, not half of the report before it
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"coil": {"R2_m": 1e308}}))
        assert main(["validate-coil", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coil constant K overflows")
        assert captured.err.count("\n") == 1

    def test_segment_limit(self, tmp_path, capsys):
        # about 2.5e9 segments at 4 per turn: a usage error, not a build
        config = tmp_path / "dense.json"
        config.write_text(
            json.dumps({"coil": {"turn_density_per_m": 1e9, "wire_diameter_m": 1e-9}})
        )
        assert main(["validate-coil", "--config", str(config)]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_factor_equal_to_smallest_ratio_is_ok(self, capsys):
        # a ratio equal to the factor meets it
        factor = min(geometry_ratios(paper_scenario()).values())
        assert main(["validate-coil", f"--geometry-factor={factor!r}"]) == 0
        out = capsys.readouterr().out
        assert "BELOW" not in out
        assert f"= {factor:.3g} (ok threshold {factor:g})" in out

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-3"])
    def test_geometry_factor_must_be_finite_and_positive(self, factor, capsys):
        assert main(["validate-coil", f"--geometry-factor={factor}"]) == 2
        captured = capsys.readouterr()
        assert "--geometry-factor" in captured.err
        assert captured.out == ""


class TestImport:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # the runtime needs numpy alone: no coilfringe module, the quadrature
        # oracle included, imports any part of scipy
        src = os.path.dirname(os.path.dirname(coilfringe.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import importlib, json, pkgutil, sys, coilfringe\n"
            "names = [m.name for m in pkgutil.iter_modules(coilfringe.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('coilfringe.' + name)\n"
            "print(json.dumps([names, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        names, loaded = json.loads(out)
        assert {"cli", "ideal_field", "winding"} <= set(names)
        assert loaded == []

    def test_package_import_loads_no_submodule(self):
        # the package root holds only its version; every name is imported
        # from the module that defines it
        src = os.path.dirname(os.path.dirname(coilfringe.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, coilfringe\n"
            "print(sorted(m for m in sys.modules if m.startswith('coilfringe.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_scalar_commands_leave_numpy_unloaded(self, tmp_path):
        # only the array-making commands (sweep, field-map) need numpy, and
        # the records are named tuples, so no command needs dataclasses and
        # the inspect module it imports
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
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'dataclasses', 'inspect')))"
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


@pytest.mark.parametrize(
    "argv, sidecar",
    [
        (["field-map", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02", "--grid", "2"],
         ".homogeneity.json"),
        (["sweep", "--from", "-10", "--to", "10", "--step", "1"], ".fit.json"),
        (["diffract"], ".summary.json"),
    ],
)
def test_failed_sidecar_write_leaves_neither_file(tmp_path, capsys, argv, sidecar):
    config = tmp_path / "ideal.json"
    config.write_text(json.dumps({"coil": {"type": "ideal"}, "current_A": 1.0}))
    out_path = str(tmp_path / "c.csv")
    argv = argv + ["--config", str(config), "--out", out_path]
    assert main(argv) == 0
    assert os.path.exists(out_path) and os.path.exists(out_path + sidecar)
    os.remove(out_path)
    os.remove(out_path + sidecar)
    os.mkdir(out_path + sidecar)  # a directory in the sidecar's place
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: cannot write {out_path}{sidecar}: Is a directory\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["c.csv" + sidecar, "ideal.json"]


def test_out_through_symlink_updates_its_target(tmp_path, capsys):
    target, link = tmp_path / "t.csv", tmp_path / "l.csv"
    target.write_text("old\n")
    link.symlink_to("t.csv")
    assert main(["diffract", "--out", str(link)]) == 0
    assert os.readlink(link) == "t.csv"
    assert read(target).startswith("# U_V = ")
    assert sorted(os.listdir(tmp_path)) == ["l.csv", "l.csv.summary.json", "t.csv"]
    # a later failure removes the file written, the link's target
    os.remove(tmp_path / "l.csv.summary.json")
    os.mkdir(tmp_path / "l.csv.summary.json")
    assert main(["diffract", "--out", str(link)]) == 2
    assert not target.exists() and link.is_symlink()


@pytest.mark.parametrize("out", ["d", ".", "..", ""])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_directory_out_is_refused_unopened(tmp_path, capsys, monkeypatch, out, fmt):
    # a temp file beside a directory target would land in its parent,
    # outside the working directory for "." and ""
    run = tmp_path / "a" / "b"
    (run / "d").mkdir(parents=True)
    monkeypatch.chdir(run)
    opened, real_open = [], open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert main(["diffract", "--format", fmt, "--out", out]) == 2
    monkeypatch.undo()
    assert opened == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: cannot write {out}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "d"]


def test_fifo_out_is_refused_unopened(tmp_path):
    # opening a FIFO without a reader would block; the run is a child
    # with a timeout so that such a fault fails the test
    src = os.path.dirname(os.path.dirname(coilfringe.__file__))
    fifo = tmp_path / "f.csv"
    os.mkfifo(fifo)
    run = subprocess.run(
        [sys.executable, "-m", "coilfringe.cli", "diffract", "--out", str(fifo)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stderr == f"configuration error: cannot write {fifo}: not a regular file\n"
    assert run.stdout == ""
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["f.csv"]


STDOUT_ARGVS = [
    ["reproduce-paper"],
    ["diffract"],
    ["sweep", "--from", "-1", "--to", "1", "--step", "1", "--out", "s.csv"],
    ["field-map", "--config", "../current.json", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
     "--grid", "2", "--out", "m.csv"],
    ["diffract", "--out", "f.csv"],
    ["diffract", "--format", "json", "--out", "f.json"],
    ["reproduce-paper", "--format", "json", "--out", "r.json"],
]
SINK_ERRORS = {"pipe": "Broken pipe", "full": "No space left on device",
               "closed": "Bad file descriptor"}


@pytest.mark.parametrize(
    "argv, sink",
    # the ids of the broken-pipe cases carry no sink suffix
    [pytest.param(argv, sink, id=f"argv{i}" + ("" if sink == "pipe" else f"-{sink}"))
     for sink in SINK_ERRORS for i, argv in enumerate(STDOUT_ARGVS)],
)
def test_closed_stdout_is_exit_2(tmp_path, argv, sink):
    # stdout fails: its reader is gone before the command starts, as in
    # `coilfringe reproduce-paper | true`, it is /dev/full, or fd 1 is
    # closed; the files written before stdout are removed again, and
    # the flush at exit prints nothing
    src = os.path.dirname(os.path.dirname(coilfringe.__file__))
    (tmp_path / "current.json").write_text(json.dumps({"current_A": 2.5}))
    (tmp_path / "run").mkdir()
    command = [sys.executable, "-m", "coilfringe.cli", *argv]
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    elif sink == "pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout, command = None, ["sh", "-c", 'exec "$0" "$@" >&-', *command]
    try:
        run = subprocess.run(
            command, stdout=stdout, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src), text=True, cwd=tmp_path / "run",
        )
    finally:
        if stdout is not None:
            os.close(stdout)
    assert run.returncode == 2
    assert run.stderr == f"configuration error: cannot write stdout: {SINK_ERRORS[sink]}\n"
    assert os.listdir(tmp_path / "run") == []


def test_stdout_fault_without_descriptor_is_exit_2(tmp_path, capsys, monkeypatch):
    class FullStringIO(io.StringIO):  # its fileno raises io.UnsupportedOperation
        write = FullStdout.write

    out_path = str(tmp_path / "f.csv")
    for stream in (FullStdout(), FullStringIO()):
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["diffract", "--out", out_path]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            "configuration error: cannot write stdout: No space left on device\n"
        )
        assert os.listdir(tmp_path) == []


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

