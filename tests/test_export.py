import itertools
import json
import math
import os
import subprocess
import sys

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

import coilfringe
from coilfringe import export
from coilfringe.cli import ERROR_MARKER, main
from coilfringe.diffraction import run_sweep
from coilfringe.errors import ScenarioError
from coilfringe.export import _BLOCK_VALUES, csv_rows, write_all, write_lines
from coilfringe.scenario import SweepSpec, scenario_from_dict
from coilfringe.winding import Box, homogeneity_report


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def _write_sweep_csv_by_row(path, sweep, rows):
    """Reference: the sweep writer with one %-operation per row."""
    var_col = "I_A" if sweep.variable == "current" else "U_V"
    lines = [
        f"# sweep_variable = {sweep.variable}",
        f"# start = {sweep.start:.8e}",
        f"# stop = {sweep.stop:.8e}",
        f"# step = {sweep.step:.8e}",
        f"{var_col},P_eff,lambda_eff_m,interfringe_m,inverse_interfringe_per_m",
    ]
    error_row = "%.8e" + f",{ERROR_MARKER}" * 4
    full_row = ",".join(["%.8e"] * 5)
    for row in rows.tolist():
        lines.append(error_row % row[0] if math.isnan(row[1]) else full_row % tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_field_map_by_row(path, header, rows):
    """Reference: the field-map rows with one %-operation per row."""
    row = ",".join(["%.8e"] * 9)
    lines = header + ["x,y,z,Ax,Ay,Az,Bx,By,Bz"] + [row % tuple(r) for r in rows.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# values whose 9-digit rounding is an exact tie, (n + 1/2) * 10**(8 + k)
ties = st.builds(
    lambda n, k: (n + 0.5) * 10**k, st.integers(10**8, 10**9 - 1), st.integers(0, 5)
)
# the doubles nearest to 10-digit decimals ending in 5: within an ulp of a tie
near_ties = st.builds(
    lambda n, k: float(f"{n}5e{k}"), st.integers(10**8, 10**9 - 1), st.integers(-300, 290)
)
powers_of_ten = st.integers(-323, 308).map(lambda k: float(f"1e{k}"))
subnormals = st.floats(
    min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308
)
specials = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
values = st.one_of(
    st.floats(),
    ties,
    ties.map(lambda x: math.nextafter(x, math.inf)),
    near_ties,
    powers_of_ten,
    powers_of_ten.map(lambda x: math.nextafter(x, 0.0)),
    subnormals,
    specials,
).flatmap(lambda x: st.sampled_from([x, -x]))


@given(st.lists(values, min_size=1, max_size=60), st.integers(1, 3))
@example([1000000005.0, 100000000.5, 999999999.5, 9.999999995e22], 1)
@example([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -math.nan], 1)
@example([9.9999999996, -9.9999999996e-3], 1)  # m rounds up to 1e9: the next exponent
@example([9.999999999999999e-17, math.nextafter(1e3, math.inf)], 1)  # log10 may round up
@example([-1.5e-150, 2.5e150, -9.99999999e-100], 3)  # a full 16-byte field before '\n'
def test_csv_rows_equals_percent_format(xs, columns):
    xs += [0.0] * (-len(xs) % columns)  # whole rows
    rows = np.array(xs).reshape(-1, columns)
    expected = "\n".join(",".join("%.8e" % x for x in r) for r in rows.tolist())
    assert "\n".join(csv_rows(rows)) == expected


def test_csv_rows_nan_text_and_empty():
    rows = np.array([[1.0, math.nan], [math.nan, -2.0]])
    assert list(csv_rows(rows, nan_text=ERROR_MARKER)) == [
        f"1.00000000e+00,{ERROR_MARKER}\n{ERROR_MARKER},-2.00000000e+00"
    ]
    assert next(csv_rows(rows, nan_text="x" * 30)).count("x" * 30) == 2
    assert list(csv_rows(np.empty((0, 5)))) == []


def test_csv_rows_blocks_join_to_the_lines():
    rows = np.linspace(-1.0, 1.0, 3 * (10**5 + 1)).reshape(-1, 3)
    # NaNs at both ends of the first block boundary
    step = _BLOCK_VALUES // 3
    rows[[0, step - 1, step, -1], [0, 2, 0, 2]] = math.nan
    blocks = list(csv_rows(rows))
    assert len(blocks) > 1
    expected = [",".join("%.8e" % x for x in r) for r in rows.tolist()]
    assert "\n".join(blocks).split("\n") == expected


def test_csv_rows_of_arrays_side_by_side_equal_their_hstack():
    # 3 + 1 + 2 columns: a block of _BLOCK_VALUES // 6 rows, so 2.5 blocks
    n = 5 * _BLOCK_VALUES // 12
    a = np.linspace(-1.0, 1.0, 3 * n).reshape(-1, 3)
    b = np.geomspace(1e-300, 1e300, n).reshape(-1, 1)
    c = -np.arange(2.0 * n).reshape(-1, 2)
    c[_BLOCK_VALUES // 6, 1] = math.nan  # the first row of the second block
    blocks = list(csv_rows(a, b, c, nan_text="x"))
    assert len(blocks) == 3
    assert "\n".join(blocks) == "\n".join(csv_rows(np.hstack([a, b, c]), nan_text="x"))


@pytest.mark.parametrize(
    "variable, start, stop, step",
    [
        ("current", -30.0, 10.0, 0.0137),  # crosses into P_eff <= 0
        ("voltage", 1000.0, 50000.0, 3.7),
    ],
)
def test_sweep_csv_matches_row_by_row_writer(tmp_path, capsys, variable, start, stop, step):
    config = {"current_A": 2.5}
    sweep = SweepSpec(variable, start, stop, step, scenario_from_dict(config))
    rows, _ = run_sweep(sweep)
    assert np.isnan(rows[:, 1]).any() == (variable == "current")
    argv = ["sweep", "--config", write_config(tmp_path, config), "--variable", variable,
            f"--from={start!r}", f"--to={stop!r}", f"--step={step!r}"]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    _write_sweep_csv_by_row(tmp_path / "b.csv", sweep, rows)
    assert read_bytes(tmp_path / "a.csv") == read_bytes(tmp_path / "b.csv")


def test_field_map_matches_row_by_row_writer(tmp_path, capsys):
    winding = {
        "type": "winding", "R1_m": 0.1, "R2_m": 0.12, "L_m": 2.0,
        "turn_density_per_m": 2000.0, "layers": 2, "helicity_sign_per_layer": [1, -1],
        "wire_diameter_m": 1e-3,
    }
    ideal = {"type": "ideal", "R1_m": 0.1, "R2_m": 0.12, "N_turns": 1257}
    box = Box((-0.02, -0.01, -0.3), (0.01, 0.02, 0.2))
    region = ",".join(f"{lo!r},{hi!r}" for lo, hi in zip(box.lo, box.hi))
    # 64 rows, and 4000 rows in three blocks
    grids = (("4", 4), ("20,20,10", (20, 20, 10)))
    for coil, (grid, shape) in itertools.product((winding, ideal), grids):
        config = {"coil": coil, "current_A": -3.3}
        argv = ["field-map", "--config", write_config(tmp_path, config), f"--region={region}",
                "--grid", grid, "--out", str(tmp_path / "a.csv")]
        assert main(argv) == 0
        rep = homogeneity_report(scenario_from_dict(config).coil, box, shape)
        rows = np.hstack([rep.points, rep.A, rep.B])
        header = read_bytes(tmp_path / "a.csv").decode().split("\nx,y,z")[0].split("\n")
        _write_field_map_by_row(tmp_path / "b.csv", header, rows)
        assert read_bytes(tmp_path / "a.csv") == read_bytes(tmp_path / "b.csv")


class TestWriteLines:
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            write_lines(path, ["ok", "\ud800"])  # a lone surrogate has no UTF-8
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_lines(path, ["old"])
        with pytest.raises(UnicodeEncodeError):
            write_lines(path, ["new", "\ud800"])
        assert os.listdir(tmp_path) == ["out.csv"]
        assert read_bytes(path) == b"old\n"
        write_lines(path, ["new"])
        assert read_bytes(path) == b"new\n"



class TestWriteAll:
    def test_failure_mid_stream_removes_every_file(self, tmp_path, capsys):
        def lines():
            yield "first line"
            raise ScenarioError("block failed")

        files = [(str(tmp_path / "a.csv"), ["a"]), (str(tmp_path / "b.csv"), lines())]
        with pytest.raises(ScenarioError, match="block failed"):
            write_all(files, ["stdout line"])
        assert os.listdir(tmp_path) == []  # neither file, nor a .tmp
        assert capsys.readouterr().out == ""


def test_field_map_failing_mid_stream_keeps_the_earlier_map(tmp_path, capsys, monkeypatch):
    fields, calls = export._e8_fields, []

    def second_block_fails(x, out):
        calls.append(len(x))
        if len(calls) == 2:
            raise ScenarioError("block failed")
        fields(x, out)

    monkeypatch.setattr(export, "_e8_fields", second_block_fails)
    out = tmp_path / "map.csv"
    out.write_bytes(b"an earlier run's map\n")
    config = write_config(tmp_path, {"coil": {"type": "ideal"}, "current_A": 1.0})
    argv = ["field-map", "--config", config, "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "20,20,10", "--out", str(out)]
    assert main(argv) == 2
    assert len(calls) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: block failed\n"
    assert sorted(os.listdir(tmp_path)) == ["map.csv", "scenario.json"]
    assert read_bytes(out) == b"an earlier run's map\n"


def test_million_point_map_is_written_without_its_whole_text(tmp_path):
    # points, A and B take 72 MB and the CSV 136.5 MB; a writer that held
    # the text and a stacked copy of the arrays peaked near 300 MB
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            has_hwm = "VmHWM:" in fh.read()
    except OSError:
        has_hwm = False
    if not has_hwm:
        pytest.skip("no VmHWM in /proc/self/status")
    config = write_config(tmp_path, {"coil": {"type": "ideal"}, "current_A": 1.0})
    out = tmp_path / "map.csv"
    argv = ["field-map", "--config", config, "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02",
            "--grid", "100,100,100", "--out", str(out)]
    code = (
        "import sys\n"
        "from coilfringe.cli import main\n"
        f"status = main({argv!r})\n"
        "with open('/proc/self/status', encoding='ascii') as fh:\n"
        "    hwm = [line.split()[1] for line in fh if line.startswith('VmHWM:')]\n"
        "print(status, hwm[0], file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coilfringe.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    status, hwm_kb = done.stderr.split()
    assert status == "0"
    assert done.stdout == f"wrote {10**6} field samples to {out}\n"
    with open(out, "rb") as fh:
        rows = sum(not line.startswith(b"#") for line in fh) - 1
    os.remove(out)
    assert rows == 10**6
    assert int(hwm_kb) / 1024 < 150
