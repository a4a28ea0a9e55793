import json
import math
import os

import pytest

from coilfringe.cli import DEFAULT_GEOMETRY_FACTOR, main
from coilfringe.diffraction import BeamSpec, GratingScreenSpec
from coilfringe.errors import ScenarioError
from coilfringe.ideal_field import AnnularCoilIdeal, CoilWindingSpec
from coilfringe.scenario import (
    _IDEAL_COIL_KEYS,
    FIELD_NAMES,
    MAX_SWEEP_POINTS,
    PAPER_DEFAULTS,
    SweepSpec,
    geometry_ratios,
    load_scenario,
    paper_scenario,
    scenario_from_dict,
)


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestLoadScenario:
    def test_defaults(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path, {}))
        assert scen.grating_screen.a == 2.55e-10
        assert scen.grating_screen.D == 0.1
        assert scen.beam.U == 30e3
        assert isinstance(scen.coil, CoilWindingSpec)
        assert scen.coil.R1 == 0.1 and scen.coil.R2 == 0.12
        assert scen.coil.turn_density == 2000.0
        assert scen.coil.I == 0.0  # omitted current defaults to zero field

    def test_invalid_radii_named(self, tmp_path):
        path = write_scenario(tmp_path, {"coil": {"R1_m": 0.12, "R2_m": 0.1}})
        with pytest.raises(ScenarioError, match="R1 < R2"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"currrent_A": 1.0})
        with pytest.raises(ScenarioError, match="unknown"):
            load_scenario(path)
        path = write_scenario(tmp_path, {"coil": {"R1_mm": 100}})
        with pytest.raises(ScenarioError, match="unknown"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "coil",
        [
            {"type": "winding", "N_turns": 7},
            {"type": "ideal", "layers": 5, "L_m": 0.001},
        ],
    )
    def test_coil_keys_of_the_other_type_rejected(self, tmp_path, capsys, coil):
        path = write_scenario(tmp_path, {"coil": coil})
        with pytest.raises(ScenarioError, match="unknown key coil"):
            load_scenario(path)
        assert main(["validate-coil", "--config", path]) == 2
        assert capsys.readouterr().out == ""

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(str(tmp_path / "nope.json"))

    def test_schema_version_checked(self, tmp_path):
        path = write_scenario(tmp_path, {"schema_version": 99})
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "version, message",
        [
            ("1", "schema_version must be a number, got '1'"),
            (True, "schema_version must be a number, got True"),
            (2, "unsupported schema_version 2"),
            (1.5, "schema_version must be an integer, got 1.5"),
        ],
    )
    def test_schema_version_read_as_an_integer(self, version, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict({"schema_version": version})
        assert str(exc.value) == message

    def test_schema_version_float_read_as_its_integer(self):
        # as every integer field is read, layers among them
        assert scenario_from_dict({"schema_version": 1.0}) == scenario_from_dict({})

    def test_ideal_coil_type(self, tmp_path):
        path = write_scenario(
            tmp_path, {"coil": {"type": "ideal", "N_turns": 1257}, "current_A": 2.0}
        )
        scen = load_scenario(path)
        assert isinstance(scen.coil, AnnularCoilIdeal)
        assert scen.coil.N == 1257
        assert scen.coil.I == 2.0


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        (b'{"coil": ' + b"[" * 100000 + b"]" * 100000 + b"}", "maximum recursion depth exceeded"),
        (b'\xff{"current_A": 1.0}', "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["nested", "nested-coil", "not-utf-8"],
)
def test_unreadable_scenario_is_a_configuration_error(tmp_path, capsys, content, reason):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["validate-coil", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"configuration error: cannot read scenario file {path}: {reason}"
    )
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("density", ['"abc"', "-1e400", "2000.0"])
def test_ideal_coil_with_both_turn_keys_rejected(tmp_path, capsys, density):
    # N_turns would win, and the density would never be read or checked
    path = tmp_path / "scenario.json"
    path.write_text(
        f'{{"coil": {{"type": "ideal", "N_turns": 100, "turn_density_per_m": {density}}}}}'
    )
    assert main(["validate-coil", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: an ideal coil reads N_turns or turn_density_per_m, not both\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("data", [[], [{"current_A": 1.0}]])
def test_top_level_list_rejected(tmp_path, capsys, data):
    path = write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match="^scenario must be a JSON object$"):
        load_scenario(path)
    assert main(["diffract", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: scenario must be a JSON object\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["diffract", "--out", "d.csv"],
        ["validate-coil"],
        ["sweep", "--from", "-1", "--to", "1", "--step", "0.5", "--out", "s.csv"],
        ["field-map", "--region=-0.02,0.02,-0.02,0.02,-0.02,0.02", "--out", "m.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_turn_winding_rejected_at_load(tmp_path, capsys, monkeypatch, argv):
    # 2*pi*0.1 m*0.5 /m = 0.31 rounds to no turn
    path = write_scenario(tmp_path, {"coil": {"turn_density_per_m": 0.5}, "current_A": 1.0})
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: turn count N = round(2*pi*R1*turn_density) must be >= 1\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize(
    "text",
    [
        '{"beam": {"U_V": NaN}}',
        '{"current_A": NaN}',
        '{"coil": {"turn_density_per_m": 1e400}}',  # json reads inf
        '{"coil": {"layers": 2.7}}',
        '{"coil": {"L_m": NaN}}',
        '{"coil": {"helicity_sign_per_layer": [1, NaN]}}',
        '{"coil": {"helicity_sign_per_layer": 1}}',
        '{"current_A": "2.5"}',
        # the turn count 2*pi*R1*n overflows to infinity
        '{"coil": {"type": "ideal", "R1_m": 1e200, "R2_m": 1e201, '
        '"turn_density_per_m": 1e200}}',
        '{"coil": {"R1_m": 1e200, "R2_m": 1e201, "turn_density_per_m": 1e200, '
        '"wire_diameter_m": 1e-300}}',
    ],
)
def test_malformed_numbers_rejected(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="must be"):
        load_scenario(str(path))


class TestFieldNames:
    @pytest.mark.parametrize(
        "section, record",
        [("coil", CoilWindingSpec), ("beam", BeamSpec), ("grating_screen", GratingScreenSpec)],
    )
    def test_each_default_key_names_one_field(self, section, record):
        keys = set(PAPER_DEFAULTS[section]) - {"type", "helicity_sign_per_layer"}
        for key in keys:
            assert sum(FIELD_NAMES.get(f) == key for f in record._fields) == 1, key
        # and every field read from the section is read under a default's key
        read = set(record._fields) - {"helicity_sign_per_layer", "I"}
        assert {FIELD_NAMES[f] for f in read} == keys

    def test_ideal_coil_keys(self):
        r1, r2, n = (FIELD_NAMES[f] for f in ("R1", "R2", "N"))
        assert n == "N_turns"
        assert _IDEAL_COIL_KEYS == {"type", "N_turns", "turn_density_per_m", r1, r2}


class TestGeometryChecks:
    def test_paper_defaults_satisfy_factors(self):
        g = geometry_ratios(paper_scenario())
        assert g["L/D"] == pytest.approx(120.0)
        assert g["D/phi"] == pytest.approx(100.0)
        assert g["phi/a"] > 1e6
        assert min(g.values()) >= DEFAULT_GEOMETRY_FACTOR

    def test_ideal_coil_has_infinite_length_factor(self):
        scen = scenario_from_dict({"coil": {"type": "ideal"}})
        assert math.isinf(geometry_ratios(scen)["L/D"])

    def test_tight_threshold_flags(self, capsys):
        assert main(["validate-coil", "--geometry-factor", "1000"]) == 1
        assert "BELOW threshold 1000" in capsys.readouterr().out


class TestSweepSpec:
    def test_values_inclusive(self):
        scen = paper_scenario()
        sweep = SweepSpec("current", -10.0, 10.0, 1.0, scen)
        vals = sweep.values()
        assert len(vals) == 21
        assert vals[0] == -10.0 and vals[-1] == pytest.approx(10.0)

    def test_single_point_rejected(self):
        scen = paper_scenario()
        with pytest.raises(ScenarioError):
            SweepSpec("current", 5.0, 5.0, 1.0, scen)

    def test_bad_variable_and_step(self):
        scen = paper_scenario()
        with pytest.raises(ScenarioError):
            SweepSpec("radius", 0.0, 1.0, 0.1, scen)
        with pytest.raises(ScenarioError):
            SweepSpec("current", 0.0, 1.0, -0.1, scen)

    def test_count_slack_is_rounding_only(self):
        # a stop 5e-7 steps short of the tenth step gives ten values, not eleven
        assert SweepSpec("current", 0.0, 9.9999995, 1.0, paper_scenario()).count() == 10

    def test_point_limit(self):
        scen = paper_scenario()
        assert SweepSpec("current", 0.0, MAX_SWEEP_POINTS - 1.0, 1.0, scen).count() == (
            MAX_SWEEP_POINTS
        )
        with pytest.raises(ScenarioError, match="exceeds"):
            SweepSpec("current", 0.0, float(MAX_SWEEP_POINTS), 1.0, scen)
