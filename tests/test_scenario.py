import json
import math

import pytest

from coilfringe.cli import DEFAULT_GEOMETRY_FACTOR, main
from coilfringe.errors import ScenarioError
from coilfringe.ideal_field import AnnularCoilIdeal
from coilfringe.scenario import (
    MAX_SWEEP_POINTS,
    SweepSpec,
    geometry_ratios,
    load_scenario,
    paper_scenario,
    scenario_from_dict,
)
from coilfringe.winding import CoilWindingSpec


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

    def test_ideal_coil_type(self, tmp_path):
        path = write_scenario(
            tmp_path, {"coil": {"type": "ideal", "N_turns": 1257}, "current_A": 2.0}
        )
        scen = load_scenario(path)
        assert isinstance(scen.coil, AnnularCoilIdeal)
        assert scen.coil.N == 1257
        assert scen.coil.I == 2.0


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

    def test_point_limit(self):
        scen = paper_scenario()
        assert SweepSpec("current", 0.0, MAX_SWEEP_POINTS - 1.0, 1.0, scen).count() == (
            MAX_SWEEP_POINTS
        )
        with pytest.raises(ScenarioError, match="exceeds"):
            SweepSpec("current", 0.0, float(MAX_SWEEP_POINTS), 1.0, scen)
