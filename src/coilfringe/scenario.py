"""Experiment scenario configuration.

Scenarios are JSON files with a versioned schema. Unknown keys, and
coil keys that the coil's type does not read, are rejected to catch
typos; omitted fields fall back to the reference defaults below
(copper-foil Thomson arrangement inside the two-layer annular coil):

    a = 2.55e-10 m, D = 0.1 m, U = 30 kV, beam width = 1 mm,
    R1 = 0.1 m, R2 = 0.12 m, L = 12 m, turn density n = 2000 /m,
    2 layers with opposite helicity, 1 mm wire, I = 0 A.
"""

from collections import namedtuple
import json
import math
import numbers

from .constants import checked_make
from .errors import DomainError, ScenarioError
from .ideal_field import AnnularCoilIdeal, CoilWindingSpec, turn_count
from .diffraction import BeamSpec, GratingScreenSpec

SCHEMA_VERSION = 1

# Largest number of values in one sweep.
MAX_SWEEP_POINTS = 10**6

PAPER_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "coil": {
        "type": "winding",
        "R1_m": 0.1,
        "R2_m": 0.12,
        "L_m": 12.0,
        "turn_density_per_m": 2000.0,
        "layers": 2,
        "helicity_sign_per_layer": [1, -1],
        "wire_diameter_m": 1e-3,
    },
    "beam": {
        "U_V": 30e3,
        "beam_width_m": 1e-3,
    },
    "grating_screen": {
        "a_m": 2.55e-10,
        "D_m": 0.1,
    },
    "current_A": 0.0,
}


class ExperimentScenario(namedtuple("ExperimentScenario", "coil beam grating_screen")):
    """A coil (CoilWindingSpec or AnnularCoilIdeal), a BeamSpec and a
    GratingScreenSpec."""

    __slots__ = ()


class SweepSpec(namedtuple("SweepSpec", "variable start stop step scenario")):
    """Sweep of current or voltage; the rest of the scenario is fixed.

    A sweep holds at most MAX_SWEEP_POINTS values.

    variable           "current" or "voltage"
    start, stop, step  the swept values, A or V
    scenario           the ExperimentScenario
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, variable, start, stop, step, scenario):
        if variable not in ("current", "voltage"):
            raise ScenarioError(f"unknown sweep variable {variable!r}")
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            _number(value, f"sweep {name}")
        if step <= 0:
            raise ScenarioError("sweep step must be positive")
        if start > stop:
            raise ScenarioError("sweep start must not exceed stop")
        self = super().__new__(cls, variable, start, stop, step, scenario)
        # count() <= MAX_SWEEP_POINTS, checked before anything is allocated
        if not self._span() < MAX_SWEEP_POINTS:
            raise ScenarioError(f"sweep exceeds {MAX_SWEEP_POINTS} points")
        if self.count() < 2:
            raise ScenarioError("sweep must contain at least 2 samples")
        return self

    def _span(self):
        return (self.stop - self.start) / self.step + 1e-9

    def count(self):
        """Number of sweep values, both ends included."""
        return math.floor(self._span()) + 1

    def values(self):
        import numpy as np

        return self.start + np.arange(self.count()) * self.step


# The coil keys each coil type reads; a winding reads all of the defaults.
_COIL_KEYS = {
    "winding": frozenset(PAPER_DEFAULTS["coil"]),
    "ideal": frozenset({"type", "R1_m", "R2_m", "turn_density_per_m", "N_turns"}),
}


def _merge_defaults(data):
    merged = {}
    for key, default in PAPER_DEFAULTS.items():
        if isinstance(default, dict):
            sub = dict(default)
            user = data.get(key, {})
            if not isinstance(user, dict):
                raise ScenarioError(f"field {key!r} must be an object")
            known = default
            if key == "coil":
                ctype = user.get("type", "winding")
                # _build_coil rejects an unknown type
                known = _COIL_KEYS.get(ctype, default) if isinstance(ctype, str) else default
            for k, v in user.items():
                if k not in known:
                    raise ScenarioError(f"unknown key {key}.{k!r}")
                sub[k] = v
            merged[key] = sub
        else:
            merged[key] = data.get(key, default)
    for key in data:
        if key not in PAPER_DEFAULTS:
            raise ScenarioError(f"unknown top-level key {key!r}")
    return merged


def _number(value, name, integer=False):
    """value as a finite float, or as an int if integer; ScenarioError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{name} must be finite, got {x!r}")
    if integer:
        if not x.is_integer():
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return x


def _build_coil(coil_data, current):
    def num(key, integer=False):
        return _number(coil_data[key], f"coil.{key}", integer)

    ctype = coil_data["type"]
    if ctype == "winding":
        helicity = coil_data["helicity_sign_per_layer"]
        if not isinstance(helicity, list):
            raise ScenarioError("coil.helicity_sign_per_layer must be a list")
        return CoilWindingSpec(
            R1=num("R1_m"),
            R2=num("R2_m"),
            L=num("L_m"),
            turn_density=num("turn_density_per_m"),
            layers=num("layers", integer=True),
            helicity_sign_per_layer=tuple(
                _number(h, "coil.helicity_sign_per_layer", integer=True) for h in helicity
            ),
            wire_diameter=num("wire_diameter_m"),
            I=current,
        )
    if ctype == "ideal":
        if "N_turns" in coil_data:
            n_turns = num("N_turns", integer=True)
        else:
            n_turns = turn_count(num("R1_m"), num("turn_density_per_m"))
        return AnnularCoilIdeal(R1=num("R1_m"), R2=num("R2_m"), N=n_turns, I=current)
    raise ScenarioError(f"unknown coil type {ctype!r}")


def scenario_from_dict(data):
    """Build a validated ExperimentScenario from a plain dict."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    version = _number(data.get("schema_version", SCHEMA_VERSION), "schema_version", integer=True)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")
    merged = _merge_defaults(data)
    current = _number(merged["current_A"], "current_A")
    beam_data, screen_data = merged["beam"], merged["grating_screen"]
    try:
        coil = _build_coil(merged["coil"], current)
        beam = BeamSpec(
            U=_number(beam_data["U_V"], "beam.U_V"),
            beam_width_phi=_number(beam_data["beam_width_m"], "beam.beam_width_m"),
        )
        gs = GratingScreenSpec(
            a=_number(screen_data["a_m"], "grating_screen.a_m"),
            D=_number(screen_data["D_m"], "grating_screen.D_m"),
        )
    except DomainError as exc:
        raise ScenarioError(str(exc)) from exc
    return ExperimentScenario(coil=coil, beam=beam, grating_screen=gs)


def load_scenario(path):
    """Load and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario parse error in {path} at line {exc.lineno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data)


def paper_scenario():
    """The built-in reference scenario."""
    return scenario_from_dict({})


def geometry_ratios(scenario):
    """The setup separations L/D, D/phi and phi/a, each meant to be >> 1.

    An ideal coil has no length, so its L/D is infinite.
    """
    coil, beam, gs = scenario.coil, scenario.beam, scenario.grating_screen
    length = coil.L if isinstance(coil, CoilWindingSpec) else math.inf
    return {
        "L/D": length / gs.D,
        "D/phi": gs.D / beam.beam_width_phi,
        "phi/a": beam.beam_width_phi / gs.a,
    }
