"""Seeded workload inputs and the command script of each workload.

A workload is a scenario file plus a fixed list of CLI commands.  The seed moves only the coil current, the centre of the bore
box and the sweep endpoints, inside fixed ranges; point, segment and row
counts are the same for every seed.
"""

from dataclasses import dataclass
import json
import os
import random

from physics import E_CHARGE, coil_constant, mechanical_momentum

SWEEP_ROWS = 100_000
CURRENT_STEP_A = 4e-4
VOLTAGE_STEP_V = 0.4
BOX_HALF_SIDE_M = 0.02
SESSION_BEAM_U_V = 30e3
SCENARIO_FILE = "scenario.json"

REFERENCE_COIL = {
    "type": "winding",
    "R1_m": 0.1,
    "R2_m": 0.12,
    "L_m": 12.0,
    "turn_density_per_m": 2000.0,
    "layers": 2,
    "helicity_sign_per_layer": [1, -1],
    "wire_diameter_m": 1e-3,
}
SPARSE_COIL = dict(REFERENCE_COIL, turn_density_per_m=200.0)

WORKLOADS = ("fieldmap-dense", "fieldmap-fine", "cli-session")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    label: str
    kind: str  # reproduce, diffract, validate, sweep or field-map
    argv: tuple
    expect: dict


@dataclass(frozen=True)
class Workload:
    scenario: dict  # content of SCENARIO_FILE in the work directory
    commands: tuple
    inputs: dict  # the seeded values, recorded with the result


def _scenario(coil, current):
    return {"schema_version": 1, "coil": coil, "current_A": current}


def _field_map(workdir, scen_path, coil, current, centre, grid):
    lo = [c - BOX_HALF_SIDE_M for c in centre]
    hi = [c + BOX_HALF_SIDE_M for c in centre]
    region = ",".join(repr(v) for pair in zip(lo, hi) for v in pair)
    out = os.path.join(workdir, "map.csv")
    argv = (
        "field-map", "--config", scen_path,
        f"--region={region}", "--grid", str(grid), "--out", out,
    )
    expect = {"coil": coil, "current": current, "lo": lo, "hi": hi,
              "grid": grid, "out": out}
    return Command(f"field-map-grid{grid}", "field-map", argv, expect)


def _current_sweep_start(rng, coil):
    """Sweep start in [-20.5, -19.5] A, kept off the domain-error boundary.

    Rows with p_mec + e*K*I <= 0 are model-domain errors.  The start is
    nudged by half a step when a grid current falls within 5% of a step
    of the boundary, so the expected error count does not depend on the
    last bit of the program's arithmetic.
    """
    start = rng.uniform(-20.5, -19.5)
    i_crit = -mechanical_momentum(SESSION_BEAM_U_V) / (E_CHARGE * coil_constant(coil))
    frac = (i_crit - start) / CURRENT_STEP_A
    if abs(frac - round(frac)) < 0.05:
        start += CURRENT_STEP_A / 2
    return start


def build(name, seed, workdir):
    """Workload `name` for `seed`, with file paths inside `workdir`."""
    rng = random.Random(seed)
    current = rng.uniform(2.4, 2.6)
    centre = (rng.uniform(-0.005, 0.005), rng.uniform(-0.005, 0.005),
              rng.uniform(-0.5, 0.5))
    scen_path = os.path.join(workdir, SCENARIO_FILE)
    if name == "fieldmap-dense":
        coil = REFERENCE_COIL
        commands = (_field_map(workdir, scen_path, coil, current, centre, 5),)
        inputs = {"current_A": current, "box_centre_m": centre}
    elif name == "fieldmap-fine":
        coil = SPARSE_COIL
        commands = (_field_map(workdir, scen_path, coil, current, centre, 9),)
        inputs = {"current_A": current, "box_centre_m": centre}
    elif name == "cli-session":
        coil = REFERENCE_COIL
        commands, inputs = _session(rng, workdir, scen_path, coil, current)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    inputs["seed"] = seed
    return Workload(_scenario(coil, current), commands, inputs)


def _session(rng, workdir, scen_path, coil, current):
    i_start = _current_sweep_start(rng, coil)
    u_start = rng.uniform(9500.0, 10500.0)
    sweeps = (
        ("current", i_start, CURRENT_STEP_A),
        ("voltage", u_start, VOLTAGE_STEP_V),
    )
    repro_json = os.path.join(workdir, "report.json")
    fringe_csv = os.path.join(workdir, "fringes.csv")
    fringe_json = os.path.join(workdir, "fringes.json")
    diffract = ("diffract", "--config", scen_path, "--k-max", "3")
    common = {"coil": coil, "current": current, "U": SESSION_BEAM_U_V}
    commands = [
        Command("reproduce-paper-text", "reproduce", ("reproduce-paper",), {}),
        Command("reproduce-paper-json", "reproduce",
                ("reproduce-paper", "--format", "json", "--out", repro_json),
                {"out": repro_json}),
        Command("diffract-csv", "diffract", diffract + ("--out", fringe_csv),
                dict(common, k_max=3, out=fringe_csv, format="csv")),
        Command("diffract-json", "diffract",
                diffract + ("--format", "json", "--out", fringe_json),
                dict(common, k_max=3, out=fringe_json, format="json")),
        Command("validate-coil", "validate",
                ("validate-coil", "--config", scen_path), dict(common)),
    ]
    for variable, start, step in sweeps:
        stop = start + (SWEEP_ROWS - 1) * step
        out = os.path.join(workdir, f"sweep-{variable}.csv")
        argv = ("sweep", "--config", scen_path, "--variable", variable,
                "--from", repr(start), "--to", repr(stop), "--step", repr(step),
                "--out", out)
        expect = dict(common, variable=variable, start=start, step=step,
                      rows=SWEEP_ROWS, out=out)
        commands.append(Command(f"sweep-{variable}", "sweep", argv, expect))
    inputs = {"current_A": current, "current_sweep_start_A": i_start,
              "voltage_sweep_start_V": u_start}
    return tuple(commands), inputs


def write_scenario(workload, workdir):
    with open(os.path.join(workdir, SCENARIO_FILE), "w", encoding="utf-8") as fh:
        json.dump(workload.scenario, fh, indent=2)
