"""Command-line interface.

Subcommands: reproduce-paper, sweep, field-map, diffract, validate-coil.
Exit codes: 0 = success / all tolerances met, 1 = tolerance or
validation failure (DomainError), 2 = usage or configuration error
(ScenarioError, another ValueError, or a stdout that cannot be written).

Each command returns (status, files, text): its exit status, its files
as an ordered list of (path, lines), where lines None names a stale file
to remove, and its stdout lines. main writes them all with one
export.write_all call: the files in order, each written or, if stale,
removed, and then stdout. A failed entry or stdout removes the files
written and is raised as a ScenarioError, so a run leaves all of its
output or none, and a command that ends in an error line prints nothing
on stdout.

The environment variable COILFRINGE_CONFIG_DIR names a directory that
is searched for relative --config paths that do not exist locally.

Only field-map and sweep import numpy; field-map also imports the
winding kernel, inside its command function.
"""

import argparse
import math
import os
import sys

from .errors import DomainError, ScenarioError
from .export import csv_lines, csv_rows, emitted, json_text, key_value_lines, write_all
from .diffraction import fringe_pattern, run_sweep
from .ideal_field import CoilWindingSpec, annular_coil_A, check_constructible, coil_constant_K
from .report import TOLERANCE_PROFILES, reproduce_paper
from .scenario import SweepSpec, geometry_ratios, load_scenario, paper_scenario

CONFIG_DIR_ENV = "COILFRINGE_CONFIG_DIR"
# The sweep CSV's text for a value outside the model domain (P_eff <= 0).
ERROR_MARKER = "model-domain-error"
# The columns of a fringe table, the fields of diffraction.FringeOrder.
FRINGE_COLUMNS = ("k", "theta_k_rad", "y_k_m", "ring_radius_m")

# Factor validate-coil demands of each ">>" setup relation by default.
DEFAULT_GEOMETRY_FACTOR = 10.0


def _load(args):
    if args.config is None:
        return paper_scenario()
    # an absolute path joins to itself; a path found nowhere is the loader's error
    in_dir = os.path.join(os.environ.get(CONFIG_DIR_ENV, ""), args.config)
    found_there = not os.path.exists(args.config) and os.path.exists(in_dir)
    return load_scenario(in_dir if found_there else args.config)


def _cmd_reproduce_paper(args):
    if args.out is not None and args.format != "json":
        raise ValueError("reproduce-paper --out requires --format json")
    rep = reproduce_paper(profile=args.tolerance_profile)
    files, text = [], [
        f"{r.name:15s} [{r.equation}] computed {emitted(r.computed)} "
        f"reference {emitted(r.reference)} dev {r.rel_deviation * 100:.3f}% "
        f"tol {r.tolerance * 100:.2f}% {'ok' if r.ok else 'FAIL'}"
        f"{' (flagged)' if r.flagged else ''}"
        for r in rep.rows
    ]
    if args.format == "json":
        data = {
            "profile": rep.profile,
            "rows": [dict(r._asdict(), ok=r.ok) for r in rep.rows],
            "all_ok": rep.all_ok,
        }
        if args.out is None:
            text = [json_text(data)]
        else:
            files = [(args.out, [json_text(data)])]
    return 0 if rep.all_ok else 1, files, text


def _cmd_sweep(args):
    scen = _load(args)
    sweep = SweepSpec(
        variable=args.variable,
        start=args.start,
        stop=args.stop,
        step=args.step,
        scenario=scen,
    )
    rows, fit = run_sweep(sweep)
    header = {"sweep_variable": sweep.variable, "start": sweep.start,
              "stop": sweep.stop, "step": sweep.step}
    columns = ("I_A" if sweep.variable == "current" else "U_V", "P_eff", "lambda_eff_m",
               "interfringe_m", "inverse_interfringe_per_m")
    # the NaNs of the model-domain rows are written as the marker
    files = [(args.out, csv_lines(header, columns, csv_rows(rows, nan_text=ERROR_MARKER)))]
    # without a fit, an earlier run's sidecar no longer describes the CSV: remove it
    fit_keys = ("alpha_sqrtU_coeff", "beta_I_coeff", "r_squared")
    fit_lines = None if fit is None else [json_text(dict(zip(fit_keys, fit)))]
    files.append((args.out + ".fit.json", fit_lines))
    return 0, files, [f"wrote {len(rows)} rows to {args.out}"]


def _parse_region(text):
    from .winding import Box

    parts = [float(x) for x in text.split(",")]
    if len(parts) != 6:
        raise ValueError("region must be x0,x1,y0,y1,z0,z1")
    return Box(lo=(parts[0], parts[2], parts[4]), hi=(parts[1], parts[3], parts[5]))


def _parse_grid(text):
    parts = [int(x) for x in text.split(",")]
    if len(parts) not in (1, 3):
        raise ValueError("grid must be n or nx,ny,nz")
    return tuple(parts) if len(parts) == 3 else parts[0]


def _coil_header(coil):
    """The parameters of a coil that head its field-map CSV."""
    if isinstance(coil, CoilWindingSpec):
        return {
            "coil_type": "winding",
            "R1_m": coil.R1,
            "R2_m": coil.R2,
            "L_m": coil.L,
            "turn_density_per_m": coil.turn_density,
            "layers": coil.layers,
            "helicity": coil.helicity_sign_per_layer,
            "wire_diameter_m": coil.wire_diameter,
            "I_A": coil.I,
        }
    return {
        "coil_type": "ideal", "R1_m": coil.R1, "R2_m": coil.R2, "N_turns": coil.N, "I_A": coil.I
    }


def _cmd_field_map(args):
    import numpy as np

    from .winding import homogeneity_report

    scen = _load(args)
    region = _parse_region(args.region)
    grid = _parse_grid(args.grid)
    rep = homogeneity_report(
        scen.coil, region, grid, segments_per_turn=args.segments_per_turn
    )
    columns = ("x", "y", "z", "Ax", "Ay", "Az", "Bx", "By", "Bz")
    rows = csv_rows(np.hstack([rep.points, rep.A, rep.B]))
    # the sidecar holds the report's five statistics
    summary = dict(zip(rep._fields[:5], rep))
    files = [
        (args.out, csv_lines(_coil_header(scen.coil), columns, rows)),
        (args.out + ".homogeneity.json", [json_text(summary)]),
    ]
    return 0, files, [f"wrote {len(rep.points)} field samples to {args.out}"]


def _cmd_diffract(args):
    scen = _load(args)
    A = annular_coil_A(scen.coil)
    pattern = fringe_pattern(scen.beam, scen.grating_screen, A, args.k_max)
    summary = {
        "lambda_m": pattern.wavelength,
        "P_eff": pattern.P_eff,
        "interfringe_m": pattern.interfringe_small_angle,
        "interfringe_exact_m": pattern.interfringe_i,
        "small_angle_valid": pattern.small_angle_valid,
    }
    files = []
    if args.out is not None and args.format == "json":
        orders = [dict(zip(FRINGE_COLUMNS, o)) for o in pattern.orders]
        files = [(args.out, [json_text({"orders": orders, "summary": summary})])]
    elif args.out is not None:
        gs = scen.grating_screen
        setup = {"U_V": scen.beam.U, "I_A": scen.coil.I, "a_m": gs.a, "D_m": gs.D}
        rows = [",".join(map(str, emitted(order))) for order in pattern.orders]
        files = [
            (args.out, csv_lines(setup, FRINGE_COLUMNS, rows)),
            (args.out + ".summary.json", [json_text(summary)]),
        ]
    return 0, files, key_value_lines(summary)


def _cmd_validate_coil(args):
    factor = args.geometry_factor
    if not 0 < factor < math.inf:
        raise ValueError(f"--geometry-factor must be finite and positive, got {factor:g}")
    scen = _load(args)
    coil = scen.coil
    status, text = 0, []
    if isinstance(coil, CoilWindingSpec):
        try:
            segments = check_constructible(coil, segments_per_turn=4)
            text.append(f"winding constructible: {segments} segments, "
                        f"{coil.N} turns in {coil.layers} layers")
        except DomainError as exc:
            text.append(f"winding NOT constructible: {exc}")
            status = 1
        text.append(f"ideal coil constant K = {emitted(coil_constant_K(coil))} T*m/A")
    else:
        text.append(f"ideal coil: N = {coil.N}, K = {emitted(coil_constant_K(coil))} T*m/A")
    for name, value in geometry_ratios(scen).items():
        ok = value >= factor
        text.append(f"geometry {name} = {value:.3g} "
                    f"({'ok' if ok else 'BELOW'} threshold {factor:g})")
        if not ok:
            status = 1
    return status, [], text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coilfringe",
        description="Annular-coil vector potential and electron diffraction fringes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", default=None, help="scenario JSON file")

    p = sub.add_parser("reproduce-paper", help="recompute the reference estimates")
    p.add_argument("--out", default=None, help="JSON report file (with --format json)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tolerance-profile", choices=TOLERANCE_PROFILES, default="paper")
    p.set_defaults(func=_cmd_reproduce_paper)

    p = sub.add_parser("sweep", help="sweep current or voltage")
    config(p)
    p.add_argument("--out", required=True, help="sweep CSV file")
    p.add_argument("--variable", choices=("current", "voltage"), default="current")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("field-map", help="sample A and B over a grid")
    config(p)
    p.add_argument("--out", required=True, help="field-map CSV file")
    p.add_argument("--region", required=True, help="x0,x1,y0,y1,z0,z1 in meters")
    p.add_argument("--grid", default="3", help="n or nx,ny,nz")
    p.add_argument("--segments-per-turn", type=int, default=8)
    p.set_defaults(func=_cmd_field_map)

    p = sub.add_parser("diffract", help="predict the fringe pattern")
    config(p)
    p.add_argument("--out", default=None, help="fringe CSV or JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--k-max", type=int, default=3)
    p.set_defaults(func=_cmd_diffract)

    p = sub.add_parser("validate-coil", help="check winding and setup geometry")
    config(p)
    p.add_argument(
        "--geometry-factor",
        type=float,
        default=DEFAULT_GEOMETRY_FACTOR,
        help="required factor for the setup '>>' separations",
    )
    p.set_defaults(func=_cmd_validate_coil)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        status, files, text = args.func(args)
        write_all(files, text)  # a stdout that cannot be written fails here, not at exit
        return status
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
