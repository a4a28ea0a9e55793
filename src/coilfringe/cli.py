"""Command-line interface.

Subcommands: reproduce-paper, sweep, field-map, diffract, validate-coil.
Exit codes: 0 = success / all tolerances met, 1 = tolerance or
validation failure, 2 = usage or configuration error.

The environment variable COILFRINGE_CONFIG_DIR names a directory that
is searched for relative --config paths that do not exist locally.

Only field-map and sweep import numpy; field-map also imports the
winding kernel, inside its command function.
"""

import argparse
import math
import os
import sys

from .errors import CoilfringeError, ConstructionError, DomainError, ScenarioError
from .export import (
    fmt,
    fringe_summary,
    json_text,
    write_field_map,
    write_fringe_csv,
    write_json,
)
from .diffraction import fringe_pattern
from .ideal_field import CoilWindingSpec, annular_coil_A, check_constructible, coil_constant_K
from .report import reproduce_paper
from .scenario import SweepSpec, geometry_ratios, load_scenario, paper_scenario
from .sweep import run_sweep, write_sweep_csv

CONFIG_DIR_ENV = "COILFRINGE_CONFIG_DIR"

# Factor validate-coil demands of each ">>" setup relation by default.
DEFAULT_GEOMETRY_FACTOR = 10.0


def _resolve_config(path):
    if path is None:
        return None
    if os.path.exists(path):
        return path
    cfg_dir = os.environ.get(CONFIG_DIR_ENV)
    if cfg_dir and not os.path.isabs(path):
        candidate = os.path.join(cfg_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path  # let the loader produce the error


def _load(args):
    path = _resolve_config(args.config)
    if path is None:
        return paper_scenario()
    return load_scenario(path)


def _cmd_reproduce_paper(args):
    if args.out is not None and args.format != "json":
        raise ValueError("reproduce-paper --out requires --format json")
    rep = reproduce_paper(profile=args.tolerance_profile)
    if args.format == "json":
        data = {
            "profile": rep.profile,
            "rows": [
                {
                    "name": r.name,
                    "equation": r.equation,
                    "computed": fmt(r.computed),
                    "reference": fmt(r.reference),
                    "rel_deviation": fmt(r.rel_deviation),
                    "tolerance": fmt(r.tolerance),
                    "flagged": r.flagged,
                    "ok": r.ok,
                }
                for r in rep.rows
            ],
            "all_ok": rep.all_ok,
        }
        if args.out is None:
            print(json_text(data))
            return 0 if rep.all_ok else 1
        write_json(args.out, data)
    for r in rep.rows:
        flag = " (flagged)" if r.flagged else ""
        status = "ok" if r.ok else "FAIL"
        print(
            f"{r.name:15s} [{r.equation}] computed {fmt(r.computed)} "
            f"reference {fmt(r.reference)} dev {r.rel_deviation * 100:.3f}% "
            f"tol {r.tolerance * 100:.2f}% {status}{flag}"
        )
    return 0 if rep.all_ok else 1


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
    write_sweep_csv(args.out, sweep, rows)
    if fit is not None:
        alpha, beta, r2 = fit
        write_json(
            args.out + ".fit.json",
            {
                "alpha_sqrtU_coeff": fmt(alpha),
                "beta_I_coeff": fmt(beta),
                "r_squared": fmt(r2),
            },
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _parse_region(text):
    from .winding import Box

    parts = [float(x) for x in text.split(",")]
    if len(parts) != 6:
        raise ValueError("region must be x0,x1,y0,y1,z0,z1")
    return Box(lo=(parts[0], parts[2], parts[4]), hi=(parts[1], parts[3], parts[5]))


def _parse_grid(text):
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) != 3:
        raise ValueError("grid must be n or nx,ny,nz")
    return tuple(parts)


def _cmd_field_map(args):
    import numpy as np

    from .winding import homogeneity_report

    scen = _load(args)
    region = _parse_region(args.region)
    grid = _parse_grid(args.grid)
    rep = homogeneity_report(
        scen.coil, region, grid, segments_per_turn=args.segments_per_turn
    )
    write_field_map(args.out, scen.coil, np.hstack([rep.points, rep.A, rep.B]))
    write_json(
        args.out + ".homogeneity.json",
        {
            "mean_A": [fmt(v) for v in rep.mean_A],
            "max_rel_deviation": fmt(rep.max_rel_deviation),
            "max_B_magnitude": fmt(rep.max_B_magnitude),
            "ideal_A": fmt(rep.ideal_A),
            "rel_error_vs_ideal": fmt(rep.rel_error_vs_ideal),
        },
    )
    print(f"wrote {len(rep.points)} field samples to {args.out}")
    return 0


def _cmd_diffract(args):
    scen = _load(args)
    A = annular_coil_A(scen.coil.ideal_equivalent())
    pattern = fringe_pattern(scen.beam, scen.grating_screen, A, args.k_max)
    summary = fringe_summary(pattern)
    if args.out:
        comment = [
            f"# U_V = {fmt(scen.beam.U)}",
            f"# I_A = {fmt(scen.coil.I)}",
            f"# a_m = {fmt(scen.grating_screen.a)}",
            f"# D_m = {fmt(scen.grating_screen.D)}",
        ]
        if args.format == "json":
            write_json(
                args.out,
                {
                    "orders": [
                        {
                            "k": o.k,
                            "theta_k_rad": fmt(o.theta_k),
                            "y_k_m": fmt(o.y_k),
                            "ring_radius_m": fmt(o.ring_radius),
                        }
                        for o in pattern.orders
                    ],
                    "summary": summary,
                },
            )
        else:
            write_fringe_csv(args.out, pattern, scenario_comment=comment)
            write_json(args.out + ".summary.json", summary)
    for key, val in summary.items():
        print(f"{key} = {val}")
    return 0


def _cmd_validate_coil(args):
    factor = args.geometry_factor
    if not 0 < factor < math.inf:
        raise ValueError(f"--geometry-factor must be finite and positive, got {factor:g}")
    scen = _load(args)
    coil = scen.coil
    status = 0
    if isinstance(coil, CoilWindingSpec):
        try:
            segments = check_constructible(coil, segments_per_turn=4)
            print(f"winding constructible: {segments} segments, "
                  f"{coil.turn_count} turns in {coil.layers} layers")
        except (ConstructionError, DomainError) as exc:
            print(f"winding NOT constructible: {exc}")
            status = 1
        print(f"ideal coil constant K = {fmt(coil_constant_K(coil.ideal_equivalent()))} T*m/A")
    else:
        print(f"ideal coil: N = {coil.N}, K = {fmt(coil_constant_K(coil))} T*m/A")
    for name, value in geometry_ratios(scen).items():
        ok = value >= factor
        print(f"geometry {name} = {value:.3g} "
              f"({'ok' if ok else 'BELOW'} threshold {factor:g})")
        if not ok:
            status = 1
    return status


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
    p.add_argument(
        "--tolerance-profile", choices=("paper", "strict"), default="paper"
    )
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
        return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CoilfringeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
