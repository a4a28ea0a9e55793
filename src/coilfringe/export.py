"""Deterministic file emission: CSV field maps, fringe tables, sweeps.

All floats are written in scientific notation with 9 significant
digits, locale independent, so identical inputs yield byte-identical
files. CSV files carry a '#'-prefixed comment header echoing the
originating parameters.
"""

import json

from .winding import CoilWindingSpec


def fmt(x):
    """Fixed float format: scientific, 9 significant digits."""
    return f"{float(x):.8e}"


def _coil_comment_lines(coil):
    if isinstance(coil, CoilWindingSpec):
        return [
            "# coil_type = winding",
            f"# R1_m = {fmt(coil.R1)}",
            f"# R2_m = {fmt(coil.R2)}",
            f"# L_m = {fmt(coil.L)}",
            f"# turn_density_per_m = {fmt(coil.turn_density)}",
            f"# layers = {coil.layers}",
            f"# helicity = {list(coil.helicity_sign_per_layer)}",
            f"# wire_diameter_m = {fmt(coil.wire_diameter)}",
            f"# I_A = {fmt(coil.I)}",
        ]
    return [
        "# coil_type = ideal",
        f"# R1_m = {fmt(coil.R1)}",
        f"# R2_m = {fmt(coil.R2)}",
        f"# N_turns = {coil.N}",
        f"# I_A = {fmt(coil.I)}",
    ]


def write_lines(path, lines):
    """Write lines as UTF-8 text with '\\n' endings, the last one included."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_map(path, coil, rows):
    """Write a field-map CSV from an (n, 9) array of x,y,z,Ax,Ay,Az,Bx,By,Bz rows."""
    # "%.8e" % x is fmt(x), without a call per value
    row = ",".join(["%.8e"] * 9)
    lines = _coil_comment_lines(coil) + ["x,y,z,Ax,Ay,Az,Bx,By,Bz"]
    lines += [row % tuple(r) for r in rows.tolist()]
    write_lines(path, lines)


def write_fringe_csv(path, pattern, scenario_comment=()):
    """CSV of fringe orders: k, theta_k_rad, y_k_m, ring_radius_m."""
    lines = list(scenario_comment) + ["k,theta_k_rad,y_k_m,ring_radius_m"]
    for o in pattern.orders:
        lines.append(
            f"{o.k},{fmt(o.theta_k)},{fmt(o.y_k)},{fmt(o.ring_radius)}"
        )
    write_lines(path, lines)


def fringe_summary(pattern):
    return {
        "lambda_m": fmt(pattern.wavelength),
        "P_eff": fmt(pattern.P_eff),
        "interfringe_m": fmt(pattern.interfringe_small_angle),
        "interfringe_exact_m": fmt(pattern.interfringe_i),
        "small_angle_valid": pattern.small_angle_valid,
    }


def json_text(data):
    """The fixed JSON layout of every emitted JSON document."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_json(path, data):
    write_lines(path, [json_text(data)])
