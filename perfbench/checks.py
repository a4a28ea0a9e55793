"""Output checks, by tolerance rather than by byte digest.

Each check takes a Command, the exit code and the captured stdout, and
returns an Outcome: the problems found (empty when the output is
correct), the data rows written, and the quality figures of a field map.

Tolerances.  Emitted floats carry 9 significant digits, so a value may
differ from the exact one by 5e-9 relative; RTOL leaves room for that.
Field-map A columns are compared with physics.winding_field at RTOL
relative to |A| at each point; the two agreed to 3e-14 when the
benchmark was written.  In the bore B is rounding noise (4.7e-14 T with
the finite-difference curl, 8e-16 T closed form), so B columns are
compared at an absolute B_ATOL_T.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

import physics
from physics import E_CHARGE, H

RTOL = 2e-8
FIT_RTOL = 1e-7
B_ATOL_T = 1e-12
DEVIATION_ATOL = 1e-10
GRATING_A_M = 2.55e-10
SCREEN_D_M = 0.1
PAPER_ROWS = 10
ERROR_MARKER = "model-domain-error"


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    rows: int = 0
    domain_errors: int = 0
    quality: dict = field(default_factory=dict)

    def expect(self, cond, message):
        if not cond:
            self.problems.append(message)
        return cond

    def close(self, name, got, ref, rtol=RTOL, atol=0.0):
        ok = abs(got - ref) <= rtol * abs(ref) + atol
        return self.expect(ok, f"{name} = {got!r}, expected {float(ref)!r}")


class FieldReference:
    """Reference A and B for a field-map command, computed once per run."""

    def __init__(self, expect):
        self.points = physics.grid_points(expect["lo"], expect["hi"], expect["grid"])
        self.A, self.B = physics.winding_field(
            expect["coil"], expect["current"], self.points
        )


def check(cmd, code, stdout, reference=None):
    out = Outcome()
    if not out.expect(code == 0, f"{cmd.label} exited {code}"):
        return out
    try:
        CHECKS[cmd.kind](cmd, stdout, out, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out.problems.append(f"{cmd.label}: unreadable output ({exc!r})")
    return out


def _read_csv(path):
    """(comment lines, header, data lines) of a CSV written by the program."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    return lines[:n], lines[n], lines[n + 1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_reproduce(cmd, stdout, out, _ref):
    if "out" in cmd.expect:
        data = _read_json(cmd.expect["out"])
        rows = data["rows"]
        out.expect(len(rows) == PAPER_ROWS, f"report has {len(rows)} rows")
        out.expect(all(r["ok"] for r in rows) and data["all_ok"] is True,
                   "report rows not all ok")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    out.expect(len(lines) == PAPER_ROWS, f"printed {len(lines)} report rows")
    bad = [ln for ln in lines if not (ln.endswith(" ok") or ln.endswith(" ok (flagged)"))]
    out.expect(not bad, f"rows not ok: {bad}")


def _check_diffract(cmd, stdout, out, _ref):
    e = cmd.expect
    p_eff = physics.effective_momentum(e["U"], e["current"], e["coil"])
    lam = H / p_eff
    if e["format"] == "json":
        data = _read_json(e["out"])
        summary = data["summary"]
        orders = [(o["k"], float(o["theta_k_rad"]), float(o["y_k_m"]),
                   float(o["ring_radius_m"])) for o in data["orders"]]
    else:
        summary = _read_json(e["out"] + ".summary.json")
        _, header, lines = _read_csv(e["out"])
        out.expect(header == "k,theta_k_rad,y_k_m,ring_radius_m", f"header {header!r}")
        orders = []
        for ln in lines:
            k, *vals = ln.split(",")
            orders.append((int(k), *map(float, vals)))
    out.rows = len(orders)
    out.expect([o[0] for o in orders] == list(range(e["k_max"] + 1)), "fringe orders")
    for k, theta, y, ring in orders:
        theta_ref = math.asin(k * lam / GRATING_A_M)
        out.close(f"theta_{k}", theta, theta_ref, atol=1e-300)
        out.close(f"y_{k}", y, SCREEN_D_M * math.tan(theta_ref), atol=1e-300)
        out.expect(ring == y, f"ring_radius_{k} differs from y_{k}")
    lam_out, p_out = float(summary["lambda_m"]), float(summary["P_eff"])
    out.close("P_eff", p_out, p_eff)
    out.close("lambda*P_eff", lam_out * p_out, H, rtol=2 * RTOL)
    out.close("interfringe_m", float(summary["interfringe_m"]), lam * SCREEN_D_M / GRATING_A_M)
    out.close("interfringe_exact_m", float(summary["interfringe_exact_m"]),
              orders[1][2] - orders[0][2])
    out.expect(f"lambda_m = {summary['lambda_m']}" in stdout, "summary not printed")


def _check_validate(cmd, stdout, out, _ref):
    coil = cmd.expect["coil"]
    turns = physics.turn_count(coil)
    line = (f"winding constructible: {4 * turns} segments, "
            f"{turns} turns in {coil['layers']} layers")
    out.expect(line in stdout, f"missing {line!r}")
    k_line = [ln for ln in stdout.splitlines() if ln.startswith("ideal coil constant K = ")]
    if out.expect(len(k_line) == 1, "coil constant not printed"):
        out.close("K", float(k_line[0].split()[5]), physics.coil_constant(coil))
    geometry = [ln for ln in stdout.splitlines() if ln.startswith("geometry ")]
    out.expect(len(geometry) == 3 and all("(ok threshold" in ln for ln in geometry),
               f"geometry checks: {geometry}")


def _check_sweep(cmd, stdout, out, _ref):
    e = cmd.expect
    coil, step = e["coil"], e["step"]
    _, header, lines = _read_csv(e["out"])
    var_col = "I_A" if e["variable"] == "current" else "U_V"
    out.expect(header == f"{var_col},P_eff,lambda_eff_m,interfringe_m,inverse_interfringe_per_m",
               f"header {header!r}")
    out.rows = len(lines)
    if not out.expect(out.rows == e["rows"], f"{out.rows} sweep rows, expected {e['rows']}"):
        return
    values = e["start"] + np.arange(e["rows"]) * step
    if e["variable"] == "current":
        U = np.full_like(values, e["U"])
        currents = values
    else:
        U = values
        currents = np.full_like(values, e["current"])
    p_eff = np.sqrt(2 * physics.M_E * E_CHARGE * U) + E_CHARGE * (physics.coil_constant(coil) * currents)
    invalid = p_eff <= 0
    cells = [ln.split(",") for ln in lines]
    marked = np.array([c[1] == ERROR_MARKER for c in cells])
    out.domain_errors = int(marked.sum())
    out.expect(out.domain_errors == int(invalid.sum()),
               f"{out.domain_errors} domain-error rows, expected {int(invalid.sum())}")
    out.expect(np.array_equal(marked, invalid), "domain-error rows in the wrong place")
    out.expect(all(c[1:] == [ERROR_MARKER] * 4 for c, m in zip(cells, marked) if m),
               "partially marked domain-error row")
    got = np.array([[float(x) for x in c] for c, m in zip(cells, marked) if not m])
    v = values[~invalid]
    lam = H / p_eff[~invalid]
    interfringe = lam * SCREEN_D_M / GRATING_A_M
    ref = np.column_stack([v, p_eff[~invalid], lam, interfringe, 1.0 / interfringe])
    worst = np.max(np.abs(got - ref) / np.abs(ref), axis=0)
    out.expect(bool(np.all(worst <= RTOL)), f"sweep columns off by {worst.tolist()}")
    if e["variable"] == "current":
        fit = _read_json(e["out"] + ".fit.json")
        scale = GRATING_A_M / (H * SCREEN_D_M)
        out.close("alpha", float(fit["alpha_sqrtU_coeff"]),
                  scale * math.sqrt(2 * physics.M_E * E_CHARGE), rtol=FIT_RTOL)
        out.close("beta", float(fit["beta_I_coeff"]),
                  scale * E_CHARGE * physics.coil_constant(coil), rtol=FIT_RTOL)
        out.close("r_squared", float(fit["r_squared"]), 1.0, rtol=FIT_RTOL)


def _check_field_map(cmd, stdout, out, ref):
    e = cmd.expect
    _, header, lines = _read_csv(e["out"])
    out.expect(header == "x,y,z,Ax,Ay,Az,Bx,By,Bz", f"header {header!r}")
    out.rows = len(lines)
    if not out.expect(out.rows == len(ref.points), f"{out.rows} field samples"):
        return
    got = np.array([[float(x) for x in ln.split(",")] for ln in lines])
    out.expect(bool(np.all(np.abs(got[:, :3] - ref.points) <= 1e-9)), "sample positions")
    A_norm = np.linalg.norm(ref.A, axis=1)
    A_err = float(np.max(np.linalg.norm(got[:, 3:6] - ref.A, axis=1) / A_norm))
    out.expect(A_err <= RTOL, f"A columns off by {A_err:.3e} relative")
    B_err = float(np.max(np.abs(got[:, 6:9] - ref.B)))
    out.expect(B_err <= B_ATOL_T, f"B columns off by {B_err:.3e} T")

    side = _read_json(e["out"] + ".homogeneity.json")
    mean_A = ref.A.mean(axis=0)
    ideal = physics.coil_constant(e["coil"]) * e["current"]
    out.close("ideal_A", float(side["ideal_A"]), ideal)
    out.close("mean_Az", float(side["mean_A"][2]), mean_A[2])
    rel_error = float(side["rel_error_vs_ideal"])
    out.close("rel_error_vs_ideal", rel_error, abs(mean_A[2] - ideal) / ideal, atol=1e-10)
    dev = np.max(np.linalg.norm(ref.A - mean_A, axis=1)) / np.linalg.norm(mean_A)
    out.close("max_rel_deviation", float(side["max_rel_deviation"]), dev,
              rtol=0.0, atol=DEVIATION_ATOL)
    B_max = float(side["max_B_magnitude"])
    out.expect(B_max <= B_ATOL_T, f"bore B floor {B_max:.3e} T")
    out.quality = {"bore_Az_rel_error": rel_error, "bore_B_max_T": B_max}
    out.expect(f"wrote {out.rows} field samples" in stdout, "summary line missing")


CHECKS = {
    "reproduce": _check_reproduce,
    "diffract": _check_diffract,
    "validate": _check_validate,
    "sweep": _check_sweep,
    "field-map": _check_field_map,
}
