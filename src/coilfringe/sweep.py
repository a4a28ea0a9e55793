"""Parameter sweeps over coil current or accelerating voltage."""

import math

import numpy as np

from .constants import constants
from .diffraction import linear_response_fit
from .errors import DomainError
from .export import fmt
from .ideal_field import coil_constant_K
from .scenario import ideal_coil_of

ERROR_MARKER = "model-domain-error"


def run_sweep(sweep):
    """Evaluate the diffraction model over the sweep grid.

    Returns (rows, fit) where rows is an (n, 5) array of
    (swept_value, P_eff, lambda_eff_m, interfringe_m, inverse_interfringe_per_m)
    with NaN in the last four columns for points outside the model
    domain (P_eff <= 0), and fit is (alpha, beta, r_squared) for current
    sweeps with enough valid points (None otherwise).
    """
    scen = sweep.scenario
    gs = scen.grating_screen
    K = coil_constant_K(ideal_coil_of(scen))
    c = constants()
    values = np.array(sweep.values())
    if sweep.variable == "current":
        U, I = np.full_like(values, scen.beam.U), values
    else:
        U, I = values, np.full_like(values, scen.I)
    if np.any(U <= 0):
        raise DomainError("accelerating voltage U must be positive")
    P_eff = np.sqrt(2 * c.m_e * c.e * U) + c.e * (K * I)
    valid = ~(P_eff <= 0)
    lam = c.h / P_eff[valid]
    interfringe = lam * gs.D / gs.a
    rows = np.full((len(values), 5), np.nan)
    rows[:, 0] = values
    rows[valid, 1:] = np.column_stack([P_eff[valid], lam, interfringe, 1.0 / interfringe])
    fit = None
    if sweep.variable == "current" and valid.sum() >= 3:
        if len(np.unique(I[valid])) >= 2:
            fit = linear_response_fit(zip(U[valid], I[valid], rows[valid, 4]))
    return rows, fit


def write_sweep_csv(path, sweep, rows):
    var_col = "I_A" if sweep.variable == "current" else "U_V"
    lines = [
        f"# sweep_variable = {sweep.variable}",
        f"# start = {fmt(sweep.start)}",
        f"# stop = {fmt(sweep.stop)}",
        f"# step = {fmt(sweep.step)}",
        f"{var_col},P_eff,lambda_eff_m,interfringe_m,inverse_interfringe_per_m",
    ]
    # "%.8e" % x is fmt(x), without a call per value
    error_row = "%.8e" + f",{ERROR_MARKER}" * 4
    full_row = ",".join(["%.8e"] * 5)
    for row in rows.tolist():
        lines.append(error_row % row[0] if math.isnan(row[1]) else full_row % tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
