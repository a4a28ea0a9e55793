"""Parameter sweeps over coil current or accelerating voltage."""

from .constants import constants
from .diffraction import (
    de_broglie_lambda,
    linear_response_fit,
    mechanical_momentum,
    small_angle_interfringe,
)
from .errors import FitError
from .export import csv_rows, fmt, write_lines
from .ideal_field import coil_constant_K

ERROR_MARKER = "model-domain-error"


def run_sweep(sweep):
    """Evaluate the diffraction model over the sweep grid.

    Returns (rows, fit) where rows is an (n, 5) array of
    (swept_value, P_eff, lambda_eff_m, interfringe_m, inverse_interfringe_per_m)
    with NaN in the last four columns for points outside the model
    domain (P_eff <= 0), and fit is (alpha, beta, r_squared) for current
    sweeps whose valid points determine it (None otherwise).
    """
    import numpy as np

    scen = sweep.scenario
    K = coil_constant_K(scen.coil.ideal_equivalent())
    values = sweep.values()
    if sweep.variable == "current":
        U, I = np.full_like(values, scen.beam.U), values
    else:
        U, I = values, np.full_like(values, scen.coil.I)
    P_eff = mechanical_momentum(U) + constants().e * (K * I)
    valid = ~(P_eff <= 0)
    lam = de_broglie_lambda(P_eff[valid])
    interfringe = small_angle_interfringe(lam, scen.grating_screen)
    rows = np.full((len(values), 5), np.nan)
    rows[:, 0] = values
    rows[valid, 1:] = np.column_stack([P_eff[valid], lam, interfringe, 1.0 / interfringe])
    fit = None
    if sweep.variable == "current":
        try:
            fit = linear_response_fit(U[valid], I[valid], rows[valid, 4])
        except FitError:
            pass
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
    # the NaNs of the model-domain rows are written as the marker
    write_lines(path, lines + csv_rows(rows, nan_text=ERROR_MARKER))
