"""Parameter sweeps over coil current or accelerating voltage."""

from .constants import E_CHARGE
from .diffraction import (
    de_broglie_lambda,
    linear_response_fit,
    mechanical_momentum,
    small_angle_interfringe,
)
from .errors import DomainError
from .ideal_field import coil_constant_K

ERROR_MARKER = "model-domain-error"


def run_sweep(sweep):
    """Evaluate the diffraction model over the sweep grid.

    Returns (rows, fit) where rows is an (n, 5) array of
    (swept_value, P_eff, lambda_eff_m, interfringe_m, inverse_interfringe_per_m)
    with NaN in the last four columns for points outside the model
    domain (P_eff <= 0), and fit is (alpha, beta, r_squared) for current
    sweeps whose valid points determine it (None otherwise). A value of
    the rows or the fit that overflows the float range is a DomainError.
    """
    import numpy as np

    scen = sweep.scenario
    message = "sweep values overflow the float range"
    try:
        with np.errstate(over="raise", divide="raise"):
            K = coil_constant_K(scen.coil)
            values = sweep.values()
            if sweep.variable == "current":
                U, I = np.full_like(values, scen.beam.U), values
            else:
                U, I = values, np.full_like(values, scen.coil.I)
            P_eff = mechanical_momentum(U) + E_CHARGE * (K * I)
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
                except DomainError:
                    pass
    except FloatingPointError as exc:
        raise DomainError(f"{message} ({exc})") from None
    if fit is not None and not np.isfinite(fit).all():  # lstsq ignores overflow
        raise DomainError(f"{message} (the fit is not finite)")
    return rows, fit
