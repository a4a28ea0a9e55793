"""Electron diffraction fringes with and without a uniform vector potential.

Grating-equation model: a*sin(theta_k) = k*lambda with screen positions
y_k = D*tan(theta_k). The de Broglie wavelength uses the canonical
momentum mv + e*A, with the sign of A carried by the coil current
polarity. The model is non-relativistic. It comes in two forms:
fringe_pattern for one setup, and run_sweep for an array of currents or
voltages, whose inverse interfringe linear_response_fit fits against
(sqrt(U), I). mechanical_momentum and de_broglie_lambda take floats, so
the scalar form needs no numpy; run_sweep restates their two formulas on
arrays rather than have one function branch on its argument's type.
"""

from collections import namedtuple
import math

from .constants import E_CHARGE, H, M_E, checked_make
from .errors import DomainError, ScenarioError
from .ideal_field import coil_constant_K

SMALL_ANGLE_LIMIT = 1e-3  # |tan - sin|/sin threshold for the flag
# Largest k_max of one fringe pattern; bounds the orders it builds.
MAX_ORDERS = 10**4


class BeamSpec(namedtuple("BeamSpec", "U beam_width_phi")):
    """Mono-energetic electron beam.

    U               accelerating voltage, V
    beam_width_phi  beam width, m
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, U, beam_width_phi):
        if U <= 0:
            raise DomainError("accelerating voltage U must be positive")
        if beam_width_phi <= 0:
            raise DomainError("beam width must be positive")
        return super().__new__(cls, U, beam_width_phi)


class GratingScreenSpec(namedtuple("GratingScreenSpec", "a D")):
    """Crystalline foil grating and detecting screen.

    a  interatomic spacing, m
    D  foil-to-screen distance, m
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, a, D):
        if a <= 0 or D <= 0:
            raise DomainError("grating spacing a and screen distance D must be positive")
        return super().__new__(cls, a, D)


class FringeOrder(namedtuple("FringeOrder", "k theta_k y_k ring_radius")):
    """One diffraction order.

    k            the order
    theta_k      diffraction angle, rad
    y_k          distance from the pattern centre on the screen, exact tan
                 geometry, m
    ring_radius  m, equals y_k for the circular pattern
    """

    __slots__ = ()


class FringePattern(
    namedtuple(
        "FringePattern",
        "orders interfringe_i interfringe_small_angle wavelength P_eff small_angle_valid",
    )
):
    """Ring pattern of orders 0..k_max.

    orders                   tuple of FringeOrder
    interfringe_i            y_1 - y_0, exact geometry, m
    interfringe_small_angle  lambda*D/a, m
    wavelength               de Broglie wavelength lambda, m
    P_eff                    canonical momentum mv + e*A, kg*m/s
    small_angle_valid        whether |tan - sin|/sin < SMALL_ANGLE_LIMIT at order 1
    """

    __slots__ = ()


def mechanical_momentum(U):
    """Momentum sqrt(2*m_e*e*U) of an electron accelerated through voltage U."""
    if U <= 0:
        raise DomainError("accelerating voltage U must be positive")
    return math.sqrt(2 * M_E * E_CHARGE * U)


def de_broglie_lambda(p):
    """de Broglie wavelength lambda = h/p."""
    if p <= 0:
        raise DomainError("momentum must be positive")
    return H / p


def small_angle_interfringe(lam, gs):
    """Small-angle interfringe lambda*D/a for wavelength lam (a float or an array)."""
    return lam * gs.D / gs.a


def fringe_pattern(beam, gs, A, k_max):
    """Predict the ring pattern for orders 0..k_max.

    theta_k = arcsin(k*lambda_eff/a), y_k = D*tan(theta_k). The small
    angle interfringe lambda_eff*D/a is reported alongside the exact
    y_1 - y_0; lambda_eff = h/P_eff, P_eff = mv + e*A for the signed axial
    potential A. k_max may not exceed MAX_ORDERS (ScenarioError). Each of
    these is a DomainError: P_eff <= 0, mv underflowing to 0 at a tiny U,
    lambda_eff/a, sin(theta_1), underflowing to 0, and an interfringe that
    underflows to 0 or a position y_k that overflows.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max > MAX_ORDERS:
        raise ScenarioError(f"k_max exceeds {MAX_ORDERS} orders")
    mv = mechanical_momentum(beam.U)
    P_eff = mv + E_CHARGE * A
    if P_eff == 0.0 and mv == 0.0:
        raise DomainError(f"momentum sqrt(2*m_e*e*U) underflows to 0 at U = {beam.U:.3e} V")
    if P_eff <= 0:
        raise DomainError(
            f"effective momentum {P_eff:.3e} kg*m/s is non-positive; "
            "outside the model's validity regime"
        )
    lam = de_broglie_lambda(P_eff)
    if lam / gs.a == 0.0:
        raise DomainError(
            f"sin(theta_1) = lambda/a underflows to 0 (lambda = {lam:.3e} m, a = {gs.a:.3e} m)"
        )
    s_max = k_max * lam / gs.a
    if s_max >= 1.0:
        raise DomainError(
            f"grating equation unsolvable at order {k_max}; "
            f"max feasible order is {math.ceil(gs.a / lam) - 1}"  # largest k < a/lambda
        )
    orders = []
    for k in range(k_max + 1):
        theta = math.asin(k * lam / gs.a)
        y = gs.D * math.tan(theta)
        orders.append(FringeOrder(k=k, theta_k=theta, y_k=y, ring_radius=y))
    # y_k grows with k, so y_k_max is the largest position
    scales = (orders[1].y_k - orders[0].y_k, small_angle_interfringe(lam, gs), orders[-1].y_k)
    if not all(0.0 < x < math.inf for x in scales):
        raise DomainError(
            "fringe positions leave the float range (y_1 - y_0 = {:.3e} m, "
            "lambda*D/a = {:.3e} m, y_k_max = {:.3e} m)".format(*scales)
        )
    theta1 = orders[1].theta_k
    small_angle_valid = (
        abs(math.tan(theta1) - math.sin(theta1)) / math.sin(theta1) < SMALL_ANGLE_LIMIT
    )
    return FringePattern(
        orders=tuple(orders),
        interfringe_i=scales[0],
        interfringe_small_angle=scales[1],
        wavelength=lam,
        P_eff=P_eff,
        small_angle_valid=small_angle_valid,
    )


def linear_response_fit(U, I, f):
    """Least squares of inverse interfringe f against (sqrt(U), I).

    U, I and f are equal-length sequences of samples. Returns (alpha,
    beta, r_squared) where alpha multiplies sqrt(U) and beta multiplies I.
    """
    import numpy as np

    U, I, f = (np.asarray(x, dtype=float) for x in (U, I, f))
    if len(f) < 3:
        raise DomainError("need at least 3 samples")
    if not I.min() < I.max():
        raise DomainError("samples must span at least 2 distinct currents")
    X = np.column_stack([np.sqrt(U), I])
    # rank counts the singular values above max(M, N) * eps * the largest
    coef, _, rank, _ = np.linalg.lstsq(X, f, rcond=None)
    if rank < 2:
        raise DomainError("rank-deficient design: sqrt(U) and I columns are degenerate")
    resid = f - X @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((f - f.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r_squared


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
            if (U <= 0).any():
                raise DomainError("accelerating voltage U must be positive")
            # mechanical_momentum and de_broglie_lambda on arrays; the rows are
            # held to those two bit for bit by test_rows_match_pointwise_model
            P_eff = np.sqrt(2 * M_E * E_CHARGE * U) + E_CHARGE * (K * I)
            valid = ~(P_eff <= 0)
            P_eff[~valid] = np.nan  # so the columns below are NaN there
            lam = H / P_eff
            interfringe = small_angle_interfringe(lam, scen.grating_screen)
            rows = np.column_stack([values, P_eff, lam, interfringe, 1.0 / interfringe])
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
