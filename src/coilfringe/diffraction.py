"""Electron diffraction fringes with and without a uniform vector potential.

Grating-equation model: a*sin(theta_k) = k*lambda with screen positions
y_k = D*tan(theta_k). The de Broglie wavelength uses the canonical
momentum mv + e*A, with the sign of A carried by the coil current
polarity. The model is non-relativistic. The momentum and wavelength
take a real scalar or a numpy array; numpy is imported only for an
array.
"""

from dataclasses import dataclass, field
import math

from .constants import constants
from .errors import DomainError, FitError, ModelDomainError, OrderLimitError

SMALL_ANGLE_LIMIT = 1e-3  # |tan - sin|/sin threshold for the flag


@dataclass(frozen=True)
class BeamSpec:
    """Mono-energetic electron beam."""

    U: float  # accelerating voltage, V
    beam_width_phi: float  # beam width, m

    def __post_init__(self):
        if self.U <= 0:
            raise DomainError("accelerating voltage U must be positive")
        if self.beam_width_phi <= 0:
            raise DomainError("beam width must be positive")


@dataclass(frozen=True)
class GratingScreenSpec:
    """Crystalline foil grating and detecting screen."""

    a: float  # interatomic spacing, m
    D: float  # foil-to-screen distance, m

    def __post_init__(self):
        if self.a <= 0 or self.D <= 0:
            raise DomainError("grating spacing a and screen distance D must be positive")


@dataclass(frozen=True)
class FringeOrder:
    k: int
    theta_k: float  # rad
    y_k: float  # m, exact tan geometry
    ring_radius: float  # m, equals y_k for the circular pattern


@dataclass(frozen=True)
class FringePattern:
    orders: tuple
    interfringe_i: float  # y_1 - y_0, exact geometry
    interfringe_small_angle: float  # lambda*D/a
    wavelength: float
    P_eff: float
    small_angle_valid: bool


def _any_non_positive(x):
    """Whether a scalar or any element of an array is <= 0 (NaN is not)."""
    le = x <= 0
    return bool(le.any()) if hasattr(le, "any") else le


def _sqrt(x):
    """Correctly rounded square root of a real scalar or of each array element."""
    if isinstance(x, float):  # a numpy float64 too
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


def mechanical_momentum(U):
    """Momentum sqrt(2*m_e*e*U) of an electron accelerated through
    voltage U (scalar or array)."""
    if _any_non_positive(U):
        raise DomainError("accelerating voltage U must be positive")
    c = constants()
    return _sqrt(2 * c.m_e * c.e * U)


def de_broglie_lambda(p):
    """de Broglie wavelength lambda = h/p (scalar or array)."""
    if _any_non_positive(p):
        raise DomainError("momentum must be positive")
    return constants().h / p


def effective_momentum(U, A):
    """Canonical momentum mv + e*A for the signed axial potential A.

    The beam axis and A are collinear; the coil current polarity carries
    the sign of A.
    """
    c = constants()
    p = mechanical_momentum(U) + c.e * A
    if p <= 0:
        raise ModelDomainError(
            f"effective momentum {p:.3e} kg*m/s is non-positive; "
            "outside the model's validity regime"
        )
    return p


def small_angle_interfringe(lam, gs):
    """Small-angle interfringe lambda*D/a for wavelength lam (scalar or array)."""
    return lam * gs.D / gs.a


def fringe_pattern(beam, gs, A, k_max):
    """Predict the ring pattern for orders 0..k_max.

    theta_k = arcsin(k*lambda_eff/a), y_k = D*tan(theta_k). The small
    angle interfringe lambda_eff*D/a is reported alongside the exact
    y_1 - y_0.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    P_eff = effective_momentum(beam.U, A)
    lam = de_broglie_lambda(P_eff)
    s_max = k_max * lam / gs.a
    if s_max >= 1.0:
        feasible = int(gs.a / lam)  # largest k with k*lambda/a < 1
        if gs.a / lam == feasible:
            feasible -= 1
        raise OrderLimitError(
            f"grating equation unsolvable at order {k_max}; "
            f"max feasible order is {feasible}",
            max_order=feasible,
        )
    orders = []
    for k in range(k_max + 1):
        theta = math.asin(k * lam / gs.a)
        y = gs.D * math.tan(theta)
        orders.append(FringeOrder(k=k, theta_k=theta, y_k=y, ring_radius=y))
    theta1 = orders[1].theta_k
    small_angle_valid = (
        abs(math.tan(theta1) - math.sin(theta1)) / math.sin(theta1) < SMALL_ANGLE_LIMIT
    )
    return FringePattern(
        orders=tuple(orders),
        interfringe_i=orders[1].y_k - orders[0].y_k,
        interfringe_small_angle=small_angle_interfringe(lam, gs),
        wavelength=lam,
        P_eff=P_eff,
        small_angle_valid=small_angle_valid,
    )


def inverse_interfringe(U, I, coil_K, gs):
    """Inverse small-angle interfringe a*(sqrt(2*m*e*U) + e*K*I)/(h*D).

    Linear in I at fixed U; 1 over the small-angle interfringe.
    """
    lam = de_broglie_lambda(effective_momentum(U, coil_K * I))
    return 1.0 / small_angle_interfringe(lam, gs)


def linear_response_fit(U, I, f):
    """Least squares of inverse interfringe f against (sqrt(U), I).

    U, I and f are equal-length sequences of samples. Returns (alpha,
    beta, r_squared) where alpha multiplies sqrt(U) and beta multiplies I.
    """
    import numpy as np

    U, I, f = (np.asarray(x, dtype=float) for x in (U, I, f))
    if len(f) < 3:
        raise FitError("need at least 3 samples")
    if len(np.unique(I)) < 2:
        raise FitError("samples must span at least 2 distinct currents")
    X = np.column_stack([np.sqrt(U), I])
    if np.linalg.matrix_rank(X) < 2:
        raise FitError("rank-deficient design: sqrt(U) and I columns are degenerate")
    coef, _, _, _ = np.linalg.lstsq(X, f, rcond=None)
    resid = f - X @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((f - f.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r_squared
