"""Vector potential of idealized current distributions.

Covers the infinite straight wire, a circular array of parallel wires,
and the ideal annular (toroidal, rectangular-section) coil. The array
potential is available through two independent routes: adaptive
quadrature of the azimuthal integral, and the closed-form log identity

    integral_0^{2pi} ln(R^2 + r^2 - 2 R r cos x) dx = 4 pi ln max(R, r)

which makes the interior value independent of r. The annular coil value
is the superposition of an inner cylinder (current I) and an outer
return cylinder (current -I), giving A = mu0*N*I/(2pi) * ln(R2/R1)
homogeneous over the bore.

Sign convention: positive current I in the inner cylinder produces A
parallel to the +z beam axis inside the bore.

The finite coil's description, CoilWindingSpec, and its constructibility
check live here beside the ideal coil it reduces to: commands that only
read a coil's numbers then need no numpy, which winding.py imports to
build and evaluate the winding.
"""

from dataclasses import dataclass
import math

from .constants import constants
from .errors import (
    ConstructionError,
    DomainError,
    QuadratureError,
    ScenarioError,
    SingularityError,
)

# Largest segment count of one winding; bounds the memory of build_winding
# (the reference coil at 8 segments per turn has 10056).
MAX_SEGMENTS = 10**6
# Budget of integrand evaluations for the adaptive quadrature; QUADPACK
# uses 21 evaluations per subinterval.
QUAD_EVAL_BUDGET = 1_000_000
DEFAULT_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class WireArraySpec:
    """Parallel wires uniformly spaced on a cylinder of radius R.

    All wires carry the same signed current I along the symmetry axis.
    """

    R: float
    N: int
    I: float

    def __post_init__(self):
        if self.R <= 0:
            raise DomainError("wire array radius R must be positive")
        if self.N < 1:
            raise DomainError("wire count N must be >= 1")


@dataclass(frozen=True)
class AnnularCoilIdeal:
    """Ideal annular coil: N turns between inner radius R1 and outer R2."""

    R1: float
    R2: float
    N: int
    I: float

    def __post_init__(self):
        if not 0 < self.R1 < self.R2:
            raise DomainError("annular coil requires 0 < R1 < R2")
        if self.N < 1:
            raise DomainError("turn count N must be >= 1")

    def ideal_equivalent(self):
        """The coil itself, as CoilWindingSpec.ideal_equivalent gives a winding's."""
        return self


def turn_count(R1, turn_density):
    """Turns on the inner circumference, round(2*pi*R1*turn_density).

    Raises DomainError if the count overflows to infinity.
    """
    n = 2 * math.pi * R1 * turn_density
    if not math.isfinite(n):
        raise DomainError(f"turn count 2*pi*R1*turn_density must be finite, got {n!r}")
    return round(n)


@dataclass(frozen=True)
class CoilWindingSpec:
    """Geometry and winding description of a finite annular coil.

    turn_density is turns per meter of inner circumference counted over
    all layers, so the derived total turn count is
    N = round(2*pi*R1*turn_density), distributed across the layers.
    """

    R1: float
    R2: float
    L: float
    turn_density: float
    layers: int
    helicity_sign_per_layer: tuple
    wire_diameter: float
    I: float

    def __post_init__(self):
        if not 0 < self.R1 < self.R2:
            raise DomainError("winding requires 0 < R1 < R2")
        if self.L <= 0:
            raise DomainError("coil length L must be positive")
        if self.turn_density <= 0:
            raise DomainError("turn density must be positive")
        if self.wire_diameter <= 0:
            raise DomainError("wire diameter must be positive")
        if self.layers < 1:
            raise DomainError("layer count must be >= 1")
        if len(self.helicity_sign_per_layer) != self.layers:
            raise DomainError("helicity_sign_per_layer must have one entry per layer")
        if any(s not in (-1, +1) for s in self.helicity_sign_per_layer):
            raise DomainError("helicity signs must be +1 or -1")
        turn_count(self.R1, self.turn_density)  # rejects a count that overflows

    @property
    def turn_count(self):
        """Total number of turns over all layers."""
        return turn_count(self.R1, self.turn_density)

    def ideal_equivalent(self):
        """Ideal annular coil with the same radii and ampere-turns."""
        return AnnularCoilIdeal(R1=self.R1, R2=self.R2, N=self.turn_count, I=self.I)


def check_constructible(spec, segments_per_turn):
    """Check that the winding of spec can be built; returns its segment count.

    The count is turns * segments_per_turn, and nothing is allocated.
    segments_per_turn must be a positive multiple of 4 (DomainError);
    the count may not exceed MAX_SEGMENTS (ScenarioError); turns may not
    overlap, and each layer needs a turn (ConstructionError); the turn
    path 2*L + 2*(R2 - R1), from which the segment endpoints are
    computed, must be finite (DomainError).
    """
    if segments_per_turn < 4 or segments_per_turn % 4:
        raise DomainError(
            f"segments_per_turn must be a positive multiple of 4, got {segments_per_turn}"
        )
    turns = spec.turn_count
    segments = turns * segments_per_turn
    if segments > MAX_SEGMENTS:
        raise ScenarioError(f"winding exceeds {MAX_SEGMENTS} segments")
    per_layer_density = spec.turn_density / spec.layers
    if spec.wire_diameter * per_layer_density > 1.0 + 1e-12:
        raise ConstructionError(
            "turns overlap: wire_diameter * per-layer turn density = "
            f"{spec.wire_diameter * per_layer_density:.3f} > 1"
        )
    if turns < spec.layers:
        raise ConstructionError(f"{turns} turns cannot fill {spec.layers} layers")
    if not math.isfinite(2 * spec.L + 2 * (spec.R2 - spec.R1)):
        raise DomainError("segment endpoints must be finite")
    return segments


def single_wire_Az(r, I):
    """Axial vector potential of an infinite straight wire at distance r.

    Returns -mu0*I/(2pi) * ln(r); the transverse components vanish.
    """
    if r <= 0:
        raise DomainError(f"distance from wire must be positive, got r={r}")
    mu0 = constants().mu0
    return -mu0 * I / (2 * math.pi) * math.log(r)


def array_Az_quadrature(spec, r, tol=DEFAULT_QUAD_TOL):
    """Axial potential of the wire array by adaptive quadrature.

    Integrates -mu0*N*I/(8 pi^2) * ln(R^2 + r^2 - 2 R r cos(varphi))
    over varphi in [0, 2pi) to the requested relative tolerance.
    """
    if r < 0:
        raise DomainError("observation radius r must be non-negative")
    if r == spec.R:
        raise SingularityError("integrand is log-singular on the wire circle r = R")
    if tol <= 0:
        raise DomainError("quadrature tolerance must be positive")
    if spec.I == 0.0:
        return 0.0
    from scipy.integrate import quad  # slow to import; only this oracle needs it

    R = spec.R

    def integrand(varphi):
        return math.log(R * R + r * r - 2 * R * r * math.cos(varphi))

    limit = max(10, QUAD_EVAL_BUDGET // 21)
    # Aim two decades below the requested tolerance so the achieved error
    # (not just QUADPACK's estimate) stays within tol.
    val, abserr, info, *rest = quad(
        integrand, 0.0, 2 * math.pi, epsabs=0.0,
        epsrel=max(tol * 1e-2, 1e-13), limit=limit, full_output=True,
    )
    prefactor = -constants().mu0 * spec.N * spec.I / (8 * math.pi**2)
    estimate = prefactor * val
    if rest:  # QUADPACK warning message present
        raise QuadratureError(
            f"quadrature did not converge: {rest[0]}", estimate=estimate
        )
    return estimate


def array_Az_closed(spec, r):
    """Closed-form axial potential of the wire array.

    -mu0*N*I/(2pi) * ln(R) for r < R (independent of r), and
    -mu0*N*I/(2pi) * ln(r) for r > R.
    """
    if r < 0:
        raise DomainError("observation radius r must be non-negative")
    if r == spec.R:
        raise SingularityError("closed form is singular on the wire circle r = R")
    mu0 = constants().mu0
    return -mu0 * spec.N * spec.I / (2 * math.pi) * math.log(max(spec.R, r))


def array_Az_discrete(spec, r, azimuth0=0.0):
    """Brute-force superposition of N explicit wires (oracle path).

    Wires sit at azimuths azimuth0 + 2 pi k / N; the observation point is
    at (r, 0). Converges to array_Az_closed as N grows.
    """
    if r < 0:
        raise DomainError("observation radius r must be non-negative")
    import numpy as np

    k = np.arange(spec.N)
    ang = azimuth0 + 2 * math.pi * k / spec.N
    d = np.sqrt(spec.R**2 + r * r - 2 * spec.R * r * np.cos(ang))
    if np.any(d <= 0):
        raise SingularityError("observation point coincides with a wire")
    mu0 = constants().mu0
    return float(np.sum(-mu0 * spec.I / (2 * math.pi) * np.log(d)))


def annular_coil_A(coil):
    """Homogeneous interior vector potential of the ideal annular coil.

    A = mu0*N*I/(2pi) * ln(R2/R1); equals the superposition of the
    R1 cylinder with current I and the R2 cylinder with current -I at
    any bore radius r < R1.
    """
    return coil_constant_K(coil) * coil.I


def coil_constant_K(coil):
    """Coil constant K = mu0*N/(2pi) * ln(R2/R1), so that A = K*I."""
    mu0 = constants().mu0
    return mu0 * coil.N / (2 * math.pi) * math.log(coil.R2 / coil.R1)
