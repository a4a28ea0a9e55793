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
build and evaluate the winding. Both coil records read as (R1, R2, N, I),
so coil_constant_K and annular_coil_A take either coil as it is.
"""

from collections import namedtuple
import math

from .constants import MU0, checked_make
from .errors import DomainError, ScenarioError

# Largest segment count of one winding; bounds the memory of build_winding
# (the reference coil at 8 segments per turn has 10056).
MAX_SEGMENTS = 10**6
# Most nodes of the trapezoidal rule in array_Az_quadrature.
QUAD_EVAL_BUDGET = 1_000_000


class WireArraySpec(namedtuple("WireArraySpec", "R N I")):
    """Parallel wires uniformly spaced on a cylinder of radius R.

    All wires carry the same signed current I along the symmetry axis.

    R  cylinder radius, m
    N  wire count
    I  current of each wire, A
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, R, N, I):
        if R <= 0:
            raise DomainError("wire array radius R must be positive")
        if N < 1:
            raise DomainError("wire count N must be >= 1")
        return super().__new__(cls, R, N, I)


class AnnularCoilIdeal(namedtuple("AnnularCoilIdeal", "R1 R2 N I")):
    """Ideal annular coil: N turns between inner radius R1 and outer R2.

    R1, R2  inner and outer radius, m
    N       turn count
    I       current, A
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, R1, R2, N, I):
        if not 0 < R1 < R2:
            raise DomainError("annular coil requires 0 < R1 < R2")
        if N < 1:
            raise DomainError("turn count N must be >= 1")
        return super().__new__(cls, R1, R2, N, I)


def turn_count(R1, turn_density):
    """Turns on the inner circumference, round(2*pi*R1*turn_density).

    Raises DomainError if the count overflows to infinity.
    """
    n = 2 * math.pi * R1 * turn_density
    if not math.isfinite(n):
        raise DomainError(f"turn count 2*pi*R1*turn_density must be finite, got {n!r}")
    return round(n)


class CoilWindingSpec(
    namedtuple(
        "CoilWindingSpec",
        "R1 R2 L turn_density layers helicity_sign_per_layer wire_diameter I",
    )
):
    """Geometry and winding description of a finite annular coil.

    turn_density is turns per meter of inner circumference counted over
    all layers, so the derived total turn count is
    N = round(2*pi*R1*turn_density), at least 1 and distributed across
    the layers. Like an AnnularCoilIdeal, the winding has R1, R2, N and I.

    R1, R2                   inner and outer radius, m
    L                        coil length, m
    turn_density             turns per meter of inner circumference, 1/m
    layers                   layer count
    helicity_sign_per_layer  tuple of +1 or -1, one per layer
    wire_diameter            m
    I                        current, A
    """

    __slots__ = ()
    _make = checked_make

    def __new__(
        cls, R1, R2, L, turn_density, layers, helicity_sign_per_layer, wire_diameter, I
    ):
        if not 0 < R1 < R2:
            raise DomainError("winding requires 0 < R1 < R2")
        if L <= 0:
            raise DomainError("coil length L must be positive")
        if turn_density <= 0:
            raise DomainError("turn density must be positive")
        if wire_diameter <= 0:
            raise DomainError("wire diameter must be positive")
        if layers < 1:
            raise DomainError("layer count must be >= 1")
        if len(helicity_sign_per_layer) != layers:
            raise DomainError("helicity_sign_per_layer must have one entry per layer")
        if any(s not in (-1, +1) for s in helicity_sign_per_layer):
            raise DomainError("helicity signs must be +1 or -1")
        if turn_count(R1, turn_density) < 1:  # turn_count rejects one that overflows
            raise DomainError("turn count N = round(2*pi*R1*turn_density) must be >= 1")
        return super().__new__(
            cls, R1, R2, L, turn_density, layers, helicity_sign_per_layer, wire_diameter, I
        )

    @property
    def N(self):
        """Total number of turns over all layers, at least 1."""
        return turn_count(self.R1, self.turn_density)


def check_segments_per_turn(segments_per_turn):
    """The four legs of a turn are subdivided evenly, so segments_per_turn
    must be a positive multiple of 4 (DomainError)."""
    if segments_per_turn < 4 or segments_per_turn % 4:
        raise DomainError(
            f"segments_per_turn must be a positive multiple of 4, got {segments_per_turn}"
        )


def check_constructible(spec, segments_per_turn, turns=None):
    """Check that `turns` turns of the winding of spec can be built; returns
    their segment count, turns * segments_per_turn.

    turns defaults to all spec.N turns; the bore report passes the turn
    copies it builds. Nothing is allocated, and the checks run in one
    order: segments_per_turn must be a positive multiple of 4
    (check_segments_per_turn); the turns may not overlap, every layer
    needs a turn, and the turn path L + (R2 - R1) + L + (R2 - R1), summed
    corner to corner as the winding's construction sums it before
    dividing by it, must be finite (each a DomainError); and the segment
    count may not exceed MAX_SEGMENTS (ScenarioError).
    """
    check_segments_per_turn(segments_per_turn)
    per_layer_density = spec.turn_density / spec.layers
    if spec.wire_diameter * per_layer_density > 1.0 + 1e-12:
        raise DomainError(
            "turns overlap: wire_diameter * per-layer turn density = "
            f"{spec.wire_diameter * per_layer_density:.3f} > 1"
        )
    if spec.N < spec.layers:
        raise DomainError(f"{spec.N} turns cannot fill {spec.layers} layers")
    if not math.isfinite(spec.L + (spec.R2 - spec.R1) + spec.L + (spec.R2 - spec.R1)):
        raise DomainError("segment endpoints must be finite")
    segments = (spec.N if turns is None else turns) * segments_per_turn
    if segments > MAX_SEGMENTS:
        raise ScenarioError(f"winding exceeds {MAX_SEGMENTS} segments")
    return segments


def single_wire_Az(r, I):
    """Axial vector potential of an infinite straight wire at distance r.

    Returns -mu0*I/(2pi) * ln(r); the transverse components vanish.
    """
    if r <= 0:
        raise DomainError(f"distance from wire must be positive, got r={r}")
    return -MU0 * I / (2 * math.pi) * math.log(r)


def array_Az_quadrature(spec, r):
    """Axial potential of the wire array by the periodic trapezoidal rule.

    Integrates -mu0*N*I/(8 pi^2) * ln(R^2 + r^2 - 2 R r cos(varphi))
    over varphi in [0, 2pi). The n-node rule is n wires carrying N*I/n
    (array_Az_discrete); doubling n adds them turned by pi/n. The error
    falls as (min(R, r)/max(R, r))^n. Doubling stops once it changes the
    value by at most 1e-12 of `scale`, a bound on |value|: the test is
    absolute, as the interior value is 0 at R = 1.
    """
    if r < 0:
        raise DomainError("observation radius r must be non-negative")
    if r == spec.R:
        raise DomainError("integrand is log-singular on the wire circle r = R")
    if spec.I == 0.0:
        return 0.0
    R, NI = spec.R, spec.N * spec.I
    # all of the current on one wire at the nearest or the farthest distance
    scale = max(abs(single_wire_Az(R + r, NI)), abs(single_wire_Az(abs(R - r), NI)))
    n = 1
    estimate = array_Az_discrete(WireArraySpec(R, n, NI), r)
    while 2 * n <= QUAD_EVAL_BUDGET:
        midpoints = array_Az_discrete(WireArraySpec(R, n, NI / n), r, math.pi / n)
        refined = (estimate + midpoints) / 2
        n *= 2
        if abs(refined - estimate) <= 1e-12 * scale:
            return refined
        estimate = refined
    raise DomainError(f"trapezoidal rule did not converge within {QUAD_EVAL_BUDGET} nodes")


def array_Az_closed(spec, r):
    """Closed-form axial potential of the wire array.

    -mu0*N*I/(2pi) * ln(R) for r < R (independent of r), and
    -mu0*N*I/(2pi) * ln(r) for r > R.
    """
    if r < 0:
        raise DomainError("observation radius r must be non-negative")
    if r == spec.R:
        raise DomainError("closed form is singular on the wire circle r = R")
    return -MU0 * spec.N * spec.I / (2 * math.pi) * math.log(max(spec.R, r))


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
        raise DomainError("observation point coincides with a wire")
    return float(np.sum(-MU0 * spec.I / (2 * math.pi) * np.log(d)))


def annular_coil_A(coil):
    """Homogeneous interior vector potential of the ideal annular coil.

    A = mu0*N*I/(2pi) * ln(R2/R1); equals the superposition of the
    R1 cylinder with current I and the R2 cylinder with current -I at
    any bore radius r < R1; coil is either coil. A value K*I beyond the
    float range is a DomainError.
    """
    A = coil_constant_K(coil) * coil.I
    if not math.isfinite(A):
        raise DomainError(
            f"bore potential K*I overflows the float range at I = {coil.I:.3e} A"
        )
    return A


def coil_constant_K(coil):
    """Coil constant K = mu0*N/(2pi) * ln(R2/R1) of either coil, so that A = K*I.

    A K beyond the float range, as where R2/R1 overflows, is a DomainError.
    """
    K = MU0 * coil.N / (2 * math.pi) * math.log(coil.R2 / coil.R1)
    if not math.isfinite(K):
        raise DomainError(
            f"coil constant K overflows the float range (N = {coil.N:.3e}, "
            f"R1 = {coil.R1:.3e} m, R2 = {coil.R2:.3e} m)"
        )
    return K
