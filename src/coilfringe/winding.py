"""Finite annular coil as closed circuits of straight current segments.

A constructible coil is modeled as closed wire loops: for each turn an
axial run near R1, a radial fragment out to R2 at one end, a return run
near R2, and a radial fragment back at the other end. Helicity is the
azimuthal advance of one turn spacing distributed along the turn path;
layers may wind with opposite azimuthal sense so their net azimuthal
advance cancels. A Winding holds the segments as arrays.

Field evaluation sums closed forms over all segments. A segment of
length Lseg, unit direction l_hat and current I, whose ends lie at
distances d1 and d2 from the point, contributes

    A = mu0*I/(4pi) * l_hat * ln((d1 + d2 + Lseg) / (d1 + d2 - Lseg)),
    B = mu0*I/(4pi) * 2*Lseg*(d1 + d2) / (d1*d2*((d1 + d2)^2 - Lseg^2))
        * l_hat x r1,

with r1 the vector from the segment start to the point (the
finite-filament Biot-Savart field of Hanson & Hirshman, Phys. Plasmas
9, 4410 (2002)).
"""

from dataclasses import dataclass
import math

import numpy as np

from .constants import constants
from .errors import ConstructionError, DomainError, SingularityError
from .ideal_field import AnnularCoilIdeal, annular_coil_A

# Sample points closer to a wire than this are treated as singular.
WIRE_GUARD = 1e-9
# Point-segment pairs evaluated per batch in field_at; bounds the size of
# its temporary arrays.
BATCH_PAIRS = 2**14


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

    @property
    def turn_count(self):
        """Total number of turns over all layers."""
        return round(2 * math.pi * self.R1 * self.turn_density)

    def ideal_equivalent(self):
        """Ideal annular coil with the same radii and ampere-turns."""
        return AnnularCoilIdeal(R1=self.R1, R2=self.R2, N=self.turn_count, I=self.I)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its min and max corners (meters)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise DomainError("box corners must be 3-vectors")
        if not np.all(lo < hi):
            raise DomainError("box must have positive extent on every axis")

    def grid_points(self, grid):
        """(n, 3) points of an (nx, ny, nz) grid spanning the box.

        Points run with x outermost and z innermost.
        """
        axes = [np.linspace(self.lo[i], self.hi[i], grid[i]) for i in range(3)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class Winding:
    """Straight current segments held as arrays.

    Segment k runs from starts[k] to ends[k] (both (n, 3) arrays, meters)
    and carries currents[k] (amperes).
    """

    starts: np.ndarray
    ends: np.ndarray
    currents: np.ndarray


@dataclass(frozen=True)
class HomogeneityReport:
    """Uniformity of the bore field sampled over a box.

    points, A and B are the (n, 3) sample points and the field there.
    """

    region: Box
    mean_A: tuple
    max_rel_deviation: float
    max_B_magnitude: float
    ideal_A: float
    rel_error_vs_ideal: float
    points: np.ndarray
    A: np.ndarray
    B: np.ndarray


def build_winding(spec, segments_per_turn=8):
    """Construct the coil as a Winding of closed layer circuits.

    Each turn contributes segments_per_turn segments (the four legs,
    subdivided evenly), so segments_per_turn must be a positive multiple
    of 4. Turns of one layer chain head to tail: layer with helicity
    sign s places turn j at azimuth s*2pi*j/M plus a per-layer
    interleaving offset, and advances by one turn spacing over the turn
    path, so each layer closes on itself with net azimuthal advance
    s*2pi.
    """
    if segments_per_turn < 4 or segments_per_turn % 4:
        raise DomainError(
            f"segments_per_turn must be a positive multiple of 4, got {segments_per_turn}"
        )
    per_layer_density = spec.turn_density / spec.layers
    if spec.wire_diameter * per_layer_density > 1.0 + 1e-12:
        raise ConstructionError(
            "turns overlap: wire_diameter * per-layer turn density = "
            f"{spec.wire_diameter * per_layer_density:.3f} > 1"
        )
    base, rem = divmod(spec.turn_count, spec.layers)
    if base < 1:
        raise ConstructionError(
            f"{spec.turn_count} turns cannot fill {spec.layers} layers"
        )
    sub = segments_per_turn // 4
    R1, R2, L = spec.R1, spec.R2, spec.L
    # (r_start, z_start, r_end, z_end, length) for the four legs of a turn
    ra, za, rb, zb, leg_len = np.array(
        [
            (R1, -L / 2, R1, +L / 2, L),
            (R1, +L / 2, R2, +L / 2, R2 - R1),
            (R2, +L / 2, R2, -L / 2, L),
            (R2, -L / 2, R1, -L / 2, R2 - R1),
        ]
    ).T[:, :, None]
    perimeter = 2 * L + 2 * (R2 - R1)
    walked = np.concatenate(([[0.0]], np.cumsum(leg_len, axis=0)[:-1]))
    f = np.arange(sub) / sub
    # radius, height and fraction of the turn path at each segment start
    r = (ra + (rb - ra) * f).ravel()
    z = (za + (zb - za) * f).ravel()
    t = ((walked + leg_len * f) / perimeter).ravel()

    starts, ends = [], []
    for layer in range(spec.layers):
        M = base + (1 if layer < rem else 0)
        s = spec.helicity_sign_per_layer[layer]
        offset = 2 * math.pi * layer / (spec.layers * M)
        phi0 = s * 2 * math.pi * np.arange(M) / M + offset
        phi = phi0[:, None] + s * 2 * math.pi / M * t
        pts = np.stack(
            [r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, phi.shape)], axis=-1
        ).reshape(-1, 3)
        starts.append(pts)
        ends.append(np.roll(pts, -1, axis=0))  # the last segment closes the layer
    starts = np.concatenate(starts)
    if not np.all(np.isfinite(starts)):
        raise DomainError("segment endpoints must be finite")
    return Winding(
        starts=starts,
        ends=np.concatenate(ends),
        currents=np.full(len(starts), float(spec.I)),
    )


def field_at(winding, points):
    """Vector potential A (T*m) and magnetic field B (T) of the winding.

    points is an (n, 3) array, or one 3-vector; A and B are returned as
    (n, 3) arrays. Raises SingularityError if a point lies within
    WIRE_GUARD of a segment.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    starts, ends = winding.starts, winding.ends
    seg = ends - starts
    seg_len_sq = np.einsum("ij,ij->i", seg, seg)
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    scale = constants().mu0 * winding.currents / (4 * math.pi)
    A = np.empty_like(points)
    B = np.empty_like(points)
    step = max(1, BATCH_PAIRS // len(seg))
    for i in range(0, len(points), step):
        p = points[i:i + step, None, :]
        r1 = p - starts
        t = np.clip(np.einsum("cmk,mk->cm", r1, seg) / seg_len_sq, 0.0, 1.0)
        dist = np.linalg.norm(r1 - t[..., None] * seg, axis=2)
        if dist.min() < WIRE_GUARD:
            c, k = np.unravel_index(np.argmin(dist), dist.shape)
            raise SingularityError(
                f"point {points[i + c].tolist()} within wire guard of segment {k} "
                f"(distance {dist[c, k]:.3e} m)"
            )
        d1 = np.linalg.norm(r1, axis=2)
        d2 = np.linalg.norm(p - ends, axis=2)
        dsum = d1 + d2
        A[i:i + step] = (scale * np.log((dsum + seg_len) / (dsum - seg_len))) @ unit
        coef = scale * 2 * seg_len * dsum / (d1 * d2 * (dsum**2 - seg_len**2))
        B[i:i + step] = np.einsum("cm,cmk->ck", coef, np.cross(unit, r1))
    return A, B


def check_bore_grid(R1, region, grid):
    """Check a sampling grid of the bore; returns the per-axis point counts.

    grid is the per-axis point count (>= 2), one int or a 3-tuple. The
    region must stay strictly inside the bore cylinder of radius R1.
    """
    if isinstance(grid, int):
        grid = (grid, grid, grid)
    if any(g < 2 for g in grid):
        raise DomainError("grid must have >= 2 points per axis")
    lo = np.asarray(region.lo, dtype=float)
    hi = np.asarray(region.hi, dtype=float)
    max_transverse = max(
        math.hypot(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
    )
    if max_transverse >= R1 - WIRE_GUARD:
        raise DomainError(
            f"region transverse extent {max_transverse:.4g} m reaches the "
            f"winding at R1 = {R1} m"
        )
    return grid


def homogeneity_report(spec, region, grid, segments_per_turn=8):
    """Sample A and B on a grid inside the bore and report uniformity.

    The grid and region are checked by check_bore_grid, and the region
    must also lie inside the coil length. Every input is checked before
    any field is evaluated.
    """
    grid = check_bore_grid(spec.R1, region, grid)
    if spec.I == 0.0:
        raise DomainError("relative field deviations are undefined at zero current")
    if abs(region.lo[2]) >= spec.L / 2 or abs(region.hi[2]) >= spec.L / 2:
        raise DomainError("region must lie inside the coil length")

    points = region.grid_points(grid)
    A, B = field_at(build_winding(spec, segments_per_turn), points)
    mean_A = A.mean(axis=0)
    max_rel_dev = float(
        np.max(np.linalg.norm(A - mean_A, axis=1)) / np.linalg.norm(mean_A)
    )
    ideal = annular_coil_A(spec.ideal_equivalent())
    rel_err = abs(float(mean_A[2]) - ideal) / abs(ideal)
    return HomogeneityReport(
        region=region,
        mean_A=tuple(mean_A),
        max_rel_deviation=max_rel_dev,
        max_B_magnitude=float(np.max(np.linalg.norm(B, axis=1))),
        ideal_A=ideal,
        rel_error_vs_ideal=rel_err,
        points=points,
        A=A,
        B=B,
    )
