"""Finite annular coil as closed circuits of straight current segments.

A constructible coil is modeled as closed wire loops: for each turn an
axial run near R1, a radial fragment out to R2 at one end, a return run
near R2, and a radial fragment back at the other end. Helicity is the
azimuthal advance of one turn spacing distributed along the turn path;
layers may wind with opposite azimuthal sense so their net azimuthal
advance cancels. A Winding holds the segments as arrays.

Field evaluation sums closed forms over all segments, which are in
series and carry the one current I. A segment of length Lseg, unit
direction l_hat, start s and end e, whose ends lie at distances d1 and
d2 from the point, contributes

    A = mu0*I/(4pi) * l_hat * ln((d1 + d2 + Lseg) / (d1 + d2 - Lseg)),
    B = mu0*I/(4pi) * 2*Lseg*(d1 + d2) / (d1*d2*((d1 + d2)^2 - Lseg^2))
        * l_hat x r1,

with r1 the vector from the segment start to the point (the
finite-filament Biot-Savart field of Hanson & Hirshman, Phys. Plasmas
9, 4410 (2002)). Both are linear in I, so mu0*I/(4pi) scales the sums
once.

field_at works on (points, segments) arrays of d1, d2 and the log's
denominator gap = d1 + d2 - Lseg. Through the point of the segment
nearest to the sample, gap <= 2*distance, so only pairs with
gap < 2*WIRE_GUARD (plus a rounding margin) can lie inside the wire
guard, and only those get the exact clipped-projection distance. As
Lseg*l_hat = e - s and (e - s) x s = e x s, the B sum splits into two
matrix products,

    sum(c * Lseg*l_hat x (p - s)) = (sum(c * (e - s))) x p - sum(c * (e x s)),

with c = (d1 + d2) / (d1*d2*((d1 + d2)^2 - Lseg^2)) and e x s computed
once per call.
"""

from dataclasses import dataclass
import math

import numpy as np

from .constants import constants
from .errors import DomainError, ScenarioError, SingularityError
from .ideal_field import CoilWindingSpec  # noqa: F401  (the spec build_winding takes)
from .ideal_field import AnnularCoilIdeal, annular_coil_A, check_constructible

# Sample points closer to a wire than this are treated as singular.
WIRE_GUARD = 1e-9
# Point-segment pairs evaluated per batch in field_at; bounds the size of
# its temporary arrays.
BATCH_PAIRS = 2**14
# Largest bore sampling grid, in points; bounds the memory of a field map.
MAX_GRID_POINTS = 10**6
# Largest point-segment pair count of one homogeneity report, which bounds
# its run time (the reference winding at grid 5 needs 1.26e6 pairs).
MAX_FIELD_PAIRS = 10**9


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

    Segment k runs from starts[k] to ends[k] (both (n, 3) arrays, meters);
    every segment carries the current I (amperes).
    """

    starts: np.ndarray
    ends: np.ndarray
    I: float


@dataclass(frozen=True)
class HomogeneityReport:
    """Uniformity of the bore field sampled over a box.

    points, A and B are the (n, 3) sample points and the field there.
    """

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
    s*2pi. check_constructible rejects a winding that cannot be built,
    MAX_SEGMENTS segments included, before anything is allocated.
    """
    check_constructible(spec, segments_per_turn)
    base, rem = divmod(spec.turn_count, spec.layers)
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
    return Winding(starts=np.concatenate(starts), ends=np.concatenate(ends), I=float(spec.I))


def field_at(winding, points):
    """Vector potential A (T*m) and magnetic field B (T) of the winding.

    points is an (n, 3) array, or one 3-vector; A and B are returned as
    (n, 3) arrays. Raises SingularityError if a point lies within
    WIRE_GUARD of a segment, or so close to a long one that
    d1 + d2 - Lseg rounds to 0.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    starts, ends = winding.starts, winding.ends
    seg = ends - starts
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    end_x_start = np.cross(ends, starts)
    seg_len_sq = seg_len**2
    sx, sy, sz = starts.T
    ex, ey, ez = ends.T
    A = np.empty_like(points)
    B = np.empty_like(points)
    step = max(1, BATCH_PAIRS // len(seg))
    for i in range(0, len(points), step):
        p = points[i:i + step]
        x, y, z = p[:, 0:1], p[:, 1:2], p[:, 2:3]
        d1 = np.sqrt((x - sx) ** 2 + (y - sy) ** 2 + (z - sz) ** 2)
        d2 = np.sqrt((x - ex) ** 2 + (y - ey) ** 2 + (z - ez) ** 2)
        dsum = d1 + d2
        gap = dsum - seg_len
        if gap.min() < 2 * WIRE_GUARD + 1e-12:
            # gap <= 2*distance: only these pairs can lie inside the guard
            c, k = np.nonzero(gap < 2 * WIRE_GUARD + 1e-12)
            r1 = p[c] - starts[k]
            t = np.clip(np.einsum("nk,nk->n", r1, seg[k]) / seg_len_sq[k], 0.0, 1.0)
            dist = np.linalg.norm(r1 - t[:, None] * seg[k], axis=1)
            j = np.argmin(dist)
            if dist[j] < WIRE_GUARD:
                raise SingularityError(
                    f"point {p[c[j]].tolist()} within wire guard of segment {k[j]} "
                    f"(distance {dist[j]:.3e} m)"
                )
            # the closed forms divide by gap, which can round to 0 off the guard
            j = np.argmin(gap[c, k])
            if gap[c[j], k[j]] <= 0:
                raise SingularityError(
                    f"point {p[c[j]].tolist()} too close to segment {k[j]} for the "
                    f"closed form (distance {dist[j]:.3e} m)"
                )
        A[i:i + step] = np.log((dsum + seg_len) / gap) @ unit
        coef = dsum / (d1 * d2 * (dsum**2 - seg_len_sq))
        B[i:i + step] = np.cross(coef @ seg, p) - coef @ end_x_start
    scale = constants().mu0 * winding.I / (4 * math.pi)
    return scale * A, 2 * scale * B


def check_bore_grid(R1, region, grid):
    """Check a sampling grid of the bore; returns the per-axis point counts.

    grid is the per-axis point count (>= 2), one int or a 3-tuple, with
    at most MAX_GRID_POINTS points in all. The region must stay strictly
    inside the bore cylinder of radius R1.
    """
    if isinstance(grid, int):
        grid = (grid, grid, grid)
    if any(g < 2 for g in grid):
        raise DomainError("grid must have >= 2 points per axis")
    if math.prod(grid) > MAX_GRID_POINTS:
        raise ScenarioError(f"grid exceeds {MAX_GRID_POINTS} points")
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


def homogeneity_report(coil, region, grid, segments_per_turn=8):
    """Sample A and B on a grid inside the bore and report uniformity.

    coil is a CoilWindingSpec or an AnnularCoilIdeal, and for both the
    grid and region are checked by check_bore_grid. The ideal coil's
    bore holds exactly A = (0, 0, K*I) and B = 0, at any current. A
    winding of segments_per_turn segments per turn is built and
    evaluated: its current must be non-zero, the region must also lie
    inside the coil length, and the grid points times the winding's
    segments may not exceed MAX_FIELD_PAIRS. Every input is checked
    before anything is allocated.
    """
    grid = check_bore_grid(coil.R1, region, grid)
    if isinstance(coil, AnnularCoilIdeal):
        ideal = annular_coil_A(coil)
        points = region.grid_points(grid)
        A = np.zeros_like(points)
        A[:, 2] = ideal
        B = np.zeros_like(points)
        mean_A, max_rel_dev, rel_err = (0.0, 0.0, ideal), 0.0, 0.0
    else:
        if coil.I == 0.0:
            raise DomainError("relative field deviations are undefined at zero current")
        if abs(region.lo[2]) >= coil.L / 2 or abs(region.hi[2]) >= coil.L / 2:
            raise DomainError("region must lie inside the coil length")
        if math.prod(grid) * coil.turn_count * segments_per_turn > MAX_FIELD_PAIRS:
            raise ScenarioError(f"field evaluation exceeds {MAX_FIELD_PAIRS} point-segment pairs")

        points = region.grid_points(grid)
        A, B = field_at(build_winding(coil, segments_per_turn), points)
        mean_A = tuple(A.mean(axis=0))
        max_rel_dev = float(
            np.max(np.linalg.norm(A - mean_A, axis=1)) / np.linalg.norm(mean_A)
        )
        ideal = annular_coil_A(coil.ideal_equivalent())
        rel_err = abs(float(mean_A[2]) - ideal) / abs(ideal)
    return HomogeneityReport(
        mean_A=mean_A,
        max_rel_deviation=max_rel_dev,
        max_B_magnitude=float(np.max(np.linalg.norm(B, axis=1))),
        ideal_A=ideal,
        rel_error_vs_ideal=rel_err,
        points=points,
        A=A,
        B=B,
    )
