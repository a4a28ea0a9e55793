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
denominator gap = d1 + d2 - Lseg; B's denominator (d1 + d2)^2 - Lseg^2
is taken as gap*(d1 + d2 + Lseg). Next to a wire gap cancels:
a distance rho from the middle of a segment, gap is about 4*rho^2/Lseg,
which at rho = 1e-8*Lseg is below the rounding of d1 + d2. So a pair
with gap < NEAR_GAP*Lseg gets gap recomputed from t = l_hat.(p - s), the
position along the segment, u = Lseg - t and the squared distance
rho^2 = |l_hat x (p - s)|^2 from the segment's line:

    gap = (d1 - t) + (d2 - u),
    d1 - t = rho^2/(d1 + t) for t > 0,  d2 - u = rho^2/(d2 + u) for u > 0,

taking d1 - t and d2 - u as they are where t or u is not positive, so no
term cancels. Above the threshold gap keeps a relative rounding of a few
1e-16/NEAR_GAP at most. Bore maps have no pair below it (gap/Lseg >=
7.6e-4 on the benchmark boxes), so they pay only the screen. Through the
point of the segment nearest to the sample, gap <= 2*distance, so only
pairs with gap < 2*WIRE_GUARD (plus a rounding margin) can lie inside
the wire guard; the screen takes these too, and their distance comes
from t, u and rho. As Lseg*l_hat = e - s and (e - s) x s = e x s, the B
sum splits into two matrix products,

    sum(c * Lseg*l_hat x (p - s)) = (sum(c * (e - s))) x p - sum(c * (e x s)),

with c = (d1 + d2) / (d1*d2*gap*(d1 + d2 + Lseg)) and e x s computed
once per call.

homogeneity_report sums fewer turns than the winding has. A layer of M
turns is its first turn rotated M times by 2pi/M, so its field at a bore
point is M times the average over M equally spaced rotations of the
first turn's field, a smooth periodic function of the rotation angle.
In cylindrical components, the average keeps only the azimuthal
harmonics that are multiples of M. Averaging instead over Q equally
spaced copies, each carrying I*M/Q, keeps the multiples of Q. Inside
the bore a harmonic of order m of A_z falls off like (r/R1)**|m|, but
one of the transverse A_r + i*A_phi = exp(-i*phi)*(A_x + i*A_y), and so
of B's, like (r/R1)**|m + 1|, as A_x + i*A_y is smooth on the axis: the
order -Q goes like (r/R1)**(Q - 1). The relative difference from the
full layer is thus about (r_max/R1)**(Q - 1) for sample points within
r_max of the axis: the geometric convergence of the periodic
trapezoidal rule (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)). The
report takes Q = min(M, 1 + ceil(ln(1e-17) / ln(r_max/R1))), a
difference below double rounding; Q = M is the layer itself.
"""

from collections import namedtuple
import math

import numpy as np

from .constants import MU0, checked_make
from .errors import DomainError, ScenarioError
from .ideal_field import (
    AnnularCoilIdeal,
    annular_coil_A,
    check_constructible,
    check_segments_per_turn,
    coil_constant_K,
)

# Sample points closer to a wire than this are treated as singular.
WIRE_GUARD = 1e-9
# Point-segment pairs with gap = d1 + d2 - Lseg below NEAR_GAP * Lseg get
# their gap recomputed free of cancellation.
NEAR_GAP = 1e-4
# Point-segment pairs evaluated per batch in field_at; bounds the size of
# its temporary arrays.
BATCH_PAIRS = 2**14
# Largest bore sampling grid, in points; bounds the memory of a field map.
MAX_GRID_POINTS = 10**6
# Largest point-segment pair count of one homogeneity report, which bounds
# its run time. The reference winding at grid 5, in a box of half-side 2 cm,
# needs 64 000 pairs centred on the axis (copies (32, 32)) and 78 000 centred
# at (-5 mm, -5 mm, -0.5 m) (copies (39, 39)).
MAX_FIELD_PAIRS = 10**9


class Box(namedtuple("Box", "lo hi")):
    """Axis-aligned box given by its min and max corners (meters).

    The corners are finite 3-vectors with lo < hi on every axis, and the
    extent hi - lo on every axis is finite; both are tuples of floats.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, lo, hi):
        low, high = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if low.shape != (3,) or high.shape != (3,):
            raise DomainError("box corners must be 3-vectors")
        lo, hi = tuple(low.tolist()), tuple(high.tolist())
        if not all(map(math.isfinite, lo + hi)):
            raise ScenarioError("box corners must be finite")
        if not all(l < h for l, h in zip(lo, hi)):
            raise DomainError("box must have positive extent on every axis")
        # Python floats: an extent beyond the float range is inf, without a warning
        if not all(math.isfinite(h - l) for l, h in zip(lo, hi)):
            raise ScenarioError("box extent hi - lo must be finite on every axis")
        return super().__new__(cls, lo, hi)

    def grid_points(self, grid):
        """(n, 3) points of an (nx, ny, nz) grid spanning the box.

        Points run with x outermost and z innermost.
        """
        axes = [np.linspace(self.lo[i], self.hi[i], grid[i]) for i in range(3)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


class Winding(namedtuple("Winding", "starts ends I")):
    """Straight current segments held as arrays.

    Segment k runs from starts[k] to ends[k] (both (n, 3) arrays, meters);
    every segment carries the current I (amperes).
    """

    __slots__ = ()


class HomogeneityReport(
    namedtuple(
        "HomogeneityReport",
        "mean_A max_rel_deviation max_B_magnitude ideal_A rel_error_vs_ideal "
        "points A B copies",
    )
):
    """Uniformity of the bore field sampled over a box.

    mean_A              mean of A over the sample points, a 3-tuple, T*m
    max_rel_deviation   largest |A - mean_A| / |mean_A|
    max_B_magnitude     largest |B|, T
    ideal_A             the ideal coil's bore value K*I, T*m
    rel_error_vs_ideal  |mean_A[2] - ideal_A| / |ideal_A|, which is
                        |mean_A[2]/I - K| / |K| for the coil constant K
    points, A, B        the (n, 3) sample points and the field there
    copies              the number of turn copies summed for each layer of a
                        winding, and empty for the ideal coil
    """

    __slots__ = ()


def _layer_sizes(spec, max_copies):
    """(M, Q) for each layer: its M turns, the turn count spread over the
    layers, and the Q = min(M, max_copies) copies of its first turn that
    stand for them (see _layers)."""
    base, rem = divmod(spec.N, spec.layers)
    sizes = [base + 1] * rem + [base] * (spec.layers - rem)
    return [(M, min(M, max_copies)) for M in sizes]


def _layers(spec, segments_per_turn, max_copies):
    """Each layer of the winding as (M, Q, starts, ends).

    The layer of M turns is built as Q copies of its first turn (see
    _layer_sizes), copy k rotated by k/Q of a full turn, so Q = M is the
    layer itself. Layer with helicity sign s places turn j at
    azimuth s*2pi*j/M plus a per-layer interleaving offset, and its
    turn advances by one turn spacing over the turn path: each turn ends
    where the next begins, and the last turn of the layer closes it.
    The segment endpoints are (Q*segments_per_turn, 3) arrays.
    """
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

    for layer, (M, Q) in enumerate(_layer_sizes(spec, max_copies)):
        s = spec.helicity_sign_per_layer[layer]
        offset = 2 * math.pi * layer / (spec.layers * M)
        # the turn index of each copy, which is k itself when Q = M
        turn = np.arange(Q) * M / Q
        phi = (s * 2 * math.pi * turn / M + offset)[:, None] + s * 2 * math.pi / M * t
        starts = np.stack(
            [r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, phi.shape)], axis=-1
        )
        # a turn ends where the turn after it starts, at r[0], z[0]; with
        # Q = M the last turn ends exactly on the first turn's start
        phi_next = s * 2 * math.pi * ((turn + 1) % M) / M + offset
        next_start = np.stack(
            [r[0] * np.cos(phi_next), r[0] * np.sin(phi_next), np.full(Q, z[0])], axis=-1
        )
        ends = np.concatenate([starts[:, 1:], next_start[:, None]], axis=1)
        yield M, Q, starts.reshape(-1, 3), ends.reshape(-1, 3)


def build_winding(spec, segments_per_turn=8):
    """Construct the coil as a Winding of closed layer circuits.

    Each turn contributes segments_per_turn segments (the four legs,
    subdivided evenly), so segments_per_turn must be a positive multiple
    of 4. Turns of one layer chain head to tail, and each layer closes
    on itself with net azimuthal advance s*2pi for its helicity sign s
    (see _layers). check_constructible rejects a winding that cannot be
    built, MAX_SEGMENTS segments included, before anything is allocated.
    """
    check_constructible(spec, segments_per_turn)
    _, _, starts, ends = zip(*_layers(spec, segments_per_turn, spec.N))
    return Winding(starts=np.concatenate(starts), ends=np.concatenate(ends), I=float(spec.I))


def field_at(winding, points):
    """Vector potential A (T*m) and magnetic field B (T) of the winding.

    points is an (n, 3) array, or one 3-vector; A and B are returned as
    (n, 3) arrays. Raises DomainError if a point lies within
    WIRE_GUARD of a segment.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    starts, ends = winding.starts, winding.ends
    seg = ends - starts
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    end_x_start = np.cross(ends, starts)
    # the pairs near a wire; as gap <= 2*distance, they hold those in the guard
    near_gap = np.maximum(NEAR_GAP * seg_len, 2 * WIRE_GUARD + 1e-12)
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
        near = gap < near_gap
        if near.any():
            c, k = np.nonzero(near)
            r1 = p[c] - starts[k]
            t = np.einsum("nk,nk->n", r1, unit[k])  # d1 - t = rho_sq / (d1 + t)
            u = seg_len[k] - t  # d2 - u = rho_sq / (d2 + u)
            rho_sq = np.sum(np.cross(unit[k], r1) ** 2, axis=1)
            a, b = d1[c, k], d2[c, k]
            dist = np.where(t < 0, a, np.where(u < 0, b, np.sqrt(rho_sq)))
            j = np.argmin(dist)
            if dist[j] < WIRE_GUARD:
                raise DomainError(
                    f"point {p[c[j]].tolist()} within wire guard of segment {k[j]} "
                    f"(distance {dist[j]:.3e} m)"
                )
            # a, b >= dist > 0, so no denominator below is 0
            g = np.where(t > 0, rho_sq / (a + np.abs(t)), a - t) + np.where(
                u > 0, rho_sq / (b + np.abs(u)), b - u
            )
            gap[c, k] = g
        A[i:i + step] = np.log((dsum + seg_len) / gap) @ unit
        coef = dsum / (d1 * d2 * gap * (dsum + seg_len))
        B[i:i + step] = np.cross(coef @ seg, p) - coef @ end_x_start
    scale = MU0 * winding.I / (4 * math.pi)
    return scale * A, 2 * scale * B


def check_bore_grid(R1, region, grid):
    """Check a sampling grid of the bore; returns (grid, r_max).

    grid is the per-axis point count (>= 2), one int or a 3-tuple, with
    at most MAX_GRID_POINTS points in all; the returned grid is a
    3-tuple. The region must stay strictly inside the bore cylinder of
    radius R1: r_max, its largest distance from the axis, is below
    R1 - WIRE_GUARD.
    """
    if isinstance(grid, int):
        grid = (grid, grid, grid)
    if any(g < 2 for g in grid):
        raise DomainError("grid must have >= 2 points per axis")
    if math.prod(grid) > MAX_GRID_POINTS:
        raise ScenarioError(f"grid exceeds {MAX_GRID_POINTS} points")
    (x0, y0, _), (x1, y1, _) = region
    r_max = max(math.hypot(x, y) for x in (x0, x1) for y in (y0, y1))
    if r_max >= R1 - WIRE_GUARD:
        raise DomainError(
            f"region transverse extent {r_max:.4g} m reaches the "
            f"winding at R1 = {R1} m"
        )
    return grid, r_max


def homogeneity_report(coil, region, grid, segments_per_turn=8):
    """Sample A and B on a grid inside the bore and report uniformity.

    coil is a CoilWindingSpec or an AnnularCoilIdeal, and for both the
    grid and region are checked by check_bore_grid and the bore value K*I
    must be finite (annular_coil_A). The ideal coil's segments_per_turn
    is checked by check_segments_per_turn, and its bore holds exactly
    A = (0, 0, K*I) and B = 0, at any such current. A winding of
    segments_per_turn segments per turn must be constructible
    (check_constructible), its current must be non-zero, and the region
    must also lie inside the coil length. Every input is checked before
    anything is allocated. Each layer of M turns is evaluated as Q copies
    of its first turn carrying M/Q amperes, with Q the least count that
    puts the aliasing error (r_max/R1)**(Q - 1) under 1e-17, at most M,
    and the pairs evaluated, grid points times segments_per_turn times
    the copies summed over the layers, may not exceed MAX_FIELD_PAIRS.

    The field is linear in I, so the winding's statistics are taken from
    its field at 1 A, and A, B, mean_A and max_B_magnitude are then
    scaled by I once: no statistic over- or underflows at an extreme
    current, and the relative ones do not depend on I.
    """
    grid, r_max = check_bore_grid(coil.R1, region, grid)
    if isinstance(coil, AnnularCoilIdeal):
        check_segments_per_turn(segments_per_turn)
        ideal = annular_coil_A(coil)
        points = region.grid_points(grid)
        A = np.zeros_like(points)
        A[:, 2] = ideal
        B = np.zeros_like(points)
        mean_A, max_rel_dev, max_B, rel_err, copies = (0.0, 0.0, ideal), 0.0, 0.0, 0.0, ()
    else:
        check_constructible(coil, segments_per_turn)
        if coil.I == 0.0:
            raise DomainError("relative field deviations are undefined at zero current")
        if abs(region.lo[2]) >= coil.L / 2 or abs(region.hi[2]) >= coil.L / 2:
            raise DomainError("region must lie inside the coil length")
        ideal = annular_coil_A(coil)
        # logs taken apart: r_max/R1 can underflow to 0, r_max cannot
        max_copies = 1 + math.ceil(math.log(1e-17) / (math.log(r_max) - math.log(coil.R1)))
        copies = tuple(Q for _, Q in _layer_sizes(coil, max_copies))
        if math.prod(grid) * sum(copies) * segments_per_turn > MAX_FIELD_PAIRS:
            raise ScenarioError(f"field evaluation exceeds {MAX_FIELD_PAIRS} point-segment pairs")

        points = region.grid_points(grid)
        A, B = np.zeros_like(points), np.zeros_like(points)
        for M, Q, starts, ends in _layers(coil, segments_per_turn, max_copies):
            A_layer, B_layer = field_at(Winding(starts, ends, M / Q), points)
            A += A_layer
            B += B_layer
        mean_A = A.mean(axis=0)
        max_rel_dev = float(
            np.max(np.linalg.norm(A - mean_A, axis=1)) / np.linalg.norm(mean_A)
        )
        max_B = float(np.max(np.linalg.norm(B, axis=1))) * abs(coil.I)
        K = coil_constant_K(coil)
        rel_err = abs(float(mean_A[2]) - K) / abs(K)
        A *= coil.I
        B *= coil.I
        mean_A = tuple(mean_A * coil.I)
    return HomogeneityReport(
        mean_A=mean_A,
        max_rel_deviation=max_rel_dev,
        max_B_magnitude=max_B,
        ideal_A=ideal,
        rel_error_vs_ideal=rel_err,
        points=points,
        A=A,
        B=B,
        copies=copies,
    )
