"""Finite annular coil as closed circuits of straight current segments.

A constructible coil is modeled as closed wire loops. In the (r, z)
half-plane each turn walks the closed path through the four corners
(R1, -L/2) -> (R1, L/2) -> (R2, L/2) -> (R2, -L/2) -> (R1, -L/2): an axial
run at R1, a radial leg out to R2 at one end, a return run at R2, and a
radial leg back at the other end. Helicity is the azimuthal advance of
one turn spacing distributed along the turn path in proportion to the
length walked; layers may wind with opposite azimuthal sense so their
net azimuthal advance cancels. A Winding holds each layer's turns as
polylines, one vertex array, so the segments of a turn chain through
shared vertices, and one current per polyline: the segments of a
polyline are in series and carry its current I.

Field evaluation sums closed forms over all segments. A segment of
length Lseg, unit direction l_hat, start s and end e, whose ends lie at
distances d1 and d2 from the point, contributes

    A = mu0*I/(4pi) * l_hat * ln((d1 + d2 + Lseg) / (d1 + d2 - Lseg)),
    B = mu0*I/(4pi) * 2*Lseg*(d1 + d2) / (d1*d2*((d1 + d2)^2 - Lseg^2))
        * l_hat x r1,

with r1 the vector from the segment start to the point (the
finite-filament Biot-Savart field of Hanson & Hirshman, Phys. Plasmas
9, 4410 (2002)). Both are linear in I, so mu0*I/(4pi) scales the sums
once per run of consecutive polylines that carry one current, not each
term: scaling a term would round it once more.

field_at takes each point's distance to every vertex once, and a
segment's d1 and d2 are those of its two consecutive vertices. It works
on (points, segments) arrays of d1, d2 and the log's denominator
gap = d1 + d2 - Lseg; B's denominator (d1 + d2)^2 - Lseg^2 is taken as
gap*(d1 + d2 + Lseg). Next to a wire gap cancels:
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
difference below double rounding; Q = M is the layer itself, and is
taken where r_max is so close to R1 that their logs are equal. The
copies of all layers form one Winding at 1 A a turn, copy by copy I =
M/Q, so the report evaluates the field in one call of field_at.
"""

from collections import namedtuple
import math
import numbers

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


class Winding(namedtuple("Winding", "vertices I")):
    """Straight current segments held as polylines.

    vertices is an (n, m, 3) array (meters) of n polylines of m vertices;
    piece i of polyline j, from vertices[j, i] to vertices[j, i + 1], is
    segment k = j*(m - 1) + i. I is the current (amperes) of each polyline:
    one float for all of them, or an (n,) array, one for each; the pieces
    of a polyline are in series and carry its current.
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
    stand for them (see _turn_copies)."""
    base, rem = divmod(spec.N, spec.layers)
    sizes = [base + 1] * rem + [base] * (spec.layers - rem)
    return [(M, min(M, max_copies)) for M in sizes]


def _turn_copies(spec, segments_per_turn, max_copies):
    """A Winding of every layer's turn copies, at 1 A a turn.

    A layer of M turns is built as Q copies of its first turn (see
    _layer_sizes), copy k rotated by k/Q of a full turn and carrying M/Q
    amperes, so Q = M is the layer itself. A turn's vertices split each of
    the four legs between the corners (R1, -L/2), (R1, L/2), (R2, L/2) and
    (R2, -L/2) into segments_per_turn // 4 equal pieces, and the last vertex
    is the first corner again. Layer with helicity sign s places turn j at
    azimuth s*2pi*j/M plus a per-layer interleaving offset, and its turn
    advances by one turn spacing over the turn path, in proportion to the
    length walked from the first corner: each turn ends where the next
    begins, and the last turn of the layer closes it. The vertices are a
    (sum of Q, segments_per_turn + 1, 3) array, layer after layer: each
    copy is the polyline of its turn, whose last vertex is where the next
    turn starts. I holds each copy's current M/Q.
    """
    R1, R2, L = spec.R1, spec.R2, spec.L
    # vertex i lies i/(segments_per_turn // 4) legs along the corner path;
    # radius, height and fraction t of the path walked go linearly between
    # corners, and the closing vertex, at t = 1, is where the next turn starts
    legs = np.arange(segments_per_turn + 1) / (segments_per_turn // 4)
    r = np.interp(legs, range(5), (R1, R1, R2, R2, R1))
    z = np.interp(legs, range(5), (-L / 2, L / 2, L / 2, -L / 2, -L / 2))
    walked = np.cumsum((0.0, L, R2 - R1, L, R2 - R1))
    t = np.interp(legs, range(5), walked) / walked[-1]

    vertices, currents = [], []
    for layer, (M, Q) in enumerate(_layer_sizes(spec, max_copies)):
        s = spec.helicity_sign_per_layer[layer]
        offset = 2 * math.pi * layer / (spec.layers * M)
        # the turn index of each copy, which is k itself when Q = M
        turn = np.arange(Q) * M / Q
        phi = (s * 2 * math.pi * turn / M + offset)[:, None] + s * 2 * math.pi / M * t
        vertices.append(
            np.stack([r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, phi.shape)], axis=-1)
        )
        currents += [M / Q] * Q
    return Winding(np.concatenate(vertices), np.array(currents))


def build_winding(spec, segments_per_turn=8):
    """Construct the coil as a Winding of closed layer circuits.

    Each turn is the closed path through the corners (R1, -L/2),
    (R1, L/2), (R2, L/2) and (R2, -L/2) of the coil's (r, z) section, and
    contributes segments_per_turn segments, its four legs subdivided
    evenly, so segments_per_turn must be a positive multiple of 4. Turns
    of one layer chain head to tail, and each layer closes
    on itself with net azimuthal advance s*2pi for its helicity sign s:
    these are the turn copies of _turn_copies with every turn copied,
    carrying the spec's current. check_constructible rejects a winding
    that cannot be built, before anything is allocated: MAX_SEGMENTS
    bounds its turns times segments_per_turn.
    """
    check_constructible(spec, segments_per_turn)
    return Winding(_turn_copies(spec, segments_per_turn, spec.N).vertices, float(spec.I))


def field_at(winding, points):
    """Vector potential A (T*m) and magnetic field B (T) of the winding.

    points is an (n, 3) array, or one 3-vector; A and B are returned as
    (n, 3) arrays. Raises DomainError if a point lies within
    WIRE_GUARD of a segment, naming the segment by its number k (see
    Winding). Each point's distance to every vertex is taken once: the
    pieces of a polyline share their inner vertices. The current is one
    per polyline, and it scales the summed terms, not the segments: each
    run of consecutive polylines with one current is summed on its own and
    scaled by that current once, so a current rounds no single term.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    I = np.broadcast_to(winding.I, len(winding.vertices))
    # the first polyline of each run of one current, then the polyline count
    cut = np.flatnonzero(np.r_[True, I[1:] != I[:-1], True])
    A, B = np.zeros_like(points), np.zeros_like(points)
    for first, end in zip(cut[:-1], cut[1:]):
        vertices = winding.vertices[first:end]
        seg = np.diff(vertices, axis=1)
        seg_len = np.linalg.norm(seg, axis=2)
        unit = seg / seg_len[..., None]
        end_x_start = np.cross(vertices[:, 1:], vertices[:, :-1]).reshape(-1, 3)
        # the pairs near a wire; as gap <= 2*distance, they hold those in the guard
        near_gap = np.maximum(NEAR_GAP * seg_len, 2 * WIRE_GUARD + 1e-12)
        vx, vy, vz = np.moveaxis(vertices, 2, 0)
        scale = MU0 * I[first] / (4 * math.pi)
        step = max(1, BATCH_PAIRS // seg_len.size)
        for i in range(0, len(points), step):
            p = points[i:i + step]
            x, y, z = p.T[..., None, None]
            d = np.sqrt((x - vx) ** 2 + (y - vy) ** 2 + (z - vz) ** 2)
            d1, d2 = d[..., :-1], d[..., 1:]
            dsum = d1 + d2
            gap = dsum - seg_len
            near = gap < near_gap
            if near.any():
                pair = np.nonzero(near)  # (point, polyline, piece) of each near pair
                c, piece = pair[0], pair[1:]
                r1 = p[c] - vertices[piece]
                t = np.einsum("nk,nk->n", r1, unit[piece])  # d1 - t = rho_sq / (d1 + t)
                u = seg_len[piece] - t  # d2 - u = rho_sq / (d2 + u)
                rho_sq = np.sum(np.cross(unit[piece], r1) ** 2, axis=1)
                a, b = d1[pair], d2[pair]
                dist = np.where(t < 0, a, np.where(u < 0, b, np.sqrt(rho_sq)))
                j = np.argmin(dist)
                if dist[j] < WIRE_GUARD:
                    k = first * seg_len.shape[1] + np.ravel_multi_index(piece, seg_len.shape)[j]
                    raise DomainError(
                        f"point {p[c[j]].tolist()} within wire guard of segment {k} "
                        f"(distance {dist[j]:.3e} m)"
                    )
                # a, b >= dist > 0, so no denominator below is 0
                gap[pair] = np.where(t > 0, rho_sq / (a + np.abs(t)), a - t) + np.where(
                    u > 0, rho_sq / (b + np.abs(u)), b - u
                )
            # the log's array stays a temporary: held in a name across the
            # batch, it slowed the loop by 15-20 %
            A[i:i + step] += scale * (np.log((dsum + seg_len) / gap).reshape(len(p), -1)
                                      @ unit.reshape(-1, 3))
            coef = (dsum / (d1 * d2 * gap * (dsum + seg_len))).reshape(len(p), -1)
            B[i:i + step] += 2 * scale * (np.cross(coef @ seg.reshape(-1, 3), p)
                                          - coef @ end_x_start)
    return A, B


def check_bore_grid(R1, region, grid):
    """Check a sampling grid of the bore; returns (grid, r_max).

    grid is the per-axis point count (>= 2), one integer or a tuple or list
    of three (any other grid is a DomainError), with at most
    MAX_GRID_POINTS points in all; the returned grid is a 3-tuple of ints.
    The region must stay strictly inside the bore cylinder of radius R1:
    r_max, its largest distance from the axis, is below R1 - WIRE_GUARD.
    """
    if isinstance(grid, numbers.Integral):
        grid = (grid, grid, grid)
    if not (isinstance(grid, (tuple, list)) and len(grid) == 3
            and all(isinstance(g, numbers.Integral) for g in grid)):
        raise DomainError(f"grid must be one integer or three integers, got {grid!r}")
    grid = tuple(map(int, grid))
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

    coil is a CoilWindingSpec or an AnnularCoilIdeal. Every input is
    checked before anything is allocated, in this order: the grid and
    region (check_bore_grid); for the ideal coil, segments_per_turn
    (check_segments_per_turn); for a winding, a non-zero current, a region
    inside the coil length, then check_constructible on the turn copies
    it builds (segments_per_turn, the turns' fit in their layers, and at
    most MAX_SEGMENTS segments, segments_per_turn times the copies summed
    over the layers), then at most MAX_FIELD_PAIRS pairs evaluated, grid
    points times those segments; last, for both, a finite bore value K*I
    (annular_coil_A). The ideal coil's bore holds exactly A = (0, 0, K*I)
    and B = 0, at any such current. Each layer of M turns of a winding is
    evaluated as Q copies of its first turn carrying M/Q amperes, with Q
    the least count that puts the aliasing error (r_max/R1)**(Q - 1)
    under 1e-17, at most M, and M where r_max rounds so close to R1 that
    their logs are equal; the copies of all layers are one Winding,
    evaluated by one field_at call.

    The field is linear in I, so the winding's statistics are taken from
    its field at 1 A, and A, B, mean_A and max_B_magnitude are then
    scaled by I once: no statistic over- or underflows at an extreme
    current, and the relative ones do not depend on I.
    """
    grid, r_max = check_bore_grid(coil.R1, region, grid)
    if isinstance(coil, AnnularCoilIdeal):
        check_segments_per_turn(segments_per_turn)
        copies = ()
    else:
        if coil.I == 0.0:
            raise DomainError("relative field deviations are undefined at zero current")
        if abs(region.lo[2]) >= coil.L / 2 or abs(region.hi[2]) >= coil.L / 2:
            raise DomainError("region must lie inside the coil length")
        # logs taken apart: r_max/R1 can underflow to 0, r_max cannot; where
        # r_max is so near R1 that the logs are one, only all turns meet the bound
        log_ratio = math.log(r_max) - math.log(coil.R1)
        max_copies = 1 + math.ceil(math.log(1e-17) / log_ratio) if log_ratio < 0 else coil.N
        copies = tuple(Q for _, Q in _layer_sizes(coil, max_copies))
        segments = check_constructible(coil, segments_per_turn, sum(copies))
        if math.prod(grid) * segments > MAX_FIELD_PAIRS:
            raise ScenarioError(f"field evaluation exceeds {MAX_FIELD_PAIRS} point-segment pairs")

    ideal = annular_coil_A(coil)
    points = region.grid_points(grid)
    if not copies:
        # the ideal bore: exact, with no reduction to round
        A, B = np.zeros_like(points), np.zeros_like(points)
        A[:, 2] = ideal
        mean_A, max_rel_dev, max_B, rel_err = (0.0, 0.0, ideal), 0.0, 0.0, 0.0
    else:
        A, B = field_at(_turn_copies(coil, segments_per_turn, max_copies), points)
        mean_A = A.mean(axis=0)
        max_rel_dev = float(np.max(np.linalg.norm(A - mean_A, axis=1)) / np.linalg.norm(mean_A))
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
