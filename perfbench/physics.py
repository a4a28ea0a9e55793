"""Reference values the output checks compare against.

These are written independently of the program: the finite winding is
rebuilt with vectorised numpy from the geometry the program documents
(per turn an axial run at R1, a radial fragment to R2, a return run at
R2 and a radial fragment back, each layer advancing one turn spacing
per turn), A is the closed-form finite-segment potential and B the
closed-form finite-filament Biot-Savart field of Hanson & Hirshman,
Phys. Plasmas 9, 4410 (2002).
"""

import math

import numpy as np

H = 6.62607015e-34
E_CHARGE = 1.602176634e-19
M_E = 9.1093837015e-31
MU0 = 1.25663706212e-6


def turn_count(coil):
    return round(2 * math.pi * coil["R1_m"] * coil["turn_density_per_m"])


def coil_constant(coil):
    """K = mu0*N/(2pi) * ln(R2/R1), so that the bore potential is K*I."""
    return MU0 * turn_count(coil) / (2 * math.pi) * math.log(coil["R2_m"] / coil["R1_m"])


def mechanical_momentum(U):
    return math.sqrt(2 * M_E * E_CHARGE * U)


def effective_momentum(U, current, coil):
    return mechanical_momentum(U) + E_CHARGE * coil_constant(coil) * current


def winding_segments(coil, segments_per_turn=8):
    """(starts, ends) of the closed layer circuits, each of shape (n, 3)."""
    R1, R2, L = coil["R1_m"], coil["R2_m"], coil["L_m"]
    layers = coil["layers"]
    base, rem = divmod(turn_count(coil), layers)
    sub = max(1, segments_per_turn // 4)
    legs = np.array([
        (R1, -L / 2, R1, +L / 2, L),
        (R1, +L / 2, R2, +L / 2, R2 - R1),
        (R2, +L / 2, R2, -L / 2, L),
        (R2, -L / 2, R1, -L / 2, R2 - R1),
    ])
    ra, za, rb, zb, length = legs.T
    walked = np.concatenate(([0.0], np.cumsum(length)[:-1]))
    f = np.arange(sub) / sub
    r = (ra[:, None] + (rb - ra)[:, None] * f).ravel()
    z = (za[:, None] + (zb - za)[:, None] * f).ravel()
    t = ((walked[:, None] + length[:, None] * f) / (2 * L + 2 * (R2 - R1))).ravel()
    starts, ends = [], []
    for layer in range(layers):
        M = base + (1 if layer < rem else 0)
        s = coil["helicity_sign_per_layer"][layer]
        offset = 2 * math.pi * layer / (layers * max(M, 1))
        phi0 = s * 2 * math.pi * np.arange(M) / M + offset
        phi = phi0[:, None] + s * 2 * math.pi / M * t[None, :]
        pts = np.stack(
            [r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, phi.shape)], axis=-1
        ).reshape(-1, 3)
        closed = np.vstack([pts, pts[:1]])
        starts.append(closed[:-1])
        ends.append(closed[1:])
    return np.vstack(starts), np.vstack(ends)


def winding_field(coil, current, points, chunk=16):
    """A and B of the winding at `points` (n, 3); returns two (n, 3) arrays."""
    starts, ends = winding_segments(coil)
    seg = ends - starts
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    scale = MU0 * current / (4 * math.pi)
    A = np.empty_like(points)
    B = np.empty_like(points)
    for i in range(0, len(points), chunk):
        p = points[i:i + chunk, None, :]
        ri = p - starts  # (c, m, 3), start of each segment to the point
        d1 = np.linalg.norm(ri, axis=2)
        d2 = np.linalg.norm(p - ends, axis=2)
        dsum = d1 + d2
        A[i:i + chunk] = scale * np.log((dsum + seg_len) / (dsum - seg_len)) @ unit
        coef = 2 * seg_len * dsum / (d1 * d2 * (dsum**2 - seg_len**2))
        B[i:i + chunk] = scale * np.einsum("cm,cmk->ck", coef, np.cross(unit, ri))
    return A, B


def grid_points(lo, hi, grid):
    """Grid points in the program's order: x outermost, z innermost."""
    axes = [np.linspace(lo[i], hi[i], grid) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
