import math
import re

from hypothesis import assume, given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from coilfringe.constants import MU0
from coilfringe.errors import DomainError, ScenarioError
from coilfringe.ideal_field import (
    MAX_SEGMENTS,
    AnnularCoilIdeal,
    CoilWindingSpec,
    annular_coil_A,
    check_constructible,
    coil_constant_K,
)
from coilfringe.winding import (
    BATCH_PAIRS,
    MAX_FIELD_PAIRS,
    MAX_GRID_POINTS,
    WIRE_GUARD,
    Box,
    Winding,
    _turn_copies,
    build_winding,
    check_bore_grid,
    field_at,
    homogeneity_report,
)


def paper_coil(L=6.0, layers=2, helicity=(1, -1), I=1.0, turn_density=2000.0):
    return CoilWindingSpec(
        R1=0.1,
        R2=0.12,
        L=L,
        turn_density=turn_density,
        layers=layers,
        helicity_sign_per_layer=tuple(helicity),
        wire_diameter=1e-3,
        I=I,
    )


def segment(start, end, I):
    """Winding of one straight segment."""
    return Winding(vertices=np.array([[start, end]], dtype=float), I=float(I))


def segment_ends(winding):
    """(starts, ends) of the winding's segments, (n, 3) arrays in segment order."""
    v = winding.vertices
    return v[:, :-1].reshape(-1, 3), v[:, 1:].reshape(-1, 3)


def A_at(winding, p):
    return field_at(winding, p)[0][0]


def B_at(winding, p):
    return field_at(winding, p)[1][0]


def _curl_fd(field, p, h):
    """Central-difference curl of a 3-vector field at p with step h."""
    p = np.asarray(p, dtype=float)
    eye = np.eye(3) * h
    grad = [(field(p + eye[i]) - field(p - eye[i])) / (2 * h) for i in range(3)]
    return np.array(
        [
            grad[1][2] - grad[2][1],
            grad[2][0] - grad[0][2],
            grad[0][1] - grad[1][0],
        ]
    )


def _field_at_per_pair(winding, points):
    """Reference kernel: the closed forms with (points, segments, 3) arrays.

    Each batch checks every pair's clipped-projection distance against
    WIRE_GUARD, and B sums coef * l_hat x r1 pair by pair. The closed
    forms divide by (d1 + d2)**2 - Lseg**2 = 2*(d1*d2 + r1.r2), which is
    computed as 2*|r1 x r2|**2 / (d1*d2 + |r1.r2|) where r1 and r2 point
    apart, so it does not cancel next to the wire.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    starts, ends = segment_ends(winding)
    seg = ends - starts
    seg_len_sq = np.einsum("ij,ij->i", seg, seg)
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    scale = MU0 * winding.I / (4 * math.pi)
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
            raise DomainError(
                f"point {points[i + c].tolist()} within wire guard of segment {k} "
                f"(distance {dist[c, k]:.3e} m)"
            )
        r2 = p - ends
        d1 = np.linalg.norm(r1, axis=2)
        d2 = np.linalg.norm(r2, axis=2)
        dsum = d1 + d2
        prod, dot = d1 * d2, np.einsum("cmk,cmk->cm", r1, r2)
        den = 2 * np.where(
            dot < 0, np.sum(np.cross(r1, r2) ** 2, axis=2) / (prod + np.abs(dot)), prod + dot
        )
        A[i:i + step] = (scale * np.log((dsum + seg_len) ** 2 / den)) @ unit
        coef = scale * 2 * seg_len * dsum / (d1 * d2 * den)
        B[i:i + step] = np.einsum("cm,cmk->ck", coef, np.cross(unit, r1))
    return A, B


def _distances(winding, points):
    """(points, segments) distances from each point to each segment."""
    starts, ends = segment_ends(winding)
    seg = ends - starts
    r1 = np.asarray(points, dtype=float)[:, None, :] - starts
    t = np.clip(np.einsum("cmk,mk->cm", r1, seg) / np.einsum("mk,mk->m", seg, seg), 0.0, 1.0)
    return np.linalg.norm(r1 - t[..., None] * seg, axis=2)


class TestBuildWinding:
    def test_turn_count_matches_inner_circumference_density(self):
        assert paper_coil().N == 1257

    def test_segment_count(self):
        # each turn is a polyline of segments_per_turn chained segments and
        # every layer closes on itself with no extra closure segment
        spec = paper_coil()
        for segments_per_turn in (4, 8):
            w = build_winding(spec, segments_per_turn)
            assert w.vertices.shape == (spec.N, segments_per_turn + 1, 3)
            assert w.I == spec.I

    @pytest.mark.parametrize("segments_per_turn", [4, 8, 16, 64])
    def test_turns_chain_and_layers_close(self, segments_per_turn):
        # a turn's last vertex is the next turn's first, and the last turn
        # of a layer ends on the layer's first vertex
        spec = paper_coil(L=2.0, layers=3, helicity=(1, -1, 1))
        v = build_winding(spec, segments_per_turn).vertices
        base, rem = divmod(spec.N, spec.layers)
        first = 0
        for layer in range(spec.layers):
            layer_v = v[first:first + base + (layer < rem)]
            first += len(layer_v)
            assert np.max(np.abs(layer_v[:-1, -1] - layer_v[1:, 0])) <= 1e-15
            assert np.max(np.abs(layer_v[-1, -1] - layer_v[0, 0])) <= 1e-15
        assert first == spec.N

    def test_net_axial_ampere_turns_through_midplane(self):
        # signed crossings of z=0 inside the bore annulus: every inner
        # axial run carries +I upward once
        spec = paper_coil()
        w = build_winding(spec, segments_per_turn=4)
        starts, ends = segment_ends(w)
        mid = (spec.R1 + spec.R2) / 2
        za, zb = starts[:, 2], ends[:, 2]
        crossing = ((za < 0) & (0 <= zb)) | ((zb < 0) & (0 <= za))
        inner = np.hypot(starts[:, 0], starts[:, 1]) < mid
        signed = np.where(zb > za, w.I, -w.I)
        net = signed[crossing & inner].sum()
        assert net == pytest.approx(spec.N * spec.I)

    def test_helicity_mirrored_axial_geometry(self):
        a = build_winding(paper_coil(helicity=(1, -1)), 4).vertices.reshape(-1, 3)
        b = build_winding(paper_coil(helicity=(1, 1)), 4).vertices.reshape(-1, 3)
        # same radii/z structure, only the azimuthal advance differs
        za = np.sort(np.round(a[:, 2], 12))
        zb = np.sort(np.round(b[:, 2], 12))
        assert np.array_equal(za, zb)
        ra = np.sort(np.round(np.hypot(a[:, 0], a[:, 1]), 9))
        rb = np.sort(np.round(np.hypot(b[:, 0], b[:, 1]), 9))
        assert np.array_equal(ra, rb)

    def test_overlapping_turns_rejected(self):
        spec = CoilWindingSpec(
            R1=0.1,
            R2=0.12,
            L=1.0,
            turn_density=2000.0,
            layers=1,
            helicity_sign_per_layer=(1,),
            wire_diameter=1e-3,
            I=1.0,
        )
        with pytest.raises(DomainError, match="turns overlap"):
            build_winding(spec, 4)

    def test_overlap_beyond_rounding_rejected(self):
        # a wire 1e-9 relative wider than the per-layer turn spacing of
        # 1/1000 m overlaps; only a rounding of 1e-12 is let through
        spec = paper_coil(L=1.0)._replace(wire_diameter=(1 + 1e-9) / 1000)
        with pytest.raises(DomainError, match="turns overlap"):
            check_constructible(spec, 4)
        assert check_constructible(spec._replace(wire_diameter=1e-3), 4) == spec.N * 4

    @pytest.mark.parametrize("segments_per_turn", [4, 8, 16, 64])
    def test_matches_turn_by_turn_construction(self, segments_per_turn):
        # reference: walk each layer turn by turn, leg by leg
        spec = paper_coil(L=2.0, layers=3, helicity=(1, -1, 1))
        legs = (
            (spec.R1, -1.0, spec.R1, 1.0, 2.0),
            (spec.R1, 1.0, spec.R2, 1.0, spec.R2 - spec.R1),
            (spec.R2, 1.0, spec.R2, -1.0, 2.0),
            (spec.R2, -1.0, spec.R1, -1.0, spec.R2 - spec.R1),
        )
        perimeter = 2 * 2.0 + 2 * (spec.R2 - spec.R1)
        pieces = segments_per_turn // 4
        base, rem = divmod(spec.N, spec.layers)
        turns = []
        for layer, s in enumerate(spec.helicity_sign_per_layer):
            M = base + (1 if layer < rem else 0)
            pts = []
            for j in range(M):
                phi0 = s * 2 * math.pi * j / M + 2 * math.pi * layer / (spec.layers * M)
                walked = 0.0
                for ra, za, rb, zb, length in legs:
                    for k in range(pieces):
                        f = k / pieces
                        phi = phi0 + s * 2 * math.pi / M * (walked + length * f) / perimeter
                        r = ra + (rb - ra) * f
                        pts.append((r * math.cos(phi), r * math.sin(phi), za + (zb - za) * f))
                    walked += length
            # each turn ends on the next turn's first vertex, the last on the first turn's
            pts.append(pts[0])
            n = segments_per_turn
            turns += [pts[n * j:n * j + n + 1] for j in range(M)]
        w = build_winding(spec, segments_per_turn)
        assert np.allclose(w.vertices, turns, rtol=0, atol=1e-14)
        assert w.I == spec.I

    def test_fewer_turns_than_layers_rejected(self):
        spec = CoilWindingSpec(
            R1=0.1,
            R2=0.12,
            L=1.0,
            turn_density=1.0,  # one turn in all
            layers=2,
            helicity_sign_per_layer=(1, -1),
            wire_diameter=1e-3,
            I=1.0,
        )
        with pytest.raises(DomainError, match="1 turns cannot fill 2 layers"):
            build_winding(spec, 4)

    def test_non_finite_geometry_rejected(self):
        with pytest.raises(DomainError):
            build_winding(paper_coil(L=float("nan")), 4)

    def test_turn_path_checked_as_it_is_summed(self):
        # 2*L + 2*(R2 - R1) is finite here, but the corner-to-corner sum
        # that each vertex's share of the turn path is divided by overflows
        spec = paper_coil()._replace(L=2.0**1023 - 2.0**973, R2=2.0**973 - 2.0**970)
        assert math.isfinite(2 * spec.L + 2 * (spec.R2 - spec.R1))
        with pytest.raises(DomainError, match="^segment endpoints must be finite$"):
            check_constructible(spec, 4)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        with pytest.raises(DomainError, match="^segment endpoints must be finite$"):
            homogeneity_report(spec, region, 2)

    @pytest.mark.parametrize(
        "spec, segments_per_turn",
        [
            (paper_coil(), 4),
            (paper_coil(L=2.0, layers=3, helicity=(1, -1, 1)), 8),
            (paper_coil(), 6),  # not a multiple of 4
            (paper_coil(L=1e308), 4),  # the turn path overflows
            (paper_coil(L=float("inf")), 4),
            (CoilWindingSpec(0.1, 1e308, 1.0, 2000.0, 2, (1, -1), 1e-3, 1.0), 4),
            (CoilWindingSpec(0.1, 0.12, 1.0, 2000.0, 1, (1,), 1e-3, 1.0), 4),  # overlap
            (CoilWindingSpec(0.1, 0.12, 1.0, 1.0, 2, (1, -1), 1e-3, 1.0), 4),  # 1 turn
            (CoilWindingSpec(0.1, 0.12, 1.0, 1e6, 2, (1, -1), 1e-9, 1.0), 4),  # 2.5e6 segments
            # overlap, and 1 005 308 segments
            (CoilWindingSpec(0.1, 0.12, 12.0, 4e5, 2, (1, -1), 1e-3, 1.0), 4),
        ],
    )
    def test_constructibility_check_agrees_with_build(self, spec, segments_per_turn):
        # validate-coil reports the check's count instead of building
        try:
            winding = build_winding(spec, segments_per_turn)
        except (DomainError, ScenarioError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                check_constructible(spec, segments_per_turn)
        else:
            n, m, _ = winding.vertices.shape
            assert check_constructible(spec, segments_per_turn) == n * (m - 1)

    def test_geometry_is_checked_before_the_segment_count(self):
        # one order: a coil whose turns overlap and are past MAX_SEGMENTS
        # reports the overlap, whether it is checked or built
        spec = CoilWindingSpec(0.1, 0.12, 12.0, 4e5, 2, (1, -1), 1e-3, 1.0)
        assert spec.N * 4 == 1_005_308 > MAX_SEGMENTS
        for check in (check_constructible, build_winding):
            with pytest.raises(DomainError, match="^turns overlap: "):
                check(spec, 4)

    def test_turns_counts_the_turns_to_build(self):
        # the segment limit counts the turns it is given, all spec.N by default
        spec = paper_coil(L=12.0, turn_density=318310.0)._replace(wire_diameter=1e-6)
        assert check_constructible(spec, 8, 22) == 176
        assert check_constructible(spec, 8, MAX_SEGMENTS // 8) == MAX_SEGMENTS
        with pytest.raises(ScenarioError, match="^winding exceeds"):
            check_constructible(spec, 8, MAX_SEGMENTS // 8 + 1)
        with pytest.raises(ScenarioError, match="^winding exceeds"):
            check_constructible(spec, 8)

    def test_minimum_segments_per_turn(self):
        # the four legs are subdivided evenly, so only multiples of 4 work
        for segments_per_turn in (3, 6, 10):
            with pytest.raises(DomainError):
                build_winding(paper_coil(), segments_per_turn)


class TestSegmentA:
    def test_symmetric_segment_is_parallel(self):
        A = A_at(segment((0, 0, -1), (0, 0, 1), 2.0), (0.3, 0.0, 0.0))
        assert A[0] == 0.0 and A[1] == 0.0
        assert A[2] > 0

    def test_zero_current(self):
        A, B = field_at(segment((0, 0, -1), (0, 0, 1), 0.0), (0.5, 0.2, 0.1))
        assert np.all(A == 0.0)
        assert np.all(B == 0.0)

    def test_split_additivity(self):
        p = np.array([0.2, -0.1, 0.35])
        full = segment((0, 0, -1), (0, 0, 1), 1.5)
        half1 = segment((0, 0, -1), (0, 0, 0.1), 1.5)
        half2 = segment((0, 0, 0.1), (0, 0, 1), 1.5)
        combined = A_at(half1, p) + A_at(half2, p)
        assert np.allclose(A_at(full, p), combined, rtol=1e-13, atol=1e-25)

    def test_long_segment_approaches_infinite_wire_difference(self):
        # A(r1) - A(r2) -> -mu0 I/(2pi) ln(r1/r2) as the segment grows
        seg = segment((0, 0, -5000), (0, 0, 5000), 1.0)
        d = A_at(seg, (0.5, 0, 0))[2] - A_at(seg, (1.0, 0, 0))[2]
        expected = -MU0 * 1.0 / (2 * math.pi) * math.log(0.5)
        assert d == pytest.approx(expected, rel=1e-6)

    def test_guard_rejection(self):
        seg = segment((0, 0, -1), (0, 0, 1), 1.0)
        with pytest.raises(DomainError, match="within wire guard of segment 0"):
            field_at(seg, (0.0, 0.0, 0.5))
        # every point of a batch is checked, not only the first
        with pytest.raises(DomainError, match="within wire guard of segment 0"):
            field_at(seg, [(0.3, 0.0, 0.0), (0.0, 0.0, 0.5)])

    # at the midpoint of a 1 mm segment along z, and past either end
    GUARD_PROBES = (
        lambda d: (d, 0.0, 5e-4),
        lambda d: (0.0, 0.0, -d),
        lambda d: (0.0, 0.0, 1e-3 + d),
        lambda d: (d / math.sqrt(2), -d / math.sqrt(2), 1e-3),
    )

    @pytest.mark.parametrize("probe", GUARD_PROBES)
    def test_guard_boundary(self, probe):
        seg = segment((0, 0, 0), (0, 0, 1e-3), 1.0)
        with pytest.raises(DomainError, match="within wire guard of segment 0"):
            field_at(seg, probe(0.99 * WIRE_GUARD))
        A, B = field_at(seg, probe(1.01 * WIRE_GUARD))
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
        assert A[0, 2] > 0

    def test_guard_message_names_nearest_pair(self):
        # two polylines of two pieces: segments 0 and 1 along x = 0, 2 and 3 along x = 1
        w = Winding(
            vertices=np.array([[(x, 0.0, 0.0), (x, 0.0, 1.0), (x, 0.0, 2.0)] for x in (0.0, 1.0)]),
            I=1.0,
        )
        points = [(0.5, 0.0, 0.5), (5e-10, 0.0, 0.25), (1.0, 3e-10, 1.5)]
        with pytest.raises(DomainError, match="within wire guard") as new:
            field_at(w, points)
        with pytest.raises(DomainError, match="within wire guard") as ref:
            _field_at_per_pair(w, points)
        assert str(new.value) == str(ref.value)
        assert "segment 3 (distance 3.000e-10 m)" in str(new.value)

    @pytest.mark.parametrize("rho", [5e-9, 2e-8, 1e-7, 1e-6])
    def test_field_next_to_a_long_segment(self, rho):
        # d1 + d2 - L cancels within about 1e-8*L of a wire, so the gap of
        # such a pair is recomputed from rho**2; beside the midpoint and
        # past either end, A and B keep full precision
        seg = segment((0, 0, 0), (0, 0, 1), 1.0)
        points = [(rho, 0.0, 0.5), (rho, 0.0, -rho), (0.0, rho, 1.0 + rho)]
        A, B = field_at(seg, points)
        # at the midpoint B = mu0*I/(4pi*rho) * L/sqrt((L/2)**2 + rho**2), along +y
        mid = MU0 / (4 * math.pi * rho) / math.sqrt(0.25 + rho**2)
        assert B[0, 1] == pytest.approx(mid, rel=1e-13)
        for i, p in enumerate(points):
            A_ref, B_ref = _segment_field_mp((0, 0, 0), (0, 0, 1), p, 1.0)
            assert np.linalg.norm(A[i] - A_ref) <= 1e-13 * np.linalg.norm(A_ref)
            assert np.linalg.norm(B[i] - B_ref) <= 1e-13 * np.linalg.norm(B_ref)


def _segment_field_mp(start, end, point, I):
    """A and B of the segment start -> end at point, from the closed forms
    evaluated at 50 digits on the exact values of the float inputs."""
    with mpmath.workdps(50):
        s, e, p = ([mpmath.mpf(float(v)) for v in x] for x in (start, end, point))
        seg = [b - a for a, b in zip(s, e)]
        r1 = [b - a for a, b in zip(s, p)]
        L = mpmath.sqrt(sum(v * v for v in seg))
        d1 = mpmath.sqrt(sum(v * v for v in r1))
        d2 = mpmath.sqrt(sum((b - a) ** 2 for a, b in zip(e, p)))
        scale = mpmath.mpf(MU0) * I / (4 * mpmath.pi)
        A_coef = scale * mpmath.log((d1 + d2 + L) / (d1 + d2 - L)) / L
        B_coef = scale * 2 * (d1 + d2) / (d1 * d2 * ((d1 + d2) ** 2 - L**2))
        cross = [seg[(i + 1) % 3] * r1[(i + 2) % 3] - seg[(i + 2) % 3] * r1[(i + 1) % 3]
                 for i in range(3)]
        return (np.array([float(A_coef * v) for v in seg]),
                np.array([float(B_coef * v) for v in cross]))


@given(
    start=st.tuples(*[st.floats(-0.01, 0.01)] * 3),
    direction=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
    length=st.floats(1e-3, 0.1),
    t=st.floats(-0.5, 1.5),
    rho=st.floats(math.log(1.01 * WIRE_GUARD), math.log(1e-2)).map(math.exp),
    normal_angle=st.floats(0.0, 2 * math.pi),
)
def test_field_at_near_a_wire_matches_mpmath(start, direction, length, t, rho, normal_angle):
    # a point rho from the line of a short segment, beside it or past an end
    s = np.array(start)
    theta, phi = direction
    u = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    n1 = np.cross(u, (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0))
    n1 /= np.linalg.norm(n1)
    n = math.cos(normal_angle) * n1 + math.sin(normal_angle) * np.cross(u, n1)
    e = s + length * u
    p = s + t * length * u + rho * n
    A, B = field_at(segment(s, e, 1.0), p)
    A_ref, B_ref = _segment_field_mp(s, e, p, 1.0)
    # rounding in p - s and in the B sum's (e - s) x p - e x s moves the
    # point by about eps*(|p| + |s| + L), which changes B by that over rho;
    # pairs just above the recomputed gap keep about 1e-12 of cancellation
    eps = np.finfo(float).eps
    rtol = 1e-11 + 8 * eps * (np.linalg.norm(p) + np.linalg.norm(s) + length) / rho
    assert np.linalg.norm(A[0] - A_ref) <= rtol * np.linalg.norm(A_ref)
    assert np.linalg.norm(B[0] - B_ref) <= rtol * np.linalg.norm(B_ref)


# windings: a chain of 1 to 6 segments inside a 2 m cube, one current
vertex = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)


@given(
    vertices=st.lists(vertex, min_size=2, max_size=7),
    current=st.floats(-10.0, 10.0, allow_nan=False),
    points=st.lists(vertex, min_size=1, max_size=8),
)
def test_field_at_matches_per_pair_kernel(vertices, current, points):
    v = np.array(vertices)
    assume(np.all(np.linalg.norm(np.diff(v, axis=0), axis=1) > 1e-3))
    w = Winding(vertices=v[None], I=current)
    points = np.array(points)
    assume(_distances(w, points).min() >= 1e-6)
    A, B = field_at(w, points)
    A_ref, B_ref = _field_at_per_pair(w, points)
    # size of the summed terms: |scale * log| for A, and for B
    # |coef| * (|p| + |s|), since B is summed as coef*(l_hat x p - l_hat x s)
    starts, ends = segment_ends(w)
    r1 = points[:, None, :] - starts
    d1 = np.linalg.norm(r1, axis=2)
    d2 = np.linalg.norm(points[:, None, :] - ends, axis=2)
    seg_len = np.linalg.norm(ends - starts, axis=1)
    scale = MU0 * abs(current) / (4 * math.pi)
    dsum = d1 + d2
    reach = np.linalg.norm(points, axis=1)[:, None] + np.linalg.norm(starts, axis=1) + seg_len
    A_size = np.sum(scale * np.log((dsum + seg_len) / (dsum - seg_len)), axis=1)
    coef = scale * 2 * seg_len * dsum / (d1 * d2 * (dsum**2 - seg_len**2))
    B_size = np.sum(
        coef * (np.linalg.norm(points, axis=1)[:, None] + np.linalg.norm(starts, axis=1)),
        axis=1,
    )
    # rounding moves a point or a segment end by about eps * reach, which
    # moves a pair's A by about scale * eps * reach / distance; the two
    # kernels round differently next to a wire. A current near 1e-308
    # makes A subnormal, so A_size counts at least as a normal number.
    eps = np.finfo(float).eps
    A_tol = 1e-12 * np.maximum(A_size, np.finfo(float).tiny) + np.sum(
        4 * eps * scale * reach / _distances(w, points), axis=1
    )
    assert np.all(np.abs(A - A_ref) <= A_tol[:, None])
    assert np.all(np.abs(B - B_ref) <= 1e-12 * B_size[:, None] + 1e-20)


class TestTurnCopies:
    """_turn_copies: each layer's Q turn copies as one Winding at 1 A a turn."""

    # 1257 turns fill two layers as 629 and 628, and 1259 three as 420, 420
    # and 419
    SPECS = {
        "1-layer": paper_coil(L=2.0, layers=1, helicity=(1,), I=2.5)._replace(wire_diameter=4e-4),
        "2-layers": paper_coil(L=2.0, I=-1.5),
        "3-layers": paper_coil(L=2.0, layers=3, helicity=(1, -1, 1), turn_density=2003.0, I=2.5),
    }

    @pytest.mark.parametrize("segments_per_turn", [4, 8])
    @pytest.mark.parametrize("name", SPECS)
    def test_every_turn_copied_is_the_winding(self, name, segments_per_turn):
        # max_copies = N copies every turn of every layer at 1 A, here Q =
        # (420, 420, 419) for three layers: build_winding's vertices bit for bit
        spec = self.SPECS[name]
        copies = _turn_copies(spec, segments_per_turn, spec.N)
        w = build_winding(spec, segments_per_turn)
        assert np.array_equal(copies.vertices, w.vertices)
        assert np.array_equal(copies.I, np.ones(spec.N))

    @pytest.mark.parametrize("max_copies", [16, 40, None])
    @pytest.mark.parametrize("name", SPECS)
    def test_copies_field_matches_the_winding(self, name, max_copies):
        # points within 7.1 mm of the axis, r/R1 <= 0.071: 16 copies put the
        # aliasing (r/R1)**(Q - 1) below 1e-17, so at 16 copies, at 40 and at
        # every turn (None) the sum differs from the winding's only by
        # rounding. The direct map's own rounding is 2-7e-14 of |A|; B, zero
        # in the bore, is rounding alone, against a scale mu0*N*I/(2pi*R1)
        # of the field inside the winding.
        spec = self.SPECS[name]
        copies = _turn_copies(spec, 8, max_copies or spec.N)
        points = Box(lo=(-0.005, -0.005, 0.2), hi=(0.005, 0.005, 0.3)).grid_points((3, 3, 3))
        A_ref, B_ref = field_at(build_winding(spec, 8), points)
        A, B = field_at(copies, points)
        A, B = spec.I * A, spec.I * B
        A_norm = np.linalg.norm(A_ref, axis=1)
        assert np.all(np.linalg.norm(A - A_ref, axis=1) <= 1e-13 * A_norm)
        scale = MU0 * spec.N * abs(spec.I) / (2 * math.pi * spec.R1)
        assert np.max(np.abs(B - B_ref)) <= 1e-13 * scale

    def test_copies_carry_their_layer_current(self):
        # 629 and 628 turns as 16 copies each: 629/16 and 628/16 A a copy
        spec = self.SPECS["2-layers"]
        copies = _turn_copies(spec, 8, 16)
        assert copies.vertices.shape == (32, 9, 3)
        assert np.array_equal(copies.I, [629 / 16] * 16 + [628 / 16] * 16)


class TestCurrentPerPolyline:
    # five polylines of the three-layer winding, from two layers, and
    # points in the bore and beside the wires
    POLYLINES = build_winding(paper_coil(L=2.0, layers=3, helicity=(1, -1, 1)), 4).vertices[417:422]
    POINTS = np.array([[0.0, 0.0, 0.0], [0.03, -0.02, 0.4], [0.11, 0.0, 0.2], [0.0, 0.15, -1.2]])

    def test_currents_sum_the_polylines(self):
        # polylines 2 and 3 carry one current, so they form one run
        I = np.array([1.5, -2.0, 0.25, 0.25, 3.0])
        A, B = field_at(Winding(self.POLYLINES, I), self.POINTS)
        parts = [field_at(Winding(v[None], float(c)), self.POINTS) for v, c in zip(self.POLYLINES, I)]
        for total, terms in ((A, [a for a, _ in parts]), (B, [b for _, b in parts])):
            # rounding: a few eps of the summed parts' sizes
            size = np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(total - np.sum(terms, axis=0)) <= 16 * np.finfo(float).eps * size)

    def test_float_current_is_an_array_of_it(self):
        for current in (2.5, -1e-3):
            A, B = field_at(Winding(self.POLYLINES, current), self.POINTS)
            A_arr, B_arr = field_at(Winding(self.POLYLINES, np.full(5, current)), self.POINTS)
            assert np.array_equal(A, A_arr) and np.array_equal(B, B_arr)

    def test_guard_names_the_segment_in_a_later_run(self):
        # a point on piece 2 of polyline 3, which starts the fourth run:
        # segment 3*4 + 2
        v = self.POLYLINES
        point = (v[3, 2] + v[3, 3]) / 2
        with pytest.raises(DomainError, match="within wire guard of segment 14 "):
            field_at(Winding(v, np.array([1.0, 2.0, 3.0, 4.0, 5.0])), point)


class TestCoilField:
    def test_center_matches_ideal_at_L_over_R2_50(self):
        spec = paper_coil(L=50 * 0.12)
        A = A_at(build_winding(spec, 8), (0.0, 0.0, 0.0))
        ideal = annular_coil_A(spec)
        assert A[2] == pytest.approx(ideal, rel=0.02)
        # transverse leakage stays small for paired opposite helicity
        assert abs(A[0]) <= 1e-3 * abs(A[2])
        assert abs(A[1]) <= 1e-3 * abs(A[2])

    def test_current_negation(self):
        spec_p = paper_coil(L=2.0)
        spec_m = paper_coil(L=2.0, I=-1.0)
        p = (0.01, 0.02, 0.05)
        Ap = A_at(build_winding(spec_p, 4), p)
        Am = A_at(build_winding(spec_m, 4), p)
        assert np.allclose(Ap, -Am, rtol=1e-14, atol=0)

    def test_marginal_fragments_cancel_transverse_at_midplane(self):
        # only the two end fragments, symmetric currents
        spec = paper_coil(L=2.0)
        starts, ends = segment_ends(build_winding(spec, 8))
        radial = (np.abs(np.abs(starts[:, 2]) - spec.L / 2) < 1e-12) & (
            np.abs(np.abs(ends[:, 2]) - spec.L / 2) < 1e-12
        )
        fragments = Winding(np.stack([starts[radial], ends[radial]], axis=1), spec.I)
        A = A_at(fragments, (0.0, 0.0, 0.0))
        assert abs(A[0]) <= 1e-10 * max(abs(A[2]), 1e-12) + 1e-20
        assert abs(A[1]) <= 1e-10 * max(abs(A[2]), 1e-12) + 1e-20

    def test_segment_split_changes_little(self):
        spec = paper_coil(L=2.0)
        a4 = A_at(build_winding(spec, 4), (0.0, 0.0, 0.0))
        a8 = A_at(build_winding(spec, 8), (0.0, 0.0, 0.0))
        assert a8[2] == pytest.approx(a4[2], rel=1e-3)


class TestCoilB:
    def test_curl_of_constant_field_is_zero(self):
        B = _curl_fd(lambda p: np.array([1.0, 2.0, 3.0]), np.zeros(3), 1e-4)
        assert np.all(np.abs(B) < 1e-10)

    def test_curl_of_linear_field(self):
        # A = (-y, x, 0)/2 has curl (0, 0, 1)
        B = _curl_fd(
            lambda p: np.array([-p[1] / 2, p[0] / 2, 0.0]), np.array([0.3, 0.1, -0.2]), 1e-5
        )
        assert np.allclose(B, [0, 0, 1], atol=1e-9)

    def test_long_wire_amperes_law(self):
        seg = segment((0, 0, -100), (0, 0, 100), 2.0)
        r = 1.0
        B = B_at(seg, (r, 0, 0))
        expected = MU0 * 2.0 / (2 * math.pi * r)
        assert np.linalg.norm(B) == pytest.approx(expected, rel=0.01)
        # field circulates: at +x the field of +z current points +y
        assert B[1] > 0

    def test_bore_field_small_vs_winding_scale(self):
        spec = paper_coil(L=12.0)
        B = B_at(build_winding(spec, 8), (0.0, 0.0, 0.0))
        assert np.linalg.norm(B) <= 1e-3 * MU0 * spec.turn_density * abs(spec.I)

    # bore, inside the winding cross-section, and outside the coil
    PROBES = (
        (0.01, 0.02, 0.05),
        (0.0, 0.0, 0.0),
        (-0.06, 0.07, -0.8),
        (0.11, 0.0, 0.0),
        (0.0, -0.105, 0.3),
        (0.08, 0.08, -0.5),
        (0.15, 0.1, 0.2),
        (0.206, 0.0, 0.0),
        (0.0, 0.3, 1.5),
    )

    def test_closed_form_B_equals_fd_curl_of_A(self):
        w = build_winding(paper_coil(L=2.0), 8)
        for p in self.PROBES:
            B_fd = _curl_fd(lambda q: A_at(w, q), p, 1e-5)
            B = B_at(w, p)
            assert np.all(np.abs(B - B_fd) <= 1e-7 * np.linalg.norm(B) + 1e-13), p

    def test_amperes_law_in_winding_cross_section(self):
        # |B| = mu0*N*I/(2 pi r), circulating in +phi, at mid-plane
        spec = paper_coil(L=2.0, I=2.5)
        w = build_winding(spec, 8)
        r = 0.11
        expected = MU0 * spec.N * spec.I / (2 * math.pi * r)
        for phi in (0.3, 2.0, 4.0):
            e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
            B = B_at(w, (r * math.cos(phi), r * math.sin(phi), 0.0))
            assert np.allclose(B, expected * e_phi, rtol=0, atol=1e-9 * expected)

    def test_field_free_in_bore_and_outside(self):
        spec = paper_coil(L=2.0, I=2.5)
        w = build_winding(spec, 8)
        scale = MU0 * spec.N * abs(spec.I) / (2 * math.pi * spec.R1)
        for p in self.PROBES:
            if spec.R1 <= math.hypot(p[0], p[1]) <= spec.R2:
                continue
            assert np.linalg.norm(B_at(w, p)) <= 1e-11 * scale, p

    @pytest.mark.parametrize("k", [1e-6, 0.37, 1e4])
    def test_A_and_B_linear_in_current(self, k):
        # relative to the largest field over the probes: B in the bore and
        # outside the coil is rounding noise of that size
        w = build_winding(paper_coil(L=2.0, I=1.5), 8)
        A, B = field_at(w, self.PROBES)
        Ak, Bk = field_at(Winding(w.vertices, w.I * k), self.PROBES)
        for F, Fk in ((A, Ak), (B, Bk)):
            assert np.max(np.abs(Fk - k * F)) <= 1e-13 * k * np.max(np.abs(F))

    def test_A_divergence_free_on_closed_circuits(self):
        # div A of a chain of segments is mu0*I/(4 pi) * (1/|p - s| - 1/|p - e|)
        # for its first start s and last end e, and 0 once it closes
        I = 1.5
        w = build_winding(paper_coil(L=2.0, I=I), 8)
        # the first 100 segments: 12 turns, then half of the 13th
        head = w.vertices[:12, :-1].reshape(-1, 3)
        chain = Winding(np.concatenate([head, w.vertices[12, :5]])[None], w.I)
        c = MU0 * I / (4 * math.pi)

        def div_A(winding, p, h=1e-5):
            return sum(
                (A_at(winding, p + h * e)[i] - A_at(winding, p - h * e)[i]) / (2 * h)
                for i, e in enumerate(np.eye(3))
            )

        tol = 1e-12  # T, about a millionth of c / R1
        largest_open = 0.0
        for p in np.array(self.PROBES):
            open_div = c * (1 / np.linalg.norm(p - chain.vertices[0, 0])
                            - 1 / np.linalg.norm(p - chain.vertices[-1, -1]))
            assert abs(div_A(chain, p) - open_div) <= tol, p
            assert abs(div_A(w, p)) <= tol, p
            largest_open = max(largest_open, abs(open_div))
        assert largest_open > 1e5 * tol

    @pytest.mark.parametrize(
        "axes, z, enclosed",
        [
            ((0.109, 0.111), 0.3, 1),  # through the winding, between R1 and R2
            ((0.03, 0.05), -1.0, 0),  # inside the bore
            ((0.13, 0.14), 0.0, 0),  # around the whole winding cross-section
        ],
    )
    def test_amperes_law_as_line_integral(self, axes, z, enclosed):
        # the circulation of B around an off-centre ellipse is mu0 * (enclosed
        # turns) * I; the trapezoid rule converges geometrically on a smooth
        # periodic integrand
        spec = paper_coil(L=6.0)
        (a, b), n = axes, 256
        theta = 2 * math.pi * np.arange(n) / n
        points = np.column_stack(
            [0.003 + a * np.cos(theta), -0.002 + b * np.sin(theta), np.full(n, z)]
        )
        tangent = np.column_stack([-a * np.sin(theta), b * np.cos(theta), np.zeros(n)])
        B = field_at(build_winding(spec, 8), points)[1]
        circulation = np.sum(B * tangent) * 2 * math.pi / n
        mu0_NI = MU0 * spec.N * spec.I
        assert abs(circulation / mu0_NI - enclosed) <= 1e-11

    def test_rotation_by_one_turn_spacing(self):
        # each layer of M turns maps onto itself under a rotation by 2pi/M
        # about the axis, so A and B rotate with the probe points
        spec = paper_coil(L=2.0, turn_density=200.0)
        M = spec.N // spec.layers
        assert M * spec.layers == spec.N  # the layers have equal M
        c, s = math.cos(2 * math.pi / M), math.sin(2 * math.pi / M)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        w = build_winding(spec, 8)
        probes = np.array(self.PROBES)
        A, B = field_at(w, probes)
        A_rot, B_rot = field_at(w, probes @ R.T)
        assert np.max(np.abs(A_rot - A @ R.T)) <= 1e-13 * np.max(np.abs(A))
        assert np.max(np.abs(B_rot - B @ R.T)) <= 1e-13 * np.max(np.abs(B))

    def test_A_and_B_flip_sign_with_current(self):
        Ap, Bp = field_at(build_winding(paper_coil(L=2.0, I=1.5), 8), self.PROBES)
        Am, Bm = field_at(build_winding(paper_coil(L=2.0, I=-1.5), 8), self.PROBES)
        assert np.allclose(Am, -Ap, rtol=1e-14, atol=0)
        assert np.allclose(Bm, -Bp, rtol=1e-14, atol=0)


class TestHomogeneityReport:
    def test_converges_to_ideal_at_long_coil(self):
        spec = paper_coil(L=100 * 0.12)
        region = Box(lo=(-0.025, -0.025, -0.025), hi=(0.025, 0.025, 0.025))
        rep = homogeneity_report(spec, region, 2)
        assert rep.rel_error_vs_ideal <= 0.01

    def test_long_coil_rate(self):
        # rel_error_vs_ideal tends to (R2^2 - R1^2)/(L^2*ln(R2/R1)), whose
        # next term falls like 1/L^4; past 12 m an error near 1e-8 relative
        # outweighs that term, so the ratio is bounded, not monotone. That
        # error comes from the straight chords that stand for the helical
        # turn path: it falls like 1/N^2 in the turn count and roughly like 1/L
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        gaps = {}
        for L in (3.0, 6.0, 12.0, 24.0, 48.0):
            spec = paper_coil(L=L)
            rep = homogeneity_report(spec, region, 2)
            leading = (spec.R2**2 - spec.R1**2) / (L**2 * math.log(spec.R2 / spec.R1))
            gaps[L] = abs(rep.rel_error_vs_ideal / leading - 1)
        assert max(gaps.values()) <= 5e-3
        assert gaps[6.0] <= gaps[3.0] / 3

    def test_short_coil_less_uniform(self):
        region = Box(lo=(-0.025, -0.025, -0.025), hi=(0.025, 0.025, 0.025))
        rep10 = homogeneity_report(paper_coil(L=10 * 0.12), region, 2)
        rep100 = homogeneity_report(paper_coil(L=100 * 0.12), region, 2)
        assert rep10.max_rel_deviation > rep100.max_rel_deviation

    def test_symmetric_region_mean_transverse_near_zero(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.02, -0.02, -0.02), hi=(0.02, 0.02, 0.02))
        rep = homogeneity_report(spec, region, 2)
        mean = np.array(rep.mean_A)
        assert abs(mean[0]) < 1e-6 * abs(mean[2])
        assert abs(mean[1]) < 1e-6 * abs(mean[2])

    def test_region_reaching_winding_rejected(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.1, -0.01, -0.01), hi=(0.1, 0.01, 0.01))
        with pytest.raises(DomainError):
            homogeneity_report(spec, region, 2)

    @pytest.mark.parametrize("lo, hi", [(-3.0, 0.01), (-0.01, 3.0)])
    def test_region_ending_on_the_coil_end_rejected(self, lo, hi):
        # the end planes z = +-L/2 hold the radial legs: a box must lie
        # strictly between them
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, lo), hi=(0.01, 0.01, hi))
        with pytest.raises(DomainError, match="^region must lie inside the coil length$"):
            homogeneity_report(spec, region, 2)

    def test_grid_minimum(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        with pytest.raises(DomainError):
            homogeneity_report(spec, region, 1)

    def test_corner_at_guard_radius_rejected(self):
        # the farthest corner lies exactly at r = R1 - WIRE_GUARD: the
        # y extent of 1e-20 m leaves its hypot at x
        spec = paper_coil(L=6.0)
        x = spec.R1 - WIRE_GUARD
        region = Box(lo=(-0.01, -1e-20, -0.01), hi=(x, 0.0, 0.01))
        assert math.hypot(x, -1e-20) == x
        with pytest.raises(DomainError, match="reaches the winding"):
            check_bore_grid(spec.R1, region, 2)

    def test_work_limits(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        assert MAX_GRID_POINTS == 100**3
        assert check_bore_grid(spec.R1, region, 100) == ((100, 100, 100), math.hypot(0.01, 0.01))
        with pytest.raises(ScenarioError, match="exceeds"):
            check_bore_grid(spec.R1, region, (100, 100, 101))
        # out to r = 0.99 * R1 each layer needs all of its turns
        wide = Box(lo=(-0.07, -0.07, -0.01), hi=(0.07, 0.07, 0.01))
        pairs_per_point = spec.N * 8
        assert 4 * 24860 * pairs_per_point <= MAX_FIELD_PAIRS < 4 * 24861 * pairs_per_point
        with pytest.raises(ScenarioError, match="exceeds"):
            homogeneity_report(spec, wide, (2, 2, 24861))

    @pytest.mark.parametrize("grid", [(2, 2), (2, 2, 2, 2), (2.5, 2, 2), 3.0, "222", None])
    def test_malformed_grid_rejected(self, grid):
        # one integer or three, nothing else: a short grid lacks an axis,
        # and a long one would be sampled on three axes but counted on four
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        for coil in (spec, AnnularCoilIdeal(spec.R1, spec.R2, spec.N, spec.I)):
            with pytest.raises(DomainError, match="^grid must be one integer or three integers"):
                homogeneity_report(coil, region, grid)

    def test_numpy_integer_grid_accepted(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        grid = check_bore_grid(spec.R1, region, np.int64(3))[0]
        assert grid == (3, 3, 3) and all(type(g) is int for g in grid)
        assert check_bore_grid(spec.R1, region, [np.int32(2), 3, np.int64(4)])[0] == (2, 3, 4)
        rep = homogeneity_report(spec, region, np.int64(3))
        assert np.array_equal(rep.A, homogeneity_report(spec, region, 3).A)

    def test_pair_limit_counts_the_evaluated_pairs(self, monkeypatch):
        # Q < M copies per layer: the limit applies to the pairs evaluated,
        # points * segments per turn * copies, not to all turns
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        rep = homogeneity_report(spec, region, 2)
        assert max(rep.copies) < spec.N // spec.layers
        pairs = 2**3 * 8 * sum(rep.copies)
        monkeypatch.setattr("coilfringe.winding.MAX_FIELD_PAIRS", pairs)
        assert homogeneity_report(spec, region, 2).copies == rep.copies
        monkeypatch.setattr("coilfringe.winding.MAX_FIELD_PAIRS", pairs - 1)
        with pytest.raises(ScenarioError, match=f"exceeds {pairs - 1} point-segment pairs"):
            homogeneity_report(spec, region, 2)

    def test_segment_limit_counts_the_built_segments(self, monkeypatch):
        # the report builds segments per turn * copies, not every turn: a
        # coil of 200000 turns, past MAX_SEGMENTS in all, is mapped from
        # 2 * 22 copies, and the limit applies to those
        spec = paper_coil(L=12.0, turn_density=318310.0)._replace(wire_diameter=1e-6)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        with pytest.raises(ScenarioError, match="winding exceeds"):
            check_constructible(spec, 8)
        rep = homogeneity_report(spec, region, 2)
        assert rep.copies == (22, 22)
        segments = 8 * sum(rep.copies)
        monkeypatch.setattr("coilfringe.ideal_field.MAX_SEGMENTS", segments)
        assert homogeneity_report(spec, region, 2).copies == rep.copies
        monkeypatch.setattr("coilfringe.ideal_field.MAX_SEGMENTS", segments - 1)
        with pytest.raises(ScenarioError, match=f"^winding exceeds {segments - 1} segments$"):
            homogeneity_report(spec, region, 2)

    def test_report_checks_the_turns_before_counting_segments(self):
        # the segment limit counts the copies, so the faults that do not
        # depend on them come first: here the current, on a coil whose
        # turns are past MAX_SEGMENTS
        spec = paper_coil(L=12.0, turn_density=318310.0, I=0.0)._replace(wire_diameter=1e-6)
        region = Box(lo=(-0.07067, -0.07067, -0.01), hi=(0.07067, 0.07067, 0.01))
        with pytest.raises(DomainError, match="undefined at zero current"):
            homogeneity_report(spec, region, 2)

    def test_report_checks_the_current_before_segments_per_turn(self):
        # a winding's segments per turn are checked with its turns, after
        # the current and the region
        spec = paper_coil(L=6.0, I=0.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        with pytest.raises(DomainError, match="undefined at zero current"):
            homogeneity_report(spec, region, 2, segments_per_turn=3)
        with pytest.raises(DomainError, match="multiple of 4"):
            homogeneity_report(spec._replace(I=1.0), region, 2, segments_per_turn=3)

    def test_report_carries_the_sampled_grid(self):
        spec = paper_coil(L=2.0)
        region = Box(lo=(-0.02, -0.01, -0.03), hi=(0.02, 0.01, 0.03))
        rep = homogeneity_report(spec, region, (2, 3, 4))
        assert rep.points.shape == rep.A.shape == rep.B.shape == (24, 3)
        # x outermost, z innermost
        assert np.array_equal(rep.points[:4, 2], np.linspace(-0.03, 0.03, 4))
        assert np.array_equal(rep.points[::12, 0], [-0.02, 0.02])
        # the layers are summed over fewer turn copies than the full winding,
        # so A and B agree with it to rounding rather than bit for bit
        A, B = field_at(build_winding(spec, 8), rep.points)
        A_norm = np.linalg.norm(A, axis=1)
        assert np.all(np.linalg.norm(rep.A - A, axis=1) <= 1e-12 * A_norm)
        assert np.max(np.abs(rep.B - B)) <= 1e-15
        assert np.allclose(rep.mean_A, A.mean(axis=0), rtol=0, atol=1e-12 * np.max(A_norm))
        assert abs(rep.max_B_magnitude - np.max(np.linalg.norm(B, axis=1))) <= 1e-15

    @pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9])
    def test_turn_copies_match_full_winding(self, ratio):
        # the Q copies of a layer's first turn differ from its M turns only
        # in the azimuthal harmonics of order Q, which fall off as
        # (r/R1)**(Q - 1) in the bore, and Q is chosen to make that < 1e-17
        spec = paper_coil(L=2.0)
        a = ratio * spec.R1 / math.sqrt(2)
        region = Box(lo=(-a, -a, 0.25), hi=(a, a, 0.35))
        rep = homogeneity_report(spec, region, 3)
        Q = min(rep.copies)
        assert max(rep.copies) < spec.N // spec.layers
        A, B = field_at(build_winding(spec, 8), rep.points)
        A_norm = np.linalg.norm(A, axis=1)
        bound = ratio**Q + 1e-13
        assert np.all(np.linalg.norm(rep.A - A, axis=1) <= bound * A_norm)
        assert np.max(np.abs(rep.B - B)) <= 1e-14

    @pytest.mark.parametrize("h", [1e-19, 1e-12, 1e-9, 0.02, 0.05])
    def test_turn_copies_match_full_winding_near_the_axis(self, h):
        # the transverse field's aliasing error goes as (r/R1)**(Q - 1), so a
        # box that hugs the axis, where Q is 1 or 2, still needs the extra copy
        spec = paper_coil(L=12.0)
        rep = homogeneity_report(spec, Box(lo=(-h, -h, -0.01), hi=(h, h, 0.01)), 2)
        A, B = field_at(build_winding(spec, 8), rep.points)
        assert np.max(np.abs(rep.A - A)) <= 1e-13 * np.max(np.abs(A))
        assert np.max(np.abs(rep.B - B)) <= 1e-16

    @pytest.mark.parametrize("turn_density", [1e18, 1e19, 2e19, 1e30])
    def test_turn_index_of_a_copy_does_not_wrap(self, turn_density):
        # from 1e19 turns a metre k*M passes 2**63, and from 1e30 M is past
        # int64 itself; the turn index k*M/Q is taken in floats, so the
        # copies stay evenly spaced and the bore stays as uniform as at 1e18
        spec = paper_coil(turn_density=turn_density)._replace(wire_diameter=1 / turn_density)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        rep = homogeneity_report(spec, region, 2)
        assert rep.max_rel_deviation < 1e-6

    def test_box_far_smaller_than_the_bore(self):
        # r_max/R1 = 1.4e-330 underflows to 0; one copy per one-turn layer
        spec = CoilWindingSpec(
            R1=1e10, R2=2e10, L=1.0, turn_density=3e-11, layers=2,
            helicity_sign_per_layer=(1, -1), wire_diameter=1e-3, I=1.0,
        )
        region = Box(lo=(-1e-320, -1e-320, -0.1), hi=(1e-320, 1e-320, 0.1))
        rep = homogeneity_report(spec, region, 2)
        assert rep.copies == (1, 1)
        assert np.isfinite(rep.A).all() and np.isfinite(rep.B).all()

    def test_box_whose_radius_rounds_to_the_bore_radius(self):
        # r_max lies below R1, but within the rounding of its log, so the
        # log ratio is 0: no fewer copies than the 63 turns meet the bound
        spec = CoilWindingSpec(
            R1=1e10, R2=2e10, L=1e12, turn_density=1e-9, layers=1,
            helicity_sign_per_layer=(1,), wire_diameter=1e-3, I=1.0,
        )
        region = Box(lo=(9999999998.999998, -0.001, -1.0), hi=(9999999999.999998, 0.001, 1.0))
        r_max = check_bore_grid(spec.R1, region, 2)[1]
        assert r_max < spec.R1 and math.log(r_max) == math.log(spec.R1)
        rep = homogeneity_report(spec, region, 2)
        assert rep.copies == (spec.N,) == (63,)
        assert np.isfinite(rep.A).all() and np.isfinite(rep.B).all()

    def test_all_turn_copies_reproduce_the_winding(self):
        # 63 turns per layer are fewer copies than the region needs, so every
        # turn is summed and the report is the full winding's field
        spec = paper_coil(L=2.0, turn_density=200.0)
        region = Box(lo=(-0.06, -0.06, -0.3), hi=(0.06, 0.06, -0.2))
        rep = homogeneity_report(spec, region, 3)
        assert rep.copies == (63, 63)
        A, B = field_at(build_winding(spec, 8), rep.points)
        A_norm = np.linalg.norm(A, axis=1)
        assert np.all(np.linalg.norm(rep.A - A, axis=1) <= 1e-13 * A_norm)
        # relative to the field inside the winding, the size of the summed terms
        scale = MU0 * spec.N * abs(spec.I) / (2 * math.pi * spec.R1)
        assert np.max(np.abs(rep.B - B)) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "turn_density, centre, grid, copies",
        [
            (2000.0, (0.0, 0.0, 0.0), 5, (32, 32)),
            (2000.0, (-0.005, -0.005, -0.5), 5, (39, 39)),
            (200.0, (0.005, -0.005, 0.5), 2, (39, 39)),
        ],
        ids=["reference-centre", "reference-off-axis", "126-turns"],
    )
    def test_benchmark_box_needs_fewer_copies_than_turns(self, turn_density, centre, grid, copies):
        # a box of half side 2 cm centred within 5 mm of the axis; the copies
        # are those that MAX_FIELD_PAIRS's comment states
        spec = paper_coil(L=12.0, turn_density=turn_density)
        region = Box(lo=tuple(c - 0.02 for c in centre), hi=tuple(c + 0.02 for c in centre))
        rep = homogeneity_report(spec, region, grid)
        assert rep.copies == copies
        assert all(Q < spec.N // spec.layers for Q in rep.copies)

    @pytest.mark.parametrize("I", [2.5, 0.0])
    def test_ideal_coil_report_is_exact(self, I):
        # the ideal bore holds A = (0, 0, K*I) and B = 0, also at zero current
        coil = AnnularCoilIdeal(R1=0.1, R2=0.12, N=1257, I=I)
        region = Box(lo=(-0.02, -0.01, -0.03), hi=(0.02, 0.01, 0.03))
        rep = homogeneity_report(coil, region, (2, 3, 4))
        ideal = annular_coil_A(coil)
        assert rep.mean_A == (0.0, 0.0, ideal)
        assert rep.ideal_A == ideal
        assert rep.max_rel_deviation == rep.max_B_magnitude == rep.rel_error_vs_ideal == 0.0
        assert np.array_equal(rep.points, region.grid_points((2, 3, 4)))
        assert np.array_equal(rep.A, np.tile([0.0, 0.0, ideal], (24, 1)))
        assert np.array_equal(rep.B, np.zeros((24, 3)))
        with pytest.raises(DomainError):
            homogeneity_report(coil, Box(lo=(-0.1, -0.01, -0.01), hi=(0.1, 0.01, 0.01)), 2)


def finite_coil_axis_Az(spec, z):
    """A_z on the axis of the finite coil, from the axial runs of its turns.

    mu0*N*I/(4pi) * sum over R1 (+) and R2 (-) of
    asinh((L/2 - z)/R) + asinh((L/2 + z)/R); on the axis the transverse
    A of the radial legs cancels.
    """
    total = 0.0
    for R, sign in ((spec.R1, 1.0), (spec.R2, -1.0)):
        total += sign * (math.asinh((spec.L / 2 - z) / R) + math.asinh((spec.L / 2 + z) / R))
    return MU0 * spec.N * spec.I / (4 * math.pi) * total


def finite_coil_axis_flux(spec, T):
    """The integral of finite_coil_axis_Az over [-T, T], in closed form and
    in mpmath: each asinh term integrates to F(L/2 + T) - F(L/2 - T), where
    F(x) = x*asinh(x/R) - sqrt(x**2 + R**2) is the antiderivative of asinh(x/R)."""
    half, T = mpmath.mpf(spec.L) / 2, mpmath.mpf(T)
    total = 0
    for R, sign in ((mpmath.mpf(spec.R1), 1), (mpmath.mpf(spec.R2), -1)):
        F = [x * mpmath.asinh(x / R) - mpmath.sqrt(x**2 + R**2) for x in (half + T, half - T)]
        total += sign * 2 * (F[0] - F[1])
    return MU0 * spec.N * mpmath.mpf(spec.I) / (4 * mpmath.pi) * total


def axis_flux_tail(spec, T):
    """The part of the axis integral beyond |z| = T, as a fraction of K*I*L.

    asinh(x/R) = ln(2x/R) + R**2/(4x**2) - ..., so A_z falls off as the
    R**2 terms of the closed form, whose integral beyond T is this; the
    R**4 terms leave a relative 3*(R2**4 - R1**4)/(32*T**4*ln(R2/R1)).
    For T >> L it is (R2**2 - R1**2)/(4*T**2*ln(R2/R1)).
    """
    R1, R2, L = spec.R1, spec.R2, spec.L
    return (R2**2 - R1**2) / (4 * (T**2 - L**2 / 4) * math.log(R2 / R1))


def winding_axis_integral(spec, T=200.0, h=0.01):
    """The trapezoidal integral of the winding's A_z over [-T, T] at step h.

    On the axis every rotated turn gives the same A_z, so one copy per
    layer carrying its M turns' current is the winding there. As a
    function of z, A_z is analytic in a strip of half-width R1 about the
    real axis, so the rule's error falls as exp(-2*pi*R1/h).
    """
    z = np.linspace(-T, T, round(2 * T / h) + 1)
    points = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    Az = spec.I * field_at(_turn_copies(spec, 8, 1), points)[0][:, 2]
    return h * (Az.sum() - (Az[0] + Az[-1]) / 2)


class TestFiniteCoilAxis:
    def test_winding_matches_the_closed_form(self):
        # from the centre to 0.1 m from either end of the 12 m coil
        spec = paper_coil(L=12.0, I=2.5)
        zs = [0.0, 1.0, -3.3, 5.0, 5.9, -5.9]
        A, _ = field_at(build_winding(spec, 8), [(0.0, 0.0, z) for z in zs])
        for z, (Ax, Ay, Az) in zip(zs, A):
            closed = finite_coil_axis_Az(spec, z)
            assert Az == pytest.approx(closed, rel=1e-7)
            assert math.hypot(Ax, Ay) <= 1e-15 * abs(closed)

    @pytest.mark.parametrize("helicity", [(1, -1), (1, 1)])
    def test_axis_integral_is_the_enclosed_flux(self, helicity):
        # Stokes: the beam axis closed at infinity encloses the flux
        # K*I*L through one meridional section, whatever the end effects.
        spec = paper_coil(L=12.0, helicity=helicity, I=-1.5)
        T = 200.0
        integral = winding_axis_integral(spec, T)
        flux = coil_constant_K(spec) * spec.I * spec.L
        tail = axis_flux_tail(spec, T) * flux
        assert integral + tail == pytest.approx(flux, rel=1e-9)
        # without the tail the identity misses by 1.5e-7
        assert abs(integral - flux) > 100 * abs(integral + tail - flux)

    @settings(max_examples=8)
    @given(
        R1=st.floats(0.05, 0.2),
        ratio=st.floats(1.01, 2.5),
        L=st.floats(0.5, 12.0),
        helicity=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3),
        I=st.sampled_from([-1.5, 2.5]),
    )
    def test_axis_integral_is_the_enclosed_flux_of_any_geometry(
        self, R1, ratio, L, helicity, I
    ):
        # R1 >= 0.05 m keeps the 1 cm rule's error near 1e-14, and the
        # R**4 part of the tail is below 4e-12 at T = 200 m
        spec = CoilWindingSpec(
            R1=R1, R2=R1 * ratio, L=L, turn_density=2000.0, layers=len(helicity),
            helicity_sign_per_layer=tuple(helicity), wire_diameter=1e-3, I=I,
        )
        T = 200.0
        flux = coil_constant_K(spec) * spec.I * spec.L
        integral = winding_axis_integral(spec, T)
        assert integral + axis_flux_tail(spec, T) * flux == pytest.approx(flux, rel=1e-9)

    @given(R1=st.floats(0.01, 0.2), ratio=st.floats(1.01, 2.5), L=st.floats(0.5, 12.0))
    def test_closed_form_axis_integral_is_the_enclosed_flux(self, R1, ratio, L):
        # the closed form over [-1000, 1000] m plus its tail, whose R**4
        # part is below 1e-14 here; it grows as R2**4, which is why R2/R1
        # stops at 2.5
        spec = paper_coil(L=L, I=-1.5)._replace(R1=R1, R2=R1 * ratio)
        T = 1000.0
        flux = coil_constant_K(spec) * spec.I * spec.L
        with mpmath.workdps(40):
            integral = finite_coil_axis_flux(spec, T)
        residual = float(integral) + axis_flux_tail(spec, T) * flux - flux
        assert abs(residual) <= 1e-12 * abs(flux)
