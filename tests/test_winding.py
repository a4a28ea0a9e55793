import math
import re

from hypothesis import assume, given, strategies as st
import numpy as np
import pytest

from coilfringe.constants import constants
from coilfringe.errors import ConstructionError, DomainError, ScenarioError, SingularityError
from coilfringe.ideal_field import AnnularCoilIdeal, annular_coil_A, check_constructible
from coilfringe.winding import (
    BATCH_PAIRS,
    MAX_FIELD_PAIRS,
    MAX_GRID_POINTS,
    WIRE_GUARD,
    Box,
    CoilWindingSpec,
    Winding,
    build_winding,
    check_bore_grid,
    field_at,
    homogeneity_report,
)


def paper_coil(L=6.0, layers=2, helicity=(1, -1), I=1.0):
    return CoilWindingSpec(
        R1=0.1,
        R2=0.12,
        L=L,
        turn_density=2000.0,
        layers=layers,
        helicity_sign_per_layer=tuple(helicity),
        wire_diameter=1e-3,
        I=I,
    )


def segment(start, end, I):
    """Winding of one straight segment."""
    return Winding(
        starts=np.array([start], dtype=float),
        ends=np.array([end], dtype=float),
        I=float(I),
    )


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
    WIRE_GUARD, and B sums coef * l_hat x r1 pair by pair.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    starts, ends = winding.starts, winding.ends
    seg = ends - starts
    seg_len_sq = np.einsum("ij,ij->i", seg, seg)
    seg_len = np.linalg.norm(seg, axis=1)
    unit = seg / seg_len[:, None]
    scale = constants().mu0 * winding.I / (4 * math.pi)
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


def _distances(winding, points):
    """(points, segments) distances from each point to each segment."""
    seg = winding.ends - winding.starts
    r1 = np.asarray(points, dtype=float)[:, None, :] - winding.starts
    t = np.clip(np.einsum("cmk,mk->cm", r1, seg) / np.einsum("mk,mk->m", seg, seg), 0.0, 1.0)
    return np.linalg.norm(r1 - t[..., None] * seg, axis=2)


class TestBuildWinding:
    def test_turn_count_matches_inner_circumference_density(self):
        assert paper_coil().turn_count == 1257

    def test_segment_count(self):
        spec = paper_coil()
        w = build_winding(spec, segments_per_turn=4)
        # each turn contributes segments_per_turn chained segments and
        # every layer closes on itself with no extra closure segment
        assert w.starts.shape == w.ends.shape == (spec.turn_count * 4, 3)
        assert w.I == spec.I
        w8 = build_winding(spec, segments_per_turn=8)
        assert len(w8.starts) == spec.turn_count * 8

    def test_net_axial_ampere_turns_through_midplane(self):
        # signed crossings of z=0 inside the bore annulus: every inner
        # axial run carries +I upward once
        spec = paper_coil()
        w = build_winding(spec, segments_per_turn=4)
        mid = (spec.R1 + spec.R2) / 2
        za, zb = w.starts[:, 2], w.ends[:, 2]
        crossing = ((za < 0) & (0 <= zb)) | ((zb < 0) & (0 <= za))
        inner = np.hypot(w.starts[:, 0], w.starts[:, 1]) < mid
        signed = np.where(zb > za, w.I, -w.I)
        net = signed[crossing & inner].sum()
        assert net == pytest.approx(spec.turn_count * spec.I)

    def test_helicity_mirrored_axial_geometry(self):
        a = build_winding(paper_coil(helicity=(1, -1)), 4)
        b = build_winding(paper_coil(helicity=(1, 1)), 4)
        # same radii/z structure, only the azimuthal advance differs
        za = np.sort(np.round(a.starts[:, 2], 12))
        zb = np.sort(np.round(b.starts[:, 2], 12))
        assert np.array_equal(za, zb)
        ra = np.sort(np.round(np.hypot(a.starts[:, 0], a.starts[:, 1]), 9))
        rb = np.sort(np.round(np.hypot(b.starts[:, 0], b.starts[:, 1]), 9))
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
        with pytest.raises(ConstructionError):
            build_winding(spec, 4)

    def test_matches_turn_by_turn_construction(self):
        # reference: walk each layer turn by turn, leg by leg
        spec = paper_coil(L=2.0, layers=3, helicity=(1, -1, 1))
        legs = (
            (spec.R1, -1.0, spec.R1, 1.0, 2.0),
            (spec.R1, 1.0, spec.R2, 1.0, spec.R2 - spec.R1),
            (spec.R2, 1.0, spec.R2, -1.0, 2.0),
            (spec.R2, -1.0, spec.R1, -1.0, spec.R2 - spec.R1),
        )
        perimeter = 2 * 2.0 + 2 * (spec.R2 - spec.R1)
        base, rem = divmod(spec.turn_count, spec.layers)
        starts, ends = [], []
        for layer, s in enumerate(spec.helicity_sign_per_layer):
            M = base + (1 if layer < rem else 0)
            pts = []
            for j in range(M):
                phi0 = s * 2 * math.pi * j / M + 2 * math.pi * layer / (spec.layers * M)
                walked = 0.0
                for ra, za, rb, zb, length in legs:
                    for k in range(2):
                        f = k / 2
                        phi = phi0 + s * 2 * math.pi / M * (walked + length * f) / perimeter
                        r = ra + (rb - ra) * f
                        pts.append((r * math.cos(phi), r * math.sin(phi), za + (zb - za) * f))
                    walked += length
            starts += pts
            ends += pts[1:] + pts[:1]
        w = build_winding(spec, 8)
        assert np.allclose(w.starts, starts, rtol=0, atol=1e-14)
        assert np.allclose(w.ends, ends, rtol=0, atol=1e-14)
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
        with pytest.raises(ConstructionError):
            build_winding(spec, 4)

    def test_non_finite_geometry_rejected(self):
        with pytest.raises(DomainError):
            build_winding(paper_coil(L=float("nan")), 4)

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
        ],
    )
    def test_constructibility_check_agrees_with_build(self, spec, segments_per_turn):
        # validate-coil reports the check's count instead of building
        try:
            winding = build_winding(spec, segments_per_turn)
        except (ConstructionError, DomainError, ScenarioError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                check_constructible(spec, segments_per_turn)
        else:
            assert check_constructible(spec, segments_per_turn) == len(winding.starts)

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
        expected = -constants().mu0 * 1.0 / (2 * math.pi) * math.log(0.5)
        assert d == pytest.approx(expected, rel=1e-6)

    def test_guard_rejection(self):
        seg = segment((0, 0, -1), (0, 0, 1), 1.0)
        with pytest.raises(SingularityError):
            field_at(seg, (0.0, 0.0, 0.5))
        # every point of a batch is checked, not only the first
        with pytest.raises(SingularityError):
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
        with pytest.raises(SingularityError, match="within wire guard of segment 0"):
            field_at(seg, probe(0.99 * WIRE_GUARD))
        A, B = field_at(seg, probe(1.01 * WIRE_GUARD))
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
        assert A[0, 2] > 0

    def test_guard_message_names_nearest_pair(self):
        w = Winding(
            starts=np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),
            ends=np.array([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]),
            I=1.0,
        )
        points = [(0.5, 0.0, 0.5), (1.0, 5e-10, 0.25), (3e-10, 0.0, 0.5)]
        with pytest.raises(SingularityError) as new:
            field_at(w, points)
        with pytest.raises(SingularityError) as ref:
            _field_at_per_pair(w, points)
        assert str(new.value) == str(ref.value)
        assert "segment 0 (distance 3.000e-10 m)" in str(new.value)

    def test_rounding_singularity_rejected(self):
        # 5x outside the guard, but d1 + d2 - L rounds to 0 next to a 1 m
        # segment, so the closed forms would divide by zero
        seg = segment((0, 0, 0), (0, 0, 1), 1.0)
        with pytest.raises(SingularityError, match="too close to segment 0"):
            field_at(seg, (5e-9, 0.0, 0.5))


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
    w = Winding(starts=v[:-1], ends=v[1:], I=current)
    points = np.array(points)
    assume(_distances(w, points).min() >= 1e-6)
    A, B = field_at(w, points)
    A_ref, B_ref = _field_at_per_pair(w, points)
    # size of the summed terms: |scale * log| for A, and for B
    # |coef| * (|p| + |s|), since B is summed as coef*(l_hat x p - l_hat x s)
    r1 = points[:, None, :] - w.starts
    d1 = np.linalg.norm(r1, axis=2)
    d2 = np.linalg.norm(points[:, None, :] - w.ends, axis=2)
    seg_len = np.linalg.norm(w.ends - w.starts, axis=1)
    scale = constants().mu0 * abs(current) / (4 * math.pi)
    dsum = d1 + d2
    A_size = np.sum(scale * np.log((dsum + seg_len) / (dsum - seg_len)), axis=1)
    coef = scale * 2 * seg_len * dsum / (d1 * d2 * (dsum**2 - seg_len**2))
    B_size = np.sum(
        coef * (np.linalg.norm(points, axis=1)[:, None] + np.linalg.norm(w.starts, axis=1)),
        axis=1,
    )
    assert np.all(np.abs(A - A_ref) <= 1e-12 * A_size[:, None])
    assert np.all(np.abs(B - B_ref) <= 1e-12 * B_size[:, None] + 1e-20)


class TestCoilField:
    def test_center_matches_ideal_at_L_over_R2_50(self):
        spec = paper_coil(L=50 * 0.12)
        A = A_at(build_winding(spec, 8), (0.0, 0.0, 0.0))
        ideal = annular_coil_A(spec.ideal_equivalent())
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
        w = build_winding(spec, 8)
        radial = (np.abs(np.abs(w.starts[:, 2]) - spec.L / 2) < 1e-12) & (
            np.abs(np.abs(w.ends[:, 2]) - spec.L / 2) < 1e-12
        )
        ends = Winding(w.starts[radial], w.ends[radial], w.I)
        A = A_at(ends, (0.0, 0.0, 0.0))
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
        expected = constants().mu0 * 2.0 / (2 * math.pi * r)
        assert np.linalg.norm(B) == pytest.approx(expected, rel=0.01)
        # field circulates: at +x the field of +z current points +y
        assert B[1] > 0

    def test_bore_field_small_vs_winding_scale(self):
        spec = paper_coil(L=12.0)
        B = B_at(build_winding(spec, 8), (0.0, 0.0, 0.0))
        assert np.linalg.norm(B) <= 1e-3 * constants().mu0 * spec.turn_density * abs(spec.I)

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
        expected = constants().mu0 * spec.turn_count * spec.I / (2 * math.pi * r)
        for phi in (0.3, 2.0, 4.0):
            e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
            B = B_at(w, (r * math.cos(phi), r * math.sin(phi), 0.0))
            assert np.allclose(B, expected * e_phi, rtol=0, atol=1e-9 * expected)

    def test_field_free_in_bore_and_outside(self):
        spec = paper_coil(L=2.0, I=2.5)
        w = build_winding(spec, 8)
        scale = constants().mu0 * spec.turn_count * abs(spec.I) / (2 * math.pi * spec.R1)
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
        Ak, Bk = field_at(Winding(w.starts, w.ends, w.I * k), self.PROBES)
        for F, Fk in ((A, Ak), (B, Bk)):
            assert np.max(np.abs(Fk - k * F)) <= 1e-13 * k * np.max(np.abs(F))

    def test_A_divergence_free_on_closed_circuits(self):
        # div A of a chain of segments is mu0*I/(4 pi) * (1/|p - s| - 1/|p - e|)
        # for its first start s and last end e, and 0 once it closes
        I = 1.5
        w = build_winding(paper_coil(L=2.0, I=I), 8)
        chain = Winding(w.starts[:100], w.ends[:100], w.I)
        c = constants().mu0 * I / (4 * math.pi)

        def div_A(winding, p, h=1e-5):
            return sum(
                (A_at(winding, p + h * e)[i] - A_at(winding, p - h * e)[i]) / (2 * h)
                for i, e in enumerate(np.eye(3))
            )

        tol = 1e-12  # T, about a millionth of c / R1
        largest_open = 0.0
        for p in np.array(self.PROBES):
            open_div = c * (1 / np.linalg.norm(p - chain.starts[0])
                            - 1 / np.linalg.norm(p - chain.ends[-1]))
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
        mu0_NI = constants().mu0 * spec.turn_count * spec.I
        assert abs(circulation / mu0_NI - enclosed) <= 1e-11

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

    def test_grid_minimum(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        with pytest.raises(DomainError):
            homogeneity_report(spec, region, 1)

    def test_work_limits(self):
        spec = paper_coil(L=6.0)
        region = Box(lo=(-0.01, -0.01, -0.01), hi=(0.01, 0.01, 0.01))
        assert MAX_GRID_POINTS == 100**3
        assert check_bore_grid(spec.R1, region, 100) == (100, 100, 100)
        with pytest.raises(ScenarioError, match="exceeds"):
            check_bore_grid(spec.R1, region, (100, 100, 101))
        pairs_per_point = spec.turn_count * 8
        assert 4 * 24860 * pairs_per_point <= MAX_FIELD_PAIRS < 4 * 24861 * pairs_per_point
        with pytest.raises(ScenarioError, match="exceeds"):
            homogeneity_report(spec, region, (2, 2, 24861))

    def test_report_carries_the_sampled_grid(self):
        spec = paper_coil(L=2.0)
        region = Box(lo=(-0.02, -0.01, -0.03), hi=(0.02, 0.01, 0.03))
        rep = homogeneity_report(spec, region, (2, 3, 4))
        assert rep.points.shape == rep.A.shape == rep.B.shape == (24, 3)
        # x outermost, z innermost
        assert np.array_equal(rep.points[:4, 2], np.linspace(-0.03, 0.03, 4))
        assert np.array_equal(rep.points[::12, 0], [-0.02, 0.02])
        A, B = field_at(build_winding(spec, 8), rep.points)
        assert np.array_equal(rep.A, A) and np.array_equal(rep.B, B)
        assert rep.mean_A == tuple(A.mean(axis=0))
        assert rep.max_B_magnitude == np.max(np.linalg.norm(B, axis=1))

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
