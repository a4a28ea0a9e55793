import math

import mpmath
import numpy as np
import pytest

from coilfringe import ideal_field
from coilfringe.constants import E_CHARGE, MU0
from coilfringe.errors import DomainError
from coilfringe.ideal_field import (
    AnnularCoilIdeal,
    WireArraySpec,
    annular_coil_A,
    array_Az_closed,
    array_Az_discrete,
    array_Az_quadrature,
    coil_constant_K,
    single_wire_Az,
)


class TestSingleWire:
    def test_unit_distance_is_zero(self):
        assert single_wire_Az(1.0, 123.4) == 0.0

    def test_distance_e_gives_minus_mu0_over_2pi(self):
        # exact value is -mu0/(2pi); the CODATA mu0 sits ~5.4e-10
        # relative away from 4pi*1e-7, hence the tolerance
        val = single_wire_Az(math.e, 1.0)
        assert abs(val - (-2.0e-7)) / 2.0e-7 < 1e-9
        assert val == pytest.approx(-MU0 / (2 * math.pi), rel=1e-14)

    def test_half_meter_two_ampere(self):
        # -mu0*I/(2pi)*ln(0.5) = +2*2e-7*ln 2
        expected = 2 * MU0 / (2 * math.pi) * math.log(2.0)
        assert single_wire_Az(0.5, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_on_wire_rejected(self):
        with pytest.raises(DomainError):
            single_wire_Az(0.0, 1.0)
        with pytest.raises(DomainError):
            single_wire_Az(-0.1, 1.0)


class TestClosedForm:
    spec = WireArraySpec(R=0.1, N=1256, I=1.0)

    def test_interior_value_vs_discrete_superposition_oracle(self):
        # Oracle: brute-force sum of single_wire_Az over explicit wires.
        brute = sum(
            single_wire_Az(
                math.hypot(
                    self.spec.R * math.cos(2 * math.pi * k / self.spec.N) - 0.02,
                    self.spec.R * math.sin(2 * math.pi * k / self.spec.N),
                ),
                self.spec.I,
            )
            for k in range(self.spec.N)
        )
        closed = array_Az_closed(self.spec, 0.02)
        assert closed == pytest.approx(brute, rel=1e-9)
        assert closed == pytest.approx(5.784e-4, rel=1e-3)

    def test_interior_r_independence_bitwise(self):
        assert array_Az_closed(self.spec, 0.02) == array_Az_closed(self.spec, 0.09)

    def test_unit_radius_interior_is_zero(self):
        assert array_Az_closed(WireArraySpec(R=1.0, N=77, I=3.3), 0.5) == 0.0

    def test_exterior_branch(self):
        spec = WireArraySpec(R=0.1, N=10, I=2.0)
        expected = -MU0 * 10 * 2.0 / (2 * math.pi) * math.log(0.4)
        assert array_Az_closed(spec, 0.4) == pytest.approx(expected, rel=1e-14)

    def test_on_circle_rejected(self):
        with pytest.raises(DomainError, match="closed form is singular on the wire circle"):
            array_Az_closed(self.spec, self.spec.R)


class TestQuadrature:
    def test_center_matches_closed_form(self):
        spec = WireArraySpec(R=0.1, N=1256, I=1.0)
        q = array_Az_quadrature(spec, 0.0)
        c = array_Az_closed(spec, 0.0)
        assert q == pytest.approx(c, rel=1e-10)
        assert q == pytest.approx(5.784e-4, rel=1e-3)

    def test_interior_r_independence(self):
        spec = WireArraySpec(R=0.1, N=1256, I=1.0)
        q0 = array_Az_quadrature(spec, 0.0)
        q5 = array_Az_quadrature(spec, 0.05)
        assert q5 == pytest.approx(q0, rel=1e-10)

    def test_zero_current_is_exactly_zero(self):
        spec = WireArraySpec(R=0.3, N=55, I=0.0)
        assert array_Az_quadrature(spec, 0.1) == 0.0

    def test_on_circle_rejected(self):
        with pytest.raises(DomainError, match="integrand is log-singular on the wire circle"):
            array_Az_quadrature(WireArraySpec(R=0.2, N=5, I=1.0), 0.2)

    def test_agreement_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            R = rng.uniform(0.01, 5.0)
            N = int(rng.integers(1, 2000))
            I = rng.uniform(-10, 10)
            ratio = rng.uniform(0, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 10)
            spec = WireArraySpec(R=R, N=N, I=I)
            q = array_Az_quadrature(spec, ratio * R)
            c = array_Az_closed(spec, ratio * R)
            assert abs(q - c) <= max(1e-10 * abs(c), 1e-18)

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.999, 1.001, 4.0])
    @pytest.mark.parametrize("spec", [WireArraySpec(0.3, 10, 2.0), WireArraySpec(1.0, 7, -3.0)])
    def test_matches_tanh_sinh_quadrature(self, spec, ratio):
        # mpmath's tanh-sinh rule at 30 digits, an algorithm independent of
        # the wire sums; its nodes crowd the near-singular end at 0
        with mpmath.workdps(30):
            R, r = mpmath.mpf(spec.R), mpmath.mpf(ratio * spec.R)
            integral = 2 * mpmath.quad(
                lambda x: mpmath.log(R * R + r * r - 2 * R * r * mpmath.cos(x)), [0, mpmath.pi]
            )
            oracle = float(-MU0 * spec.N * spec.I / (8 * mpmath.pi**2) * integral)
        q = array_Az_quadrature(spec, ratio * spec.R)
        assert abs(q - oracle) <= max(1e-10 * abs(oracle), 1e-18)

    def test_budget_exhausted_carries_estimate(self, monkeypatch):
        # near the circle the rule needs about 3e4 nodes for tol = 1e-10
        monkeypatch.setattr(ideal_field, "QUAD_EVAL_BUDGET", 64)
        spec = WireArraySpec(R=0.3, N=10, I=2.0)
        with pytest.raises(DomainError, match="within 64 nodes"):
            array_Az_quadrature(spec, 0.999 * spec.R)


class TestDiscreteSuperposition:
    def test_monotone_convergence_in_N(self):
        errors = []
        for N in (8, 16, 32, 64, 128):
            spec = WireArraySpec(R=0.1, N=N, I=1.0)
            closed = array_Az_closed(spec, 0.05)
            errors.append(abs(array_Az_discrete(spec, 0.05) - closed) / abs(closed))
        # error floor is machine epsilon, so non-strict at the tail
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert errors[1] < errors[0]


@pytest.mark.parametrize("route", [array_Az_closed, array_Az_quadrature, array_Az_discrete])
def test_negative_observation_radius_rejected(route):
    # at zero current, where the quadrature would return 0 without its own check
    with pytest.raises(DomainError, match="^observation radius r must be non-negative$"):
        route(WireArraySpec(R=0.1, N=8, I=0.0), -0.05)


def test_discrete_point_on_a_wire_rejected():
    # the wire at azimuth 0 sits at (R, 0), where d = sqrt(1 + 1 - 2) is 0 exactly
    with pytest.raises(DomainError, match="^observation point coincides with a wire$"):
        array_Az_discrete(WireArraySpec(R=1.0, N=4, I=1.0), 1.0)


class TestAnnularCoil:
    coil = AnnularCoilIdeal(R1=0.1, R2=0.12, N=1257, I=1.0)

    def test_additional_momentum_coefficient(self):
        p_add = E_CHARGE * annular_coil_A(self.coil)
        assert p_add == pytest.approx(7.331e-24, rel=0.005)

    def test_degenerate_radii_limit(self):
        coil = AnnularCoilIdeal(R1=0.1, R2=0.1 * (1 + 1e-12), N=1257, I=1.0)
        assert abs(annular_coil_A(coil)) < 1e-15

    def test_linearity_in_current(self):
        neg = AnnularCoilIdeal(R1=0.1, R2=0.12, N=1257, I=-1.0)
        assert annular_coil_A(neg) == -annular_coil_A(self.coil)

    def test_superposition_of_two_cylinders(self):
        # inner cylinder current +I, outer return cylinder -I, any bore r
        inner = WireArraySpec(R=self.coil.R1, N=self.coil.N, I=self.coil.I)
        outer = WireArraySpec(R=self.coil.R2, N=self.coil.N, I=-self.coil.I)
        for r in (0.0, 0.03, 0.09):
            combo = array_Az_closed(inner, r) + array_Az_closed(outer, r)
            assert annular_coil_A(self.coil) == pytest.approx(combo, rel=1e-13)

    def test_invalid_radii_rejected(self):
        with pytest.raises(DomainError):
            AnnularCoilIdeal(R1=0.12, R2=0.1, N=10, I=1.0)


class TestCoilConstant:
    def test_reference_geometry_value(self):
        coil = AnnularCoilIdeal(R1=0.1, R2=0.12, N=1257, I=1.0)
        K = coil_constant_K(coil)
        # oracle: reference additional-momentum coefficient / e
        assert K == pytest.approx(7.331e-24 / E_CHARGE, rel=0.005)
        assert annular_coil_A(coil) == K * coil.I

    def test_linearity_in_turns(self):
        k1 = coil_constant_K(AnnularCoilIdeal(R1=0.1, R2=0.12, N=100, I=1.0))
        k2 = coil_constant_K(AnnularCoilIdeal(R1=0.1, R2=0.12, N=200, I=1.0))
        assert k2 == 2 * k1

    def test_log_ratio_e(self):
        coil = AnnularCoilIdeal(R1=0.1, R2=0.1 * math.e, N=500, I=1.0)
        expected = MU0 * 500 / (2 * math.pi)
        assert coil_constant_K(coil) == pytest.approx(expected, rel=1e-14)


def test_field_linearity_in_current():
    rng = np.random.default_rng(11)
    for _ in range(10):
        R = rng.uniform(0.05, 1.0)
        N = int(rng.integers(1, 500))
        r = R * rng.uniform(0, 0.9)
        s1 = WireArraySpec(R=R, N=N, I=1.0)
        s3 = WireArraySpec(R=R, N=N, I=3.0)
        assert array_Az_closed(s3, r) == pytest.approx(3 * array_Az_closed(s1, r), rel=1e-14)
