import math

import numpy as np
import pytest

from coilfringe.constants import constants
from coilfringe.diffraction import (
    BeamSpec,
    GratingScreenSpec,
    de_broglie_lambda,
    effective_momentum,
    fringe_pattern,
    inverse_interfringe,
    linear_response_fit,
    mechanical_momentum,
)
from coilfringe.errors import (
    DomainError,
    FitError,
    ModelDomainError,
    OrderLimitError,
)
from coilfringe.ideal_field import AnnularCoilIdeal, coil_constant_K

REF_COIL = AnnularCoilIdeal(R1=0.1, R2=0.12, N=1257, I=1.0)
REF_K = coil_constant_K(REF_COIL)
BEAM = BeamSpec(U=30e3, beam_width_phi=1e-3)
GS = GratingScreenSpec(a=2.55e-10, D=0.1)


class TestMomentumAndWavelength:
    def test_reference_momentum(self):
        assert mechanical_momentum(30e3) == pytest.approx(9.351e-23, rel=0.002)

    def test_si_constants_value(self):
        # direct sqrt(2*m*e*U) with the package constants
        c = constants()
        expected = math.sqrt(2 * c.m_e * c.e * 30e3)
        p = mechanical_momentum(30e3)
        assert p == expected
        assert p == pytest.approx(9.357e-23, rel=1e-3)

    def test_sqrt_scaling(self):
        assert mechanical_momentum(4 * 7e3) == pytest.approx(
            2 * mechanical_momentum(7e3), rel=1e-14
        )

    def test_wavelength_from_reference_momentum(self):
        assert de_broglie_lambda(9.351e-23) == pytest.approx(7.086e-12, rel=1e-3)

    def test_wavelength_identity(self):
        assert de_broglie_lambda(constants().h) == 1.0

    def test_reciprocal_scaling(self):
        assert de_broglie_lambda(2 * 9.351e-23) == de_broglie_lambda(9.351e-23) / 2

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            mechanical_momentum(0.0)
        with pytest.raises(DomainError):
            de_broglie_lambda(-1.0)


class TestEffectiveMomentum:
    def test_reference_upper_endpoint(self):
        P = effective_momentum(30e3, REF_K * 10)
        assert P == pytest.approx(16.662e-23, rel=0.015)

    def test_zero_field_reduction(self):
        assert effective_momentum(30e3, 0.0) == mechanical_momentum(30e3)

    def test_lower_endpoint_own_arithmetic(self):
        # the artifact's own subtraction; the printed 2.040e-23 carries a
        # documented ~1% internal inconsistency
        P = effective_momentum(30e3, REF_K * -10)
        own = mechanical_momentum(30e3) - constants().e * REF_K * 10
        assert P == pytest.approx(own, rel=1e-14)
        assert P == pytest.approx(2.040e-23, rel=0.02)

    def test_non_positive_momentum_rejected(self):
        with pytest.raises(ModelDomainError):
            effective_momentum(30e3, -1.0)


class TestFringePattern:
    def test_zero_field_interfringe(self):
        pat = fringe_pattern(BEAM, GS, 0.0, k_max=2)
        assert pat.interfringe_small_angle == pytest.approx(2.776e-3, rel=0.003)

    def test_current_sweep_endpoints(self):
        lo = fringe_pattern(BEAM, GS, REF_K * 10, k_max=1)
        hi = fringe_pattern(BEAM, GS, REF_K * -10, k_max=1)
        assert lo.interfringe_small_angle == pytest.approx(1.558e-3, rel=0.015)
        assert hi.interfringe_small_angle == pytest.approx(12.725e-3, rel=0.015)

    def test_zero_order_at_center(self):
        pat = fringe_pattern(BEAM, GS, 0.0, k_max=3)
        assert pat.orders[0].theta_k == 0.0
        assert pat.orders[0].y_k == 0.0
        ys = [o.y_k for o in pat.orders]
        assert ys == sorted(ys) and len(set(ys)) == len(ys)

    def test_ring_radius_equals_displacement(self):
        pat = fringe_pattern(BEAM, GS, 0.0, k_max=3)
        for o in pat.orders:
            assert o.ring_radius == o.y_k

    def test_order_limit_error_lists_feasible(self):
        with pytest.raises(OrderLimitError) as exc_info:
            fringe_pattern(BEAM, GS, 0.0, k_max=100)
        assert 1 <= exc_info.value.max_order < 100
        fringe_pattern(BEAM, GS, 0.0, k_max=exc_info.value.max_order)

    def test_interfringe_inverse_to_momentum(self):
        # small-angle interfringe is exactly h*D/(a*P_eff)
        pat1 = fringe_pattern(BEAM, GS, 0.0, k_max=1)
        pat2 = fringe_pattern(BEAM, GS, REF_K * 5, k_max=1)
        assert pat1.interfringe_small_angle * pat1.P_eff == pytest.approx(
            pat2.interfringe_small_angle * pat2.P_eff, rel=1e-14
        )

    def test_scaling_not_translation(self):
        # changing the current rescales all y_k by a common factor and
        # keeps y_0 at zero (small-angle regime: wide grating)
        gs = GratingScreenSpec(a=2.55e-8, D=0.1)
        base = fringe_pattern(BEAM, gs, 0.0, k_max=3)
        shifted = fringe_pattern(BEAM, gs, REF_K * 1.0, k_max=3)
        ratios = [
            shifted.orders[k].y_k / base.orders[k].y_k for k in range(1, 4)
        ]
        assert max(ratios) - min(ratios) <= 1e-6
        assert shifted.orders[0].y_k == 0.0


class TestInverseInterfringe:
    def test_reference_endpoints(self):
        assert inverse_interfringe(30e3, -10, REF_K, GS) == pytest.approx(78.58, rel=0.015)
        assert inverse_interfringe(30e3, +10, REF_K, GS) == pytest.approx(641.84, rel=0.015)

    def test_zero_current_reciprocal(self):
        assert inverse_interfringe(30e3, 0.0, REF_K, GS) == pytest.approx(
            1 / 2.776e-3, rel=0.003
        )

    def test_exact_linearity_in_current(self):
        f0 = inverse_interfringe(30e3, 0.0, REF_K, GS)
        f1 = inverse_interfringe(30e3, 2.0, REF_K, GS)
        f2 = inverse_interfringe(30e3, 4.0, REF_K, GS)
        assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-12)

    def test_round_trip_with_pattern(self):
        pat = fringe_pattern(BEAM, GS, REF_K * 3.0, k_max=1)
        inv = inverse_interfringe(30e3, 3.0, REF_K, GS)
        assert inv * pat.interfringe_small_angle == pytest.approx(1.0, rel=1e-12)

    def test_monotone_decreasing_interfringe(self):
        currents = np.linspace(-10, 10, 21)
        vals = [
            fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
            for i in currents
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLinearResponseFit:
    def test_noiseless_grid_recovers_coefficients(self):
        c = constants()
        I = np.linspace(-10, 10, 21)
        f = [inverse_interfringe(30e3, i, REF_K, GS) for i in I]
        alpha, beta, r2 = linear_response_fit(np.full_like(I, 30e3), I, f)
        assert r2 >= 1 - 1e-12
        beta_expected = GS.a * c.e * REF_K / (c.h * GS.D)
        alpha_expected = GS.a * math.sqrt(2 * c.m_e * c.e) / (c.h * GS.D)
        assert beta == pytest.approx(beta_expected, rel=1e-10)
        assert alpha == pytest.approx(alpha_expected, rel=1e-10)

    def test_degenerate_design_rejected(self):
        with pytest.raises(FitError):
            linear_response_fit([10e3, 20e3, 30e3], [0.0, 0.0, 0.0], [100.0, 150.0, 180.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            linear_response_fit([30e3, 30e3], [0.0, 1.0], [1.0, 2.0])

    def test_reference_endpoint_slope(self):
        # difference quotient over the printed interval endpoints
        slope = (641.84 - 78.58) / 20
        f_lo = inverse_interfringe(30e3, -10, REF_K, GS)
        f_hi = inverse_interfringe(30e3, +10, REF_K, GS)
        assert (f_hi - f_lo) / 20 == pytest.approx(slope, rel=0.02)


def test_beam_and_grating_validation():
    with pytest.raises(DomainError):
        BeamSpec(U=-1.0, beam_width_phi=1e-3)
    with pytest.raises(DomainError):
        GratingScreenSpec(a=0.0, D=0.1)
