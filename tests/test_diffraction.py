import math
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from coilfringe.constants import E_CHARGE, H, M_E
from coilfringe.diffraction import (
    BeamSpec,
    GratingScreenSpec,
    de_broglie_lambda,
    fringe_pattern,
    linear_response_fit,
    mechanical_momentum,
    small_angle_interfringe,
)
from coilfringe.errors import DomainError
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
        expected = math.sqrt(2 * M_E * E_CHARGE * 30e3)
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
        assert de_broglie_lambda(H) == 1.0

    def test_reciprocal_scaling(self):
        assert de_broglie_lambda(2 * 9.351e-23) == de_broglie_lambda(9.351e-23) / 2

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            mechanical_momentum(0.0)
        with pytest.raises(DomainError):
            de_broglie_lambda(-1.0)
        with pytest.raises(DomainError):
            de_broglie_lambda(0.0)


class TestEffectiveMomentum:
    def test_reference_upper_endpoint(self):
        P = fringe_pattern(BEAM, GS, REF_K * 10, 1).P_eff
        assert P == pytest.approx(16.662e-23, rel=0.015)

    def test_zero_field_reduction(self):
        assert fringe_pattern(BEAM, GS, 0.0, 1).P_eff == mechanical_momentum(30e3)

    def test_lower_endpoint_own_arithmetic(self):
        # the artifact's own subtraction; the printed 2.040e-23 carries a
        # documented ~1% internal inconsistency
        P = fringe_pattern(BEAM, GS, REF_K * -10, 1).P_eff
        own = mechanical_momentum(30e3) - E_CHARGE * REF_K * 10
        assert P == pytest.approx(own, rel=1e-14)
        assert P == pytest.approx(2.040e-23, rel=0.02)

    def test_non_positive_momentum_rejected(self):
        with pytest.raises(DomainError, match="effective momentum .* is non-positive"):
            fringe_pattern(BEAM, GS, -1.0, 1).P_eff


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
        with pytest.raises(DomainError, match="max feasible order is") as exc_info:
            fringe_pattern(BEAM, GS, 0.0, k_max=100)
        max_order = int(re.search(r"max feasible order is (\d+)$", str(exc_info.value))[1])
        assert 1 <= max_order < 100
        fringe_pattern(BEAM, GS, 0.0, k_max=max_order)

    def test_feasible_order_below_integer_a_over_lambda(self):
        # at a = 5*lambda order 5 is at 90 degrees, so order 4 is the last
        lam = de_broglie_lambda(mechanical_momentum(BEAM.U))
        gs = GratingScreenSpec(a=5 * lam, D=0.1)
        assert gs.a / lam == 5.0
        with pytest.raises(DomainError, match="max feasible order is 4$"):
            fringe_pattern(BEAM, gs, 0.0, k_max=5)
        assert len(fringe_pattern(BEAM, gs, 0.0, k_max=4).orders) == 5

    def test_small_angle_flag_between_the_limit_and_twice_it(self):
        # sin(theta_1) = lambda/a = 0.055 gives |tan - sin|/sin = 1.52e-3,
        # above SMALL_ANGLE_LIMIT = 1e-3 and below 2e-3
        lam = de_broglie_lambda(mechanical_momentum(BEAM.U))
        pat = fringe_pattern(BEAM, GratingScreenSpec(a=lam / 0.055, D=0.1), 0.0, k_max=1)
        theta1 = pat.orders[1].theta_k
        ratio = (math.tan(theta1) - math.sin(theta1)) / math.sin(theta1)
        assert 1.5e-3 < ratio < 1.6e-3
        assert pat.small_angle_valid is False
        assert fringe_pattern(BEAM, GS, 0.0, k_max=1).small_angle_valid is True

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
    # the inverse interfringe f(U, I) is 1 over the pattern's small-angle interfringe
    def test_reference_endpoints(self):
        f_lo, f_hi = (
            1.0 / fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
            for i in (-10, +10)
        )
        assert f_lo == pytest.approx(78.58, rel=0.015)
        assert f_hi == pytest.approx(641.84, rel=0.015)

    def test_zero_current_reciprocal(self):
        pat = fringe_pattern(BEAM, GS, 0.0, k_max=1)
        assert 1.0 / pat.interfringe_small_angle == pytest.approx(1 / 2.776e-3, rel=0.003)

    def test_exact_linearity_in_current(self):
        f0, f1, f2 = (
            1.0 / fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
            for i in (0.0, 2.0, 4.0)
        )
        assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-12)

    def test_round_trip_with_pattern(self):
        # the pattern's inverse interfringe against the model's chain
        # P_eff -> lambda -> lambda*D/a and the closed form a*P_eff/(h*D)
        inv = 1.0 / fringe_pattern(BEAM, GS, REF_K * 3.0, k_max=1).interfringe_small_angle
        P_eff = mechanical_momentum(30e3) + E_CHARGE * (REF_K * 3.0)
        assert inv * small_angle_interfringe(de_broglie_lambda(P_eff), GS) == pytest.approx(
            1.0, rel=1e-12
        )
        closed = GS.a * (math.sqrt(2 * M_E * E_CHARGE * 30e3) + E_CHARGE * REF_K * 3.0)
        assert inv == pytest.approx(closed / (H * GS.D), rel=1e-12)

    def test_monotone_decreasing_interfringe(self):
        currents = np.linspace(-10, 10, 21)
        vals = [
            fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
            for i in currents
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLinearResponseFit:
    def test_noiseless_grid_recovers_coefficients(self):
        I = np.linspace(-10, 10, 21)
        f = [1.0 / fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
             for i in I]
        alpha, beta, r2 = linear_response_fit(30e3, I, f)
        assert r2 >= 1 - 1e-12
        beta_expected = GS.a * E_CHARGE * REF_K / (H * GS.D)
        alpha_expected = GS.a * math.sqrt(2 * M_E * E_CHARGE) / (H * GS.D)
        assert beta == pytest.approx(beta_expected, rel=1e-10)
        assert alpha == pytest.approx(alpha_expected, rel=1e-10)

    def test_degenerate_design_rejected(self):
        with pytest.raises(DomainError, match="at least 2 distinct currents"):
            linear_response_fit(30e3, [0.0, 0.0, 0.0], [100.0, 150.0, 180.0])

    @pytest.mark.parametrize(
        "I, f",
        [
            ([0.1, 0.1, 0.1], [100.0, 150.0, 180.0]),  # Sxx > 0: the mean of 0.1s rounds
            ([0.0, 1.0, 2.0], [0.1, 0.1, 0.1]),  # likewise Syy > 0
            ([0.0, 1.0, 2.0], [360.0, 360.0, 360.0]),
            ([1e-170, 2e-170, 3e-170], [100.0, 150.0, 180.0]),  # Sxx underflows to 0
            ([0.0, 1.0, 2.0], [1e-200, 2e-200, 3e-200]),  # Syy underflows to 0
        ],
        ids=["equal-currents", "equal-f", "equal-f-exact-mean", "Sxx-underflow", "Syy-underflow"],
    )
    def test_line_needs_two_currents_and_two_values(self, I, f):
        with pytest.raises(DomainError, match="at least 2 distinct currents and values of f"):
            linear_response_fit(30e3, I, f)

    @settings(max_examples=200, deadline=None)
    @given(
        U=st.floats(1e3, 1e5),
        n=st.integers(3, 2000),
        start=st.floats(-12.0, 10.0),
        step=st.floats(1e-4, 10.0),
        noise=st.sampled_from([0.0, 1e-9, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_line_is_the_least_squares_fit(self, U, n, start, step, noise, seed):
        # the model's inverse interfringe at currents start + k*step, with
        # relative noise, against LAPACK least squares on the (sqrt(U), I)
        # design; r^2 is a fraction, so it is held to an absolute bound too,
        # as noise that swamps the slope leaves it near 0
        I = start + step * np.arange(n)
        P_eff = math.sqrt(2 * M_E * E_CHARGE * U) + E_CHARGE * REF_K * I
        f = GS.a * P_eff / (H * GS.D)
        f *= 1 + noise * np.random.default_rng(seed).standard_normal(n)
        X = np.column_stack([np.full(n, math.sqrt(U)), I])
        (alpha_ref, beta_ref), *_ = np.linalg.lstsq(X, f, rcond=None)
        resid = f - X @ (alpha_ref, beta_ref)
        r2_ref = 1 - (resid @ resid) / np.sum((f - f.mean()) ** 2)
        alpha, beta, r2 = linear_response_fit(U, I, f)
        assert alpha == pytest.approx(alpha_ref, rel=1e-8)
        assert beta == pytest.approx(beta_ref, rel=1e-8)
        assert r2 == pytest.approx(r2_ref, rel=1e-8, abs=1e-10)
        assert r2 <= 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError, match="need at least 3 samples"):
            linear_response_fit(30e3, [0.0, 1.0], [1.0, 2.0])

    def test_reference_endpoint_slope(self):
        # difference quotient over the printed interval endpoints
        slope = (641.84 - 78.58) / 20
        f_lo, f_hi = (
            1.0 / fringe_pattern(BEAM, GS, REF_K * i, k_max=1).interfringe_small_angle
            for i in (-10, +10)
        )
        assert (f_hi - f_lo) / 20 == pytest.approx(slope, rel=0.02)


def test_beam_and_grating_validation():
    with pytest.raises(DomainError):
        BeamSpec(U=-1.0, beam_width_phi=1e-3)
    with pytest.raises(DomainError):
        GratingScreenSpec(a=0.0, D=0.1)
