"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest

from coilfringe.constants import constants
from coilfringe.diffraction import (
    BeamSpec,
    GratingScreenSpec,
    fringe_pattern,
    inverse_interfringe,
    linear_response_fit,
)
from coilfringe.ideal_field import (
    WireArraySpec,
    annular_coil_A,
    array_Az_closed,
    array_Az_discrete,
    array_Az_quadrature,
    coil_constant_K,
)
from coilfringe.report import reproduce_paper
from coilfringe.winding import (
    Box,
    CoilWindingSpec,
    build_winding,
    field_at,
    homogeneity_report,
)


def coil_spec(L, helicity=(1, -1)):
    return CoilWindingSpec(
        R1=0.1,
        R2=0.12,
        L=L,
        turn_density=2000.0,
        layers=len(helicity),
        helicity_sign_per_layer=tuple(helicity),
        wire_diameter=1e-3,
        I=1.0,
    )


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_reference_reproduction():
    start = time.perf_counter()
    rep = reproduce_paper(profile="paper")
    elapsed = time.perf_counter() - start
    for row in rep.rows:
        report(
            f"1/{row.name}",
            row.ok,
            f"computed {row.computed:.6e} vs {row.reference:.6e}, "
            f"dev {row.rel_deviation:.4%} <= tol {row.tolerance:.2%}"
            + (" (flagged)" if row.flagged else ""),
        )
    report("1/runtime", elapsed < 1.0, f"{elapsed:.3f} s < 1 s")


def test_criterion_2_quadrature_vs_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        R = rng.uniform(0.01, 5.0)
        N = int(rng.integers(1, 2000))
        I = rng.uniform(-10, 10)
        ratio = rng.uniform(0, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 10)
        spec = WireArraySpec(R=R, N=N, I=I)
        q = array_Az_quadrature(spec, ratio * R, tol=1e-10)
        c = array_Az_closed(spec, ratio * R)
        bound = max(1e-10 * abs(c), 1e-18)
        worst = max(worst, abs(q - c) / bound)
        assert abs(q - c) <= bound
    report("2", worst <= 1.0, f"100 random cases, worst error/bound = {worst:.3e}")


def test_criterion_3_discrete_superposition_convergence():
    R, r = 0.1, 0.05
    errors = []
    for N in (8, 16, 32, 64, 128):
        spec = WireArraySpec(R=R, N=N, I=1.0)
        closed = array_Az_closed(spec, r)
        errors.append(abs(array_Az_discrete(spec, r) - closed) / abs(closed))
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    spec = WireArraySpec(R=R, N=1257, I=1.0)
    err_1257 = abs(array_Az_discrete(spec, r) - array_Az_closed(spec, r)) / abs(
        array_Az_closed(spec, r)
    )
    report(
        "3",
        monotone and err_1257 <= 1e-6,
        f"errors {['%.2e' % e for e in errors]}, N=1257 error {err_1257:.2e} <= 1e-6",
    )


def test_criterion_4_homogeneity_and_ideal_limit():
    # ideal closed form: exactly constant over interior radii
    spec = WireArraySpec(R=0.1, N=1257, I=1.0)
    exact_const = array_Az_closed(spec, 0.0) == array_Az_closed(spec, 0.095)
    report("4/ideal-interior", exact_const, "closed form bitwise constant in r")

    start = time.perf_counter()
    region = Box(lo=(-0.025, -0.025, -0.025), hi=(0.025, 0.025, 0.025))
    errors = []
    for ratio in (10, 20, 50, 100):
        rep = homogeneity_report(coil_spec(L=ratio * 0.12), region, 2, segments_per_turn=8)
        errors.append(rep.rel_error_vs_ideal)
    elapsed = time.perf_counter() - start
    report(
        "4/finite-1pct",
        errors[-1] <= 0.01,
        f"L/R2=100 rel error vs ideal {errors[-1]:.2e} <= 1e-2",
    )
    report(
        "4/monotone",
        all(b < a for a, b in zip(errors, errors[1:])),
        f"errors over L/R2 in (10,20,50,100): {['%.2e' % e for e in errors]}",
    )
    report("4/runtime", elapsed < 60.0, f"{elapsed:.1f} s < 60 s")


def test_criterion_5_linearity_and_pattern_scaling():
    c = constants()
    gs = GratingScreenSpec(a=2.55e-10, D=0.1)
    coil = coil_spec(L=12.0).ideal_equivalent()
    K = coil_constant_K(coil)
    I = np.linspace(-10, 10, 21)
    f = [inverse_interfringe(30e3, i, K, gs) for i in I]
    alpha, beta, r2 = linear_response_fit(np.full_like(I, 30e3), I, f)
    beta_expected = gs.a * c.e * K / (c.h * gs.D)
    beta_ok = abs(beta - beta_expected) / beta_expected <= 1e-10
    report(
        "5/fit",
        beta_ok and r2 >= 1 - 1e-12,
        f"beta rel err {abs(beta - beta_expected) / beta_expected:.2e} <= 1e-10, "
        f"1 - r^2 = {1 - r2:.2e} <= 1e-12",
    )
    # scaling, not translation: y_k ratios common over k in small-angle regime
    beam = BeamSpec(U=30e3, beam_width_phi=1e-3)
    gs_small = GratingScreenSpec(a=2.55e-8, D=0.1)
    base = fringe_pattern(beam, gs_small, 0.0, k_max=3)
    scaled = fringe_pattern(beam, gs_small, K * 1.0, k_max=3)
    ratios = [scaled.orders[k].y_k / base.orders[k].y_k for k in range(1, 4)]
    spread = max(ratios) - min(ratios)
    zero_fixed = scaled.orders[0].y_k == 0.0
    report(
        "5/scaling",
        spread <= 1e-6 and zero_fixed,
        f"y_k ratio spread {spread:.2e} <= 1e-6, y_0 stays 0",
    )


def test_criterion_6_helicity_cancellation():
    L = 12.0
    probe = np.array([0.05, 0.0, 0.0])  # mid-plane bore probe; azimuthal = +y here
    opposite = field_at(build_winding(coil_spec(L, helicity=(1, -1)), 8), probe)[0][0]
    same = field_at(build_winding(coil_spec(L, helicity=(1, 1)), 8), probe)[0][0]
    ratio = abs(same[1]) / abs(opposite[1])
    report(
        "6",
        ratio >= 10.0,
        f"azimuthal A: same-helicity {abs(same[1]):.3e} vs "
        f"opposite {abs(opposite[1]):.3e}, ratio {ratio:.1e} >= 10",
    )


def test_criterion_7_field_confinement():
    spec = coil_spec(L=12.0)
    B = field_at(build_winding(spec, 8), (0.0, 0.0, 0.0))[1][0]
    scale = constants().mu0 * spec.turn_density * abs(spec.I)
    ratio = float(np.linalg.norm(B)) / scale
    report("7", ratio <= 1e-3, f"|B|/(mu0*n*I) = {ratio:.2e} <= 1e-3")


def test_criterion_8_model_level_substitution():
    # The laboratory experiment itself (electrons, vacuum apparatus) is
    # not desk-reproducible; the suite instead exercises every stated
    # relation: interfringe (Eq 1), wavelength (Eq 2), effective
    # momentum/wavelength (Eq 3), effective interfringe (Eq 4), inverse
    # linear form (Eq 5), wire/array/coil potentials (Eq 6-10).
    covered = {row.equation for row in reproduce_paper().rows}
    report(
        "8",
        covered == {"Eq2", "Eq3", "Eq4", "Eq5", "Eq10"},
        f"model-level reproduction covers {sorted(covered)}; "
        "Eq6-9 are exercised by criteria 2-4",
    )
