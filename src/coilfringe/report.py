"""Reproduction of the reference numerical estimates.

Every quantity from the reference estimate set is recomputed from the
model and compared against the printed value at a per-row tolerance.
The deviations have named causes: the paper computes with h = 6.62e-34
J*s, e = 1.6e-19 C and N = 400*pi turns, not 1257 whole turns, feeds
each step the printed value before it and truncates each result to its
printed digits. The two printed momentum endpoints also carry a digit
slip in Eq. 3, which adds and subtracts e*K*I = 7.311e-23 at 10 A where
Eq. 10 prints e*K = 7.331e-24 per ampere; those rows carry a widened,
flagged tolerance and the artifact reports its own arithmetic.
"""

from collections import namedtuple

from .constants import E_CHARGE
from .diffraction import fringe_pattern
from .ideal_field import coil_constant_K
from .scenario import paper_scenario

# Largest coil current of the reference estimates, A; the reference setup
# itself is the built-in paper scenario.
REF_I_MAX = 10.0

# (name, equation tag, printed value, relative tolerance, flagged). The
# deviations come from the paper's h, e and N and its truncation; the
# flagged P_eff rows carry the Eq. 3 slip, 9.351 -+ 7.311, and i_eff_max
# and inverse_i_min inherit it from the printed P_eff_min they were fed.
_PAPER_ROWS = (
    ("p_mec", "Eq2", 9.351e-23, 0.002, False),
    ("K", "Eq10", 7.331e-24 / 1.602176634e-19, 0.005, False),
    ("p_add_coeff", "Eq10", 7.331e-24, 0.005, False),
    ("P_eff_min", "Eq3", 2.040e-23, 0.02, True),
    ("P_eff_max", "Eq3", 16.662e-23, 0.02, True),
    ("i_zero_field", "Eq2", 2.776e-3, 0.003, False),
    ("i_eff_min", "Eq4", 1.558e-3, 0.015, False),
    ("i_eff_max", "Eq4", 12.725e-3, 0.015, False),
    ("inverse_i_min", "Eq5", 78.58, 0.015, False),
    ("inverse_i_max", "Eq5", 641.84, 0.015, False),
)

TOLERANCE_PROFILES = {
    "paper": 1.0,  # the documented per-row tolerances
    "strict": 0.5,  # diagnostic: halves every band; flagged rows fail
}


class ReportRow(
    namedtuple(
        "ReportRow", "name equation computed reference rel_deviation tolerance flagged"
    )
):
    """One reproduced quantity against its printed reference value.

    name           quantity name
    equation       equation tag of the reference
    computed       model value
    reference      printed value
    rel_deviation  |computed - reference| / |reference|
    tolerance      allowed relative deviation
    flagged        whether the band was widened for the Eq. 3 digit slip
    """

    __slots__ = ()

    @property
    def ok(self):
        return self.rel_deviation <= self.tolerance


class PaperReport(namedtuple("PaperReport", "rows profile")):
    """The reproduced quantities (a tuple of ReportRow) under a tolerance profile."""

    __slots__ = ()

    @property
    def all_ok(self):
        return all(row.ok for row in self.rows)


def reproduce_paper(profile="paper"):
    """Compare computed values against the printed reference values."""
    if profile not in TOLERANCE_PROFILES:
        raise ValueError(f"unknown tolerance profile {profile!r}")
    scale = TOLERANCE_PROFILES[profile]
    scen = paper_scenario()
    K = coil_constant_K(scen.coil)
    # the fringes at 0 A and at the two current extremes; +I shortens the
    # interfringe, so i_eff_min comes from +REF_I_MAX
    zero, minus, plus = (
        fringe_pattern(scen.beam, scen.grating_screen, K * I, 1)
        for I in (0.0, -REF_I_MAX, +REF_I_MAX)
    )
    i_zero, i_min, i_max = (p.interfringe_small_angle for p in (zero, plus, minus))
    values = {
        "p_mec": zero.P_eff,
        "K": K,
        "p_add_coeff": E_CHARGE * K,
        "P_eff_min": minus.P_eff,
        "P_eff_max": plus.P_eff,
        "i_zero_field": i_zero,
        "i_eff_min": i_min,
        "i_eff_max": i_max,
        "inverse_i_min": 1.0 / i_max,
        "inverse_i_max": 1.0 / i_min,
    }
    rows = []
    for name, eq, ref, tol, flagged in _PAPER_ROWS:
        computed = float(values[name])  # plain floats for JSON emission
        rows.append(
            ReportRow(
                name=name,
                equation=eq,
                computed=computed,
                reference=ref,
                rel_deviation=abs(computed - ref) / abs(ref),
                tolerance=tol * scale,
                flagged=flagged,
            )
        )
    return PaperReport(rows=tuple(rows), profile=profile)
