"""Reproduction of the reference numerical estimates.

Every quantity from the reference estimate set is recomputed from the
model and compared against the printed value at a per-row tolerance.
Two of the printed momentum endpoints are internally inconsistent with
their own summands at the ~1% level; those rows carry a widened, flagged
tolerance and the artifact reports its own arithmetic.
"""

from dataclasses import dataclass

from .constants import constants
from .diffraction import (
    de_broglie_lambda,
    effective_momentum,
    inverse_interfringe,
    mechanical_momentum,
    small_angle_interfringe,
)
from .ideal_field import coil_constant_K
from .scenario import paper_scenario

# Largest coil current of the reference estimates, A; the reference setup
# itself is the built-in paper scenario.
REF_I_MAX = 10.0

# (name, equation tag, printed value, relative tolerance, flagged)
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


@dataclass(frozen=True)
class ReportRow:
    name: str
    equation: str
    computed: float
    reference: float
    rel_deviation: float
    tolerance: float
    flagged: bool

    @property
    def ok(self):
        return self.rel_deviation <= self.tolerance


@dataclass(frozen=True)
class PaperReport:
    rows: tuple
    profile: str

    @property
    def all_ok(self):
        return all(row.ok for row in self.rows)


def computed_quantities():
    """Model values for every quantity in the reference estimate set."""
    scen = paper_scenario()
    U, gs = scen.beam.U, scen.grating_screen
    K = coil_constant_K(scen.coil.ideal_equivalent())
    p_mec = mechanical_momentum(U)
    p_min = effective_momentum(U, K * -REF_I_MAX)
    p_max = effective_momentum(U, K * +REF_I_MAX)
    i_zero, i_min, i_max = (
        small_angle_interfringe(de_broglie_lambda(p), gs) for p in (p_mec, p_max, p_min)
    )
    return {
        "p_mec": p_mec,
        "K": K,
        "p_add_coeff": constants().e * K,
        "P_eff_min": p_min,
        "P_eff_max": p_max,
        "i_zero_field": i_zero,
        "i_eff_min": i_min,
        "i_eff_max": i_max,
        "inverse_i_min": inverse_interfringe(U, -REF_I_MAX, K, gs),
        "inverse_i_max": inverse_interfringe(U, +REF_I_MAX, K, gs),
    }


def reproduce_paper(profile="paper"):
    """Compare computed values against the printed reference values."""
    if profile not in TOLERANCE_PROFILES:
        raise ValueError(f"unknown tolerance profile {profile!r}")
    scale = TOLERANCE_PROFILES[profile]
    values = computed_quantities()
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
