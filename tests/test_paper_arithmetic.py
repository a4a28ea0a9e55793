"""The paper's own arithmetic: every printed reference value, rebuilt.

The paper computes with rounded constants, feeds each step the printed
value of the step before, and truncates (does not round) each result to
its printed digits. Redone that way, the chain gives every printed value
of the reproduction table. So each row's deviation from the model, which
uses the exact SI constants and N = 1257 whole turns, has named causes:
the paper's e = 1.6e-19 C, h = 6.62e-34 J*s and N = 400*pi turns, the
truncation, and, in the two flagged P_eff rows, a digit slip in Eq. 3.
These are the paper's constants, not the model's, so they live here.
"""

from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
import math

import pytest

from coilfringe.constants import E_CHARGE, H, M_E
from coilfringe.report import _PAPER_ROWS, reproduce_paper
from coilfringe.scenario import paper_scenario

H_PAPER = 6.62e-34
E_PAPER = 1.6e-19
M_E_PAPER = 9.109e-31
MU0_PAPER = 4 * math.pi * 1e-7
# 2000 turns/m around the 0.1 m inner radius, not rounded to whole turns
N_PAPER = 400 * math.pi

SETUP = paper_scenario()
U, D, a = SETUP.beam.U, SETUP.grating_screen.D, SETUP.grating_screen.a
R1, R2 = SETUP.coil.R1, SETUP.coil.R2
# each step as the paper takes it, from the printed value of the step
# before: (row, printed value, value before truncation, that value
# rounded to 6 or 7 digits)
CHAIN = [
    ("p_mec", "9.351e-23", math.sqrt(2 * M_E_PAPER * E_PAPER * U), 9.35128e-23),
    ("p_add_coeff", "7.331e-24",
     E_PAPER * MU0_PAPER * N_PAPER / (2 * math.pi) * math.log(R2 / R1), 7.33158e-24),
    ("i_zero_field", "2.776e-3", H_PAPER / 9.351e-23 * D / a, 2.77626e-3),
    ("i_eff_min", "1.558e-3", H_PAPER / 16.662e-23 * D / a, 1.55808e-3),
    ("i_eff_max", "12.725e-3", H_PAPER / 2.040e-23 * D / a, 1.272587e-2),
    ("inverse_i_min", "78.58", 1 / 12.725e-3, 78.5855),
    ("inverse_i_max", "641.84", 1 / 1.558e-3, 641.8485),
]
REFERENCE = {name: ref for name, _, ref, _, _ in _PAPER_ROWS}


def cut(value, printed, rounding=ROUND_DOWN):
    """value to the last digit of the printed string, truncated by default."""
    return Decimal(value).quantize(Decimal(printed), rounding=rounding)


@pytest.mark.parametrize("name, printed, value, digits", CHAIN, ids=[c[0] for c in CHAIN])
def test_each_printed_value_is_the_paper_chain_truncated(name, printed, value, digits):
    assert float(printed) == REFERENCE[name]
    assert cut(value, repr(digits), ROUND_HALF_EVEN) == Decimal(repr(digits))
    assert cut(value, printed) == Decimal(printed)


def test_truncation_not_rounding():
    # rounded to the printed digits, four of the rows would read otherwise
    rounded = {name: cut(value, printed, ROUND_HALF_EVEN) for name, printed, value, _ in CHAIN}
    missed = {name for name, printed, _, _ in CHAIN if rounded[name] != Decimal(printed)}
    assert missed == {"p_add_coeff", "i_eff_max", "inverse_i_min", "inverse_i_max"}


def test_flagged_rows_carry_the_eq3_digit_slip():
    # Eq. 3 adds and subtracts e*K*I = 7.311e-23 at 10 A, where Eq. 10
    # prints e*K = 7.331e-24 per ampere: the printed endpoints are
    # 9.351 -+ 7.311, not 9.351 -+ 7.331
    p_mec, slipped, per_ampere = Decimal("9.351e-23"), Decimal("7.311e-23"), Decimal("7.331e-24")
    assert p_mec - slipped == Decimal("2.040e-23")
    assert p_mec + slipped == Decimal("16.662e-23")
    assert (REFERENCE["P_eff_min"], REFERENCE["P_eff_max"]) == (2.040e-23, 16.662e-23)
    ten_amperes = 10 * per_ampere
    assert p_mec - ten_amperes != Decimal("2.040e-23")
    assert p_mec + ten_amperes != Decimal("16.662e-23")
    flagged = {name for name, _, _, _, flag in _PAPER_ROWS if flag}
    assert flagged == {"P_eff_min", "P_eff_max"}


# Eq. 3's e*K*I at 10 A as the paper printed it, a digit off 10 * 7.331e-24
SLIPPED_EKI = 7.311e-23


def factor_products():
    """Each row's computed/printed ratio, as the product of its named factors.

    The factors are the model's constants over the paper's (e, h, m_e and
    N; mu0 differs by 5.5e-10), each row's truncation, value before
    truncation over printed value, and the Eq. 3 slip; a row derived from
    printed values carries the factors of the values it was fed.
    """
    e, h, m_e = E_CHARGE / E_PAPER, H / H_PAPER, M_E / M_E_PAPER
    n = SETUP.coil.N / N_PAPER  # 1257 whole turns over 400*pi
    cut_off = {name: value / REFERENCE[name] for name, _, value, _ in CHAIN}
    f = {}
    # sqrt(2*m_e*e*U)
    f["p_mec"] = math.sqrt(m_e * e) * cut_off["p_mec"]
    # e*mu0*N/(2*pi)*ln(R2/R1)
    f["p_add_coeff"] = e * n * cut_off["p_add_coeff"]
    # the printed e*K over the exact e: p_add_coeff's factors
    f["K"] = f["p_add_coeff"]
    # Eq. 3, p_mec -+ 10 A * e*K: fed the printed p_mec and e*K, whose
    # factors weigh in as the terms do; the slip turns the paper's
    # p_mec -+ 10*e*K into the printed p_mec -+ SLIPPED_EKI
    p, eKI = REFERENCE["p_mec"], 10 * REFERENCE["p_add_coeff"]
    for name, sign in (("P_eff_min", -1), ("P_eff_max", +1)):
        fed = (p * f["p_mec"] + sign * eKI * f["p_add_coeff"]) / (p + sign * eKI)
        slip = (p + sign * eKI) / (p + sign * SLIPPED_EKI)
        f[name] = fed * slip
    # h/P * D/a, fed the printed P: p_mec at 0 A, P_eff_max and P_eff_min at -+10 A
    f["i_zero_field"] = h / f["p_mec"] * cut_off["i_zero_field"]
    f["i_eff_min"] = h / f["P_eff_max"] * cut_off["i_eff_min"]
    f["i_eff_max"] = h / f["P_eff_min"] * cut_off["i_eff_max"]
    # 1/i, fed the printed i_eff_max and i_eff_min
    f["inverse_i_min"] = cut_off["inverse_i_min"] / f["i_eff_max"]
    f["inverse_i_max"] = cut_off["inverse_i_max"] / f["i_eff_min"]
    return f


@pytest.mark.parametrize("row", reproduce_paper().rows, ids=lambda row: row.name)
def test_each_deviation_is_the_product_of_its_named_factors(row):
    # all the named factors leave is mu0's ratio, 5.4e-10, which the
    # subtraction in P_eff_min makes 2e-9
    ratio = row.computed / row.reference
    product = factor_products()[row.name]
    assert abs(ratio - product) <= 2e-4 * product
