import math

from coilfringe.constants import E_CHARGE, H, M_E, MU0


def test_defined_values():
    assert H == 6.62607015e-34
    assert E_CHARGE == 1.602176634e-19
    assert M_E == 9.1093837015e-31
    assert MU0 == 1.25663706212e-6


def test_mu0_over_2pi_identity():
    # the CODATA mu0 differs from exact 4pi*1e-7 by ~5.4e-10 relative
    assert abs(MU0 / (2 * math.pi) - 2.0e-7) / 2.0e-7 < 1e-9
