"""Physical constants in SI units, and the checked _make of the records.

All internal computation in this package is done in double-precision SI
base units. The values below are the exact SI-2019 defined values for h
and e, and CODATA recommended values for m_e and mu0.
"""

H = 6.62607015e-34  # Planck constant, J*s
E_CHARGE = 1.602176634e-19  # elementary charge, C
M_E = 9.1093837015e-31  # electron mass, kg
MU0 = 1.25663706212e-6  # vacuum permeability, T*m/A


@classmethod
def checked_make(cls, iterable):
    """_make for a record whose __new__ checks its fields: it builds the
    record through cls(...), so _make and _replace (which calls _make)
    run the same checks as the constructor."""
    return cls(*iterable)
