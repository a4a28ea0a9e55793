"""Physical constants in SI units.

All internal computation in this package is done in double-precision SI
base units. The values below are the exact SI-2019 defined values for h
and e, and CODATA recommended values for m_e and mu0.
"""

from collections import namedtuple


class PhysicalConstants(
    namedtuple(
        "PhysicalConstants",
        "h e m_e mu0",
        defaults=(6.62607015e-34, 1.602176634e-19, 9.1093837015e-31, 1.25663706212e-6),
    )
):
    """Fixed set of physical constants (SI).

    h    Planck constant, J*s
    e    elementary charge, C
    m_e  electron mass, kg
    mu0  vacuum permeability, T*m/A
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value <= 0:
                raise ValueError(f"constant {name} must be strictly positive")
        return self


_SI = PhysicalConstants()


def constants() -> PhysicalConstants:
    """Return the authoritative constant set.

    Pure and deterministic; repeated calls return the same frozen
    instance. Tests that need modified constants may construct their own
    PhysicalConstants and pass it explicitly where supported.
    """
    return _SI
