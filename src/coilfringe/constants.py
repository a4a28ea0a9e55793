"""Physical constants in SI units.

All internal computation in this package is done in double-precision SI
base units. The values below are the exact SI-2019 defined values for h
and e, and CODATA recommended values for m_e and mu0.
"""

from collections import namedtuple


@classmethod
def checked_make(cls, iterable):
    """_make for a record whose __new__ checks its fields: it builds the
    record through cls(...), so _make and _replace (which calls _make)
    run the same checks as the constructor."""
    return cls(*iterable)


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
    _make = checked_make

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
