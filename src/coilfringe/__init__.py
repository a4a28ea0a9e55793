"""Vector potential of annular coils and electron diffraction fringes.

Each name is defined in, and imported from, the module that owns it,
such as coilfringe.winding or coilfringe.cli; importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
