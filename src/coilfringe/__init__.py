"""Vector potential of annular coils and electron diffraction fringes.

The public names in _PUBLIC are imported from their modules on first
access (PEP 562), so importing the package loads no numpy; only the
modules that make arrays import it. The constants need only the
standard library and are imported at once, which also keeps
coilfringe.constants the function rather than its module.
"""

import importlib

from .constants import PhysicalConstants, constants

__version__ = "0.1.0"

_PUBLIC = {
    "ideal_field": (
        "AnnularCoilIdeal", "CoilWindingSpec", "WireArraySpec", "annular_coil_A",
        "array_Az_closed", "array_Az_discrete", "array_Az_quadrature",
        "coil_constant_K", "single_wire_Az",
    ),
    "winding": (
        "Box", "HomogeneityReport", "Winding", "build_winding", "field_at",
        "homogeneity_report",
    ),
    "diffraction": (
        "BeamSpec", "FringeOrder", "FringePattern", "GratingScreenSpec",
        "de_broglie_lambda", "effective_momentum", "fringe_pattern",
        "inverse_interfringe", "linear_response_fit", "mechanical_momentum",
    ),
    "scenario": (
        "ExperimentScenario", "SweepSpec", "load_scenario", "paper_scenario",
        "scenario_from_dict",
    ),
    "report": ("reproduce_paper",),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["PhysicalConstants", "constants", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
