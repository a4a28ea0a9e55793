"""Vector potential of annular coils and electron diffraction fringes."""

from .constants import PhysicalConstants, constants
from .ideal_field import (
    AnnularCoilIdeal,
    WireArraySpec,
    annular_coil_A,
    array_Az_closed,
    array_Az_discrete,
    array_Az_quadrature,
    coil_constant_K,
    single_wire_Az,
)
from .winding import (
    Box,
    CoilWindingSpec,
    HomogeneityReport,
    Winding,
    build_winding,
    field_at,
    homogeneity_report,
)
from .diffraction import (
    BeamSpec,
    FringeOrder,
    FringePattern,
    GratingScreenSpec,
    de_broglie_lambda,
    effective_momentum,
    fringe_pattern,
    inverse_interfringe,
    linear_response_fit,
    mechanical_momentum,
)
from .scenario import (
    ExperimentScenario,
    SweepSpec,
    load_scenario,
    paper_scenario,
    scenario_from_dict,
)
from .report import reproduce_paper

__version__ = "0.1.0"
