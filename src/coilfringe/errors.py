"""Exception types raised by the coilfringe package."""


class CoilfringeError(ValueError):
    """Base class for all package-specific errors."""


class DomainError(CoilfringeError):
    """Input outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation point coincides with (or is too close to) a source wire."""


class QuadratureError(CoilfringeError):
    """Quadrature failed to converge within its budget of nodes.

    Carries the best estimate achieved so far in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConstructionError(CoilfringeError):
    """Winding geometry is not physically constructible."""


class ModelDomainError(CoilfringeError):
    """Parameters leave the validity regime of the diffraction model."""


class OrderLimitError(CoilfringeError):
    """Grating equation unsolvable for a requested diffraction order.

    ``max_order`` is the highest order that is still solvable.
    """

    def __init__(self, message, max_order):
        super().__init__(message)
        self.max_order = max_order


class FitError(CoilfringeError):
    """Least-squares design matrix is rank deficient."""


class ScenarioError(CoilfringeError):
    """Scenario or command input is malformed, violates an invariant or
    asks for more work than a documented limit allows."""
