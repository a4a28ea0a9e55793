"""Exception types raised by the coilfringe package, one per failing exit code."""


class DomainError(ValueError):
    """Input outside the domain of an operation or of the model: a
    singular point, a winding that cannot be built, an unsolvable order,
    a degenerate fit, a quadrature out of budget. The CLI exits 1."""


class ScenarioError(ValueError):
    """Scenario or command input is malformed, violates an invariant or
    asks for more work than a documented limit allows. The CLI exits 2."""
