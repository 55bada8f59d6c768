"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class UsageError(ValueError):
    """Operation invoked with structurally invalid arguments."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature stopped before meeting its tolerance."""
