"""Exception and warning types shared across the package."""

__all__ = [
    "BranchfallError",
    "BoundaryViolation",
    "NonHermitianState",
    "PositivityError",
    "PositivityWarning",
    "WindowTooSmall",
    "EscapeMass",
    "EscapeSampled",
    "ExplosionGuard",
    "EmptyTree",
    "NodeRegion",
    "RuleError",
]


class BranchfallError(Exception):
    """Base class for all package-specific errors."""


class BoundaryViolation(BranchfallError):
    """A state or trajectory carries non-negligible mass outside the grid window."""


class NonHermitianState(BranchfallError):
    """A density matrix (or an expectation value derived from one) is not Hermitian."""


class PositivityError(BranchfallError):
    """A density matrix has a negative eigenvalue too large to attribute to roundoff."""


class PositivityWarning(UserWarning):
    """A density matrix has a small negative eigenvalue, within the monitoring band."""


class WindowTooSmall(BranchfallError):
    """The phase-space window does not cover enough of the state for a valid POVM."""


class EscapeMass(BranchfallError):
    """Weight outside the monitored phase-space window exceeded its tolerance."""


class EscapeSampled(BranchfallError):
    """A stochastic draw selected the escape branch rather than any window cell."""


class ExplosionGuard(BranchfallError):
    """Time evolution produced non-finite values or lost normalization."""


class EmptyTree(BranchfallError):
    """A branch-tree operation needs at least one live leaf and found none."""


class NodeRegion(BranchfallError):
    """A guidance-equation particle entered a region of vanishing probability density."""


class RuleError(ValueError):
    """An argument outside a builder's rule; field names the argument."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
