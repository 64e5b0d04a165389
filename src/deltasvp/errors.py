"""Exception types shared across the package.

Every error that a caller is expected to handle derives from DeltaSvpError.
InvariantError is different: it signals a broken internal invariant, i.e. a
bug, and is never raised for bad input.
"""


class DeltaSvpError(Exception):
    """Base class for all anticipated failures."""


class DimensionError(DeltaSvpError):
    """Matrix or vector dimensions do not fit the operation."""


class RankError(DeltaSvpError):
    """Input matrix does not have the required rank."""


class SingularMatrixError(DeltaSvpError):
    """Square matrix with zero determinant where an inverse is needed."""


class DomainError(DeltaSvpError):
    """Input outside an operation's admissible domain."""


class ThresholdError(DeltaSvpError):
    """Dimension below the guarantee threshold of the solver."""


class BudgetExceededError(DeltaSvpError):
    """An enumeration would exceed its configured budget.

    Raised up front, before any work is done; results are never silently
    truncated.
    """


class ZeroLatticeError(DeltaSvpError):
    """Input matrix generates the trivial lattice {0}."""


class UnboundedPolyhedronError(DeltaSvpError):
    """Polyhedron has a nonzero recession cone."""


class EmptyPolyhedronError(DeltaSvpError):
    """Polyhedron contains no points."""


class InvariantError(AssertionError):
    """Internal invariant violated; indicates a bug, not a bad input."""
