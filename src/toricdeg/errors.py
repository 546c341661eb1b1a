"""Exception types shared across the package.

Precondition failures and requests past a documented work limit raise
subclasses of ToricDegError so the CLI maps them to a dedicated exit code;
malformed input is SchemaError.  A broken library invariant raises
InternalError, an AssertionError, which the CLI reports as internal.
"""


class ToricDegError(Exception):
    """Base class for all domain errors."""


class SchemaError(ToricDegError):
    """Input file or request does not match the documented schema."""


class UnboundedError(ToricDegError):
    """Polytope operation requires a bounded polytope."""


class EmptyPolytopeError(ToricDegError):
    """Polytope operation requires a nonempty polytope."""


class LowerDimensionalError(ToricDegError):
    """Operation requires a full-dimensional polytope."""


class NotIntegralError(ToricDegError):
    """Operation requires a polytope with integer vertices."""


class NotSmoothError(ToricDegError):
    """Polytope fails the smoothness test at some vertex."""


class NotNormalError(ToricDegError):
    """Polytope fails the normality (lattice decomposition) test."""


class OriginCornerError(ToricDegError):
    """Polytope lacks the origin vertex or leaves the nonnegative orthant."""


class DependentBasisError(ToricDegError):
    """Valuation image requested for a linearly dependent family."""


class ZeroPolynomialError(ToricDegError):
    """Valuation of the zero polynomial is undefined."""


class ZeroOrbitError(ToricDegError):
    """Weight pairs to zero with every coroot."""


class NotQTrivialError(ToricDegError):
    """Bott data is not rationally trivial."""


class MoveError(ToricDegError):
    """Requested degeneration move is not available for this data."""


class WorkLimitError(ToricDegError):
    """Well-formed request exceeds a documented work limit."""


class InternalError(AssertionError):
    """A library invariant that a caller must keep was broken."""
