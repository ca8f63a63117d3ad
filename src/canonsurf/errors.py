"""Exception hierarchy shared by all canonsurf modules."""


class CanonsurfError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CanonsurfError):
    """Grid too small or shapes inconsistent."""


class RangeError(CanonsurfError):
    """A query value lies outside the represented range."""


class MonotonicityError(CanonsurfError):
    """Samples that must be strictly monotone are not."""


class DomainError(CanonsurfError):
    """Parameter outside the admissible domain of a chart."""


class RegularityError(CanonsurfError):
    """Degenerate chart data (xu x xv vanishes, or EG - F^2 <= 0)."""


class NotPrincipalError(CanonsurfError):
    """F or M exceeds the principality tolerance."""


class DegenerateDirectionError(CanonsurfError):
    """Zero tangent direction supplied where one is required."""


class UmbilicError(CanonsurfError):
    """Principal curvatures coincide somewhere on the grid."""


class DiscriminantError(CanonsurfError):
    """H^2 - K is not strictly positive somewhere on the grid."""


class CodazziViolation(CanonsurfError):
    """Map integrand varies along the direction it must be constant in."""


class IntegrationError(CanonsurfError):
    """Frame integration refused: a bad initial frame or a grid too coarse for the stepper."""


class ShapeMismatchError(CanonsurfError):
    """Two grids or meshes that must share a shape do not."""


class PositivityError(CanonsurfError):
    """A field that must be strictly positive is not."""


class ZeroMeanCurvatureError(CanonsurfError):
    """Mean curvature vanishes where the flat-surface test needs 1/H."""


class CompatibilityWarning(UserWarning):
    """Invariant data looks incompatible; reconstruction proceeds anyway."""
