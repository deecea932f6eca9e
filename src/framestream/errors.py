"""Typed exceptions raised by the public API."""


class FramestreamError(Exception):
    """Base class for all package errors."""


class DegeneratePoint(FramestreamError):
    """Frame evaluated where it is undefined (axis, pole, origin)."""


class ParallelInput(FramestreamError):
    """Gram-Schmidt input parallel to the tangent within tolerance."""


class PolarDirection(FramestreamError):
    """Azimuth undefined because the direction is parallel to n."""


class OutOfRange(FramestreamError):
    """Scalar argument outside its admissible interval."""


class EvaluationFailure(FramestreamError):
    """A field raised at a probe point during differentiation."""


class NotUnitField(FramestreamError):
    """Field norm deviates from 1 beyond tolerance at the base point."""


class DegenerateTangent(FramestreamError):
    """Curve velocity too small to define a direction."""


class LeftDomain(FramestreamError):
    """Curve integration stepped onto a degenerate frame point."""


class NotOnLeaf(FramestreamError):
    """Loop is not tangent to the leaf within tolerance."""


class FoliationMissing(FramestreamError):
    """A surface form was requested where the leaf does not exist."""


class DegenerateMetric(FramestreamError):
    """First fundamental form numerically singular."""


class DomainExit(FramestreamError):
    """Ray probe left the frame's domain."""


class UnwrapFailure(FramestreamError):
    """Azimuth jumped too far between ray probes to unwrap safely."""


class InconsistentDirection(FramestreamError):
    """Supplied direction disagrees with the (mu, omega, frame) state."""


class OutsideValidRegion(FramestreamError):
    """Catalog entry evaluated outside its valid region."""


class NotOrthonormal(FramestreamError, ValueError):
    """Frame vectors miss unit norm, orthogonality or right-handedness
    (non-finite vectors included)."""


class InconsistentBreakdown(FramestreamError, ValueError):
    """A coefficient differs from the sum of its named contributions."""
