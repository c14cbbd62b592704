"""Exception types shared across the package."""


class CurveError(Exception):
    """Base class for invalid curve data."""


class DegenerateEdge(CurveError):
    """An edge is shorter than the length floor relative to the diameter."""


class SelfIntersection(CurveError):
    """A component crosses itself or two components touch."""


class AmbiguousNesting(CurveError):
    """A probe vertex sits too close to another component to classify nesting."""


class OrientationMismatch(CurveError):
    """A component's orientation contradicts its nesting depth (outer +1, hole -1)."""


class BandExceeded(CurveError):
    """A component that may meet the reference reaches |s| >= 2 delta."""


class ReferenceEnclosed(CurveError):
    """A component clear of the reference encloses a reference component and
    reaches |s| >= 2 delta."""


class SingularSystem(Exception):
    """A banded solve failed: too few vertices, a zero pivot or non-finite entries."""


class NonZeroMean(Exception):
    """A velocity field violates the per-component zero-mean requirement."""


class StepRejected(Exception):
    """A flow step failed validity checks; the caller should halve dt."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TopologyChange(Exception):
    """The evolving curve developed an intersection; never handled silently."""


class AreaDriftExceeded(Exception):
    """The cumulative area drift stays over its bound down to the dt floor."""


class DtFloorReached(Exception):
    """A flow step is still rejected at the dt floor, for any other reason."""


class ZeroReach(Exception):
    """Reference components touch; no admissible tube width exists."""


class RankDeficient(Exception):
    """The boundary-integral system is numerically singular."""


class NonStationaryReference(Exception):
    """An operation requiring a stationary reference got a moving one."""


class DegenerateInitialData(Exception):
    """Relative energy started at zero but grew; falsifies uniqueness."""
