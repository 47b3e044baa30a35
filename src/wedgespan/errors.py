"""Exception hierarchy shared by all wedgespan modules."""


class WedgespanError(Exception):
    """Base class for all errors raised by this package."""


class DuplicatePointError(WedgespanError):
    """Two points coincide (within the distance tolerance) where distinct points are required."""


class ApexMismatchError(WedgespanError):
    """The wedges do not match the points one to one: a count mismatch."""


class TooFewPointsError(WedgespanError):
    """Operation needs more points than were supplied."""


class TooManyPointsError(WedgespanError):
    """Input exceeds an exhaustive-enumeration size cap."""


class GuaranteeViolation(WedgespanError):
    """A guarantee the constructions prove failed at runtime: a bug, not bad input."""


class GadgetSearchFailed(GuaranteeViolation):
    """No candidate wedge assignment passed the gadget postconditions.

    Must never occur in practice; a raise signals a bug or an input outside
    the search space.
    """


class TheoremViolation(GuaranteeViolation):
    """A cross edge guaranteed between two independently oriented triplets is missing."""


class SeparationConnectivityViolation(GuaranteeViolation):
    """A required connecting edge between line-separated quadruplets is missing."""


class DisconnectedUDGError(WedgespanError):
    """The unit disk graph of the input is not connected."""


class ComponentClaimViolation(GuaranteeViolation):
    """A neighbor of a small greedy component is not in a size-3 component."""


class HopBoundViolation(GuaranteeViolation):
    """The converted antenna graph exceeds its hop-stretch bound."""


class PartitionError(WedgespanError):
    """A component partition fails its structural invariants."""


class GridLayoutError(WedgespanError):
    """A grid graph violates the layout assumptions of a reduction."""


class DegreeTooHighError(GridLayoutError):
    """Square-grid reduction requires maximum degree 3."""


class NotBipartiteError(GridLayoutError):
    """Square-grid reduction could not 2-color the graph."""


class InstanceParseError(WedgespanError):
    """Malformed instance or result file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownGeneratorError(WedgespanError):
    """Instance generator name not recognized."""
