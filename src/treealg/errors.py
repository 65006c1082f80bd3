"""Exception types shared across the package."""


class TreealgError(ValueError):
    """Base class for all domain errors raised by this package."""


class CyclicGraph(TreealgError):
    """An operation that requires an acyclic graph met a directed cycle."""


class NotATree(TreealgError):
    """A single-rooted out-tree was required."""


class MismatchedLevels(TreealgError):
    """Embeddings or levels of a tower do not line up."""


class MultiBlockUnsupported(TreealgError):
    """The operation is defined for single-block algebras only."""


class GraphMismatch(TreealgError):
    """Two correspondence vectors live over different graphs."""


class PreconditionViolated(TreealgError):
    """An analytic precondition does not hold for the given data."""


class OutputTooLarge(TreealgError):
    """A result would exceed a documented size cap; nothing was built."""


class FormatError(TreealgError):
    """A document does not conform to the interchange format."""
