"""Exception types shared across the workbench."""


class HgaError(Exception):
    """Base class for all workbench errors."""


class InternalError(HgaError):
    """A step that cannot fail on valid input failed: a fault of hga itself,
    not of its input."""


class InvalidPresentation(HgaError):
    pass


class NotAdmissible(HgaError):
    """Ideal not admissible within the path-length cap."""


class EmptyIdempotent(HgaError):
    pass


class UnknownVertex(HgaError):
    pass


class UnknownArrow(HgaError):
    pass


class AlgebraMismatch(HgaError):
    """Two representations live over different algebras."""


class ArityMismatch(HgaError):
    """Tuples with different (d, m) parameters."""


class NotGorensteinVerified(HgaError):
    """Gorenstein-projective test called before the algebra was certified."""


class LabelMatchFailed(InternalError):
    """The checked Ext^d criterion fails on a family hga built itself."""


class ScaleExceeded(HgaError):
    pass


class NoCommutativeSquare(HgaError):
    pass


class NotReducible(HgaError):
    """Neither the primal nor the dual fabric recipe applies to a square."""


class NotGentle(HgaError):
    pass


class AdjacencyViolation(HgaError):
    """Index set for the tilting family violates the non-adjacency condition."""


class UnsupportedSummand(HgaError):
    """Shifted-projective summands are out of scope."""
