"""Exception types shared across the package."""


class LocsolError(Exception):
    """Base class for all package-specific failures."""


class DegenerateInput(LocsolError):
    """Raised when a coefficient vector cannot define the intended variety.

    Examples: fewer than two coefficients, an exponent below 2, or an
    all-zero vector.
    """


class PreconditionViolated(LocsolError):
    """An internal routine was called outside its documented domain."""


class ResourceBound(LocsolError):
    """A computation would exceed its configured work budget.

    The ``required`` attribute holds the estimated cost that tripped the
    bound, so callers can report how far out of range the request was.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class UnsupportedPair(LocsolError):
    """No closed-form density is stored for the requested dimension/degree."""


class DivergentTail(LocsolError):
    """The large-prime tail has no convergent majorant (surfaces only)."""


class ClassificationMismatch(LocsolError):
    """An exhaustive solubility table disagrees with the recorded one.

    Carries the offending cell so a failure pinpoints a single vector.
    """

    def __init__(self, message: str, cell=None):
        super().__init__(message)
        self.cell = cell


class OracleOverflow(LocsolError):
    """The lifting-tree oracle exceeded its node budget before deciding."""


class CacheCorrupt(LocsolError):
    """A cache record failed its checksum or schema validation."""
