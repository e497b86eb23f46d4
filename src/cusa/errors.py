"""Exception hierarchy shared across the package.

Four families, matching how failures surface at the command line:
usage problems, unreadable or corrupt files, inconsistent data, and
numeric breakdowns. The CLI maps each family to a stable exit code.
"""

from contextlib import contextmanager


class CusaError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CusaError):
    """Invalid configuration or argument values (CLI exit 2)."""


class FormatError(CusaError):
    """Malformed, corrupt, or unsupported input files (CLI exit 3)."""


class DataError(CusaError):
    """Inputs that parse but do not fit together (CLI exit 4)."""


class NumericError(CusaError):
    """Numeric invariant violations at run time (CLI exit 5)."""


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

class InvalidConfig(UsageError):
    pass


class InvalidDimension(UsageError):
    pass


class NegativeWeight(UsageError):
    pass


class BatchTooLarge(UsageError):
    pass


class OutOfRange(UsageError):
    pass


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class BadMagic(FormatError):
    pass


class VersionUnsupported(FormatError):
    pass


class DuplicateId(FormatError):
    pass


class TruncatedFile(FormatError):
    def __init__(self, offset, message=None):
        self.offset = offset
        super().__init__(message or f"file truncated at byte offset {offset}")


class NonFiniteValue(FormatError):
    pass


class MalformedLine(FormatError):
    def __init__(self, lineno, message=None):
        self.lineno = lineno
        super().__init__(message or f"malformed line {lineno}")


# ---------------------------------------------------------------------------
# data consistency
# ---------------------------------------------------------------------------

class UnknownId(DataError):
    pass


class MissingFeature(DataError):
    pass


class EmptyGallery(DataError):
    pass


class DegenerateInput(DataError):
    pass


class ShapeMismatch(DataError):
    pass


class DimensionMismatch(DataError):
    pass


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

class ZeroRow(NumericError):
    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"row {row} has near-zero norm")


class NotNormalized(NumericError):
    pass


class NonPositiveTemperature(NumericError):
    pass


class TrainAbort(NumericError):
    """Numeric failure inside the training loop, with step context."""

    def __init__(self, epoch, step, cause):
        self.epoch = epoch
        self.step = step
        super().__init__(f"training aborted at epoch {epoch}, step {step}: {cause}")


@contextmanager
def too_large_to_allocate(error_cls, sizes: str):
    """Raise `error_cls` ("<sizes> too large to allocate: ...") when an
    array allocated in the block cannot be. numpy raises MemoryError when
    it cannot get the memory and ValueError when the byte size overflows,
    so keep the block to the allocations themselves."""
    try:
        yield
    except (MemoryError, ValueError) as err:
        raise error_cls(f"{sizes} too large to allocate: {err}") from None
