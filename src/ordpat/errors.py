"""Exception hierarchy for ordpat.

Every error raised on purpose by this package derives from :class:`OrdpatError`,
so callers (and the CLI) can catch one type. The concrete classes mirror the
failure modes named in the individual function contracts.
"""


class OrdpatError(Exception):
    """Base class for all errors raised by ordpat."""


# --- window / pattern extraction ---------------------------------------------

class NonFiniteValue(OrdpatError):
    """A value is NaN or infinite where a finite number is required."""


class WindowTooShort(OrdpatError):
    """A pattern window needs at least two values."""


class SeriesTooShort(OrdpatError):
    """The series does not contain enough points for the requested analysis."""


class RankOutOfRange(OrdpatError):
    """Permutation rank outside [0, (h+1)! - 1]."""


class UnsupportedOrder(OrdpatError):
    """Pattern order h outside the supported range."""


# --- dependence estimation ----------------------------------------------------

class EmptySequence(OrdpatError):
    """A pattern sequence with no patterns cannot be summarized."""


class LengthMismatch(OrdpatError):
    """Two pattern sequences must have the same number of windows."""


class OrderMismatch(OrdpatError):
    """Two pattern objects must share the same order h."""


class NotAligned(OrdpatError):
    """Two series must have identical key lists to be compared."""


class DelayTooLarge(OrdpatError):
    """Shifting by the requested delay leaves too little overlap."""


class ZeroVariance(OrdpatError):
    """Correlation is undefined when an increment series is constant."""


# --- ingestion ----------------------------------------------------------------

class MissingColumn(OrdpatError):
    """A required CSV column is absent from the header."""


class ParseError(OrdpatError):
    """A CSV file did not parse: undecodable text, a row or field csv refuses,
    or a cell that is not a finite decimal number."""


class DuplicateKey(OrdpatError):
    """Series keys must be unique."""


class EmptyFile(OrdpatError):
    """The CSV file contains no data rows."""


class NoCommonKeys(OrdpatError):
    """Two series share no keys, so an inner join would be empty."""


# --- synthesis ----------------------------------------------------------------

class InvalidRho(OrdpatError):
    """Noise correlation must lie in [-1, 1]."""


class TooManyOutliers(OrdpatError):
    """Cannot inject more outliers than there are observations."""
