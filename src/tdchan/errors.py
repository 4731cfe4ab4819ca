"""Exception types raised by the package.

Every error about the caller's input derives from TdchanError so callers
can catch the whole family.  Most also derive from ValueError because they
signal bad arguments.  CovarianceMismatch alone does not: it signals a
fault of the library itself, and the CLI maps it to exit code 4.
"""


class TdchanError(Exception):
    """Base class for all package errors."""


class BadDimension(TdchanError, ValueError):
    """Dimension is not an integer >= 2."""


class OutOfRange(TdchanError, ValueError):
    """A scalar parameter lies outside its admissible interval."""


class DimensionMismatch(TdchanError, ValueError):
    """Operator or vector dimensions do not agree."""


class NotPSD(TdchanError, ValueError):
    """Matrix failed the positive semidefiniteness check."""


class LengthMismatch(TdchanError, ValueError):
    """Two vectors that must have equal length do not."""


class SumMismatch(TdchanError, ValueError):
    """Vector entries do not sum to the required total."""


class BadK(TdchanError, ValueError):
    """Index k outside the admissible range for the requested quantity."""


class ZeroT(TdchanError, ValueError):
    """Operation undefined at t = 0."""


class BadT(TdchanError, ValueError):
    """Channel parameter t outside the range required by an inequality."""


class BadLength(TdchanError, ValueError):
    """Vector has the wrong number of entries."""


class BadSignPattern(TdchanError, ValueError):
    """Vector does not have exactly one negative entry."""


class NearZeroNu(TdchanError, ValueError):
    """A coordinate is too close to zero for a reciprocal to be meaningful."""


class ConfigError(TdchanError, ValueError):
    """Scan or optimizer configuration is inconsistent."""


class CovarianceMismatch(RuntimeError):
    """The dense two-copy route and the Schmidt-weight closed form disagree."""
