"""Exception types shared across the package."""


class QsaError(Exception):
    """Base class for package-specific failures."""


class InsufficientDataError(QsaError, ValueError):
    """A fit was requested with fewer data points than its template needs."""


class FitSolverError(QsaError, RuntimeError):
    """The exact linear solver could not settle on a solution."""


class GuessError(QsaError, RuntimeError):
    """Template escalation exhausted without a verified closed form."""


class StabilityError(QsaError, RuntimeError):
    """An asymptotic evaluation did not stabilize to the requested digits."""


class CrossCheckError(QsaError, RuntimeError):
    """Two independent computation routes disagreed on an exact value."""


class EnclosureError(QsaError, ValueError):
    """An enclosure cannot meet the error bound asked of it."""
