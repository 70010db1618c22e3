"""Parameter ranges shared by the library and the command line.

This module imports only ``operator``, so the command line can build its
options (``--precision``, ``oracle --n``) without loading mpmath or the
layers that enforce these ranges.  ``qsa.numeric`` re-exports the precision
range and ``qsa.simulate`` the enumeration limit; those are their public
homes.
"""

from operator import index

#: Every high-precision evaluation in the package, and the command line,
#: accepts precisions (significant decimal digits) in this inclusive range.
#: It is the only precision range: the constants an evaluation needs are
#: taken at its own working precision.
PRECISION_RANGE = (30, 100)

#: Largest n that exhaustive pivot enumeration accepts.
EXHAUSTIVE_LIMIT = 12


def integer(value, name: str) -> int:
    """``value`` as an int; a ``ValueError`` naming it if it is not integral.

    ``True`` and ``False`` are refused too, as ``numeric.harmonic`` and
    ``HarmonicExpr.evaluate`` refuse them.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
