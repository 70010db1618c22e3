"""Parameter ranges shared by the library and the command line, and the integer rule.

This module imports only ``operator``, so the command line can build its
options (``--precision``, ``oracle --n``) without loading mpmath or the
layers that enforce these ranges.  ``qsa.numeric`` re-exports the precision
range and ``qsa.simulate`` the enumeration limit; those are their public
homes.

Every size, order, exponent, digit count and window end the package takes
passes through :func:`integer`, once, where it enters: any object with
``__index__`` is accepted, ``True`` and ``False`` are not, and a refused
value raises a ``ValueError`` that names the argument and its bounds.
"""

from operator import index

#: Every high-precision evaluation in the package, and the command line,
#: accepts precisions (significant decimal digits) in this inclusive range.
#: It is the only precision range: the constants an evaluation needs are
#: taken at its own working precision.
PRECISION_RANGE = (30, 100)

#: Largest n that exhaustive pivot enumeration accepts.
EXHAUSTIVE_LIMIT = 12


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int, checked to lie in ``lo..hi`` (each bound inclusive, None for none).

    ``operator.index`` decides what is integral, so 5.0 is refused and an
    ``__index__`` object is accepted; bools are refused.  The ``ValueError``
    names the argument, the value and the bounds.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        n = index(value)
    except TypeError:
        n = None
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        limits = ((">=", lo), ("<=", hi))
        bounds = " and ".join(f"{name} {op} {b}" for op, b in limits if b is not None)
        wanted = f" (an integer {bounds} is required)" if bounds else ""
        raise ValueError(f"{name} must be an integer, got {value!r}{wanted}")
    return n
