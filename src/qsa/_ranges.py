"""Parameter ranges shared by the library and the command line.

This module imports nothing, so the command line can build its options
(``--precision``, ``oracle --n``) without loading mpmath or the layers that
enforce these ranges.  ``qsa.numeric`` re-exports the precision range and
``qsa.simulate`` the enumeration limit; those are their public homes.
"""

#: Every high-precision evaluation in the package, and the command line,
#: accepts precisions (significant decimal digits) in this inclusive range.
#: It is the only precision range: the constants an evaluation needs are
#: taken at its own working precision.
PRECISION_RANGE = (30, 100)

#: Largest n that exhaustive pivot enumeration accepts.
EXHAUSTIVE_LIMIT = 12
