"""Parameter ranges shared by the library and the command line.

This module imports nothing, so the command line can build its options
(``--precision``, ``oracle --n``) without loading mpmath or the layers that
enforce these ranges.  ``qsa.numeric`` re-exports the precision policy and
``qsa.simulate`` the enumeration limit; those are their public homes.
"""

#: constants() accepts precisions in this inclusive range.  With the clamp in
#: guarded_constants() it fixes how many guard digits every accepted
#: precision's constants carry, and so every printed digit; widening either
#: changes outputs.
MIN_PRECISION = 50
MAX_PRECISION = 100

#: Every high-precision evaluation in the package, and the command line,
#: accepts precisions (significant decimal digits) in this inclusive range.
PRECISION_RANGE = (30, MAX_PRECISION)

#: Largest n that exhaustive pivot enumeration accepts.
EXHAUSTIVE_LIMIT = 12
