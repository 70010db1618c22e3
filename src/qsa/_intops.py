"""Big-integer helpers, optionally accelerated by gmpy2.

Everything here works on plain Python ints.  When gmpy2 is installed, the
multiply and gcd hot spots route through GMP, which is dramatically faster
once operands reach a few thousand bits (the packed polynomial products in
the generating-function builder hit megabit sizes).
"""

from __future__ import annotations

import math

try:
    import gmpy2 as _g

    def big(x):
        """Wrap an int for repeated arithmetic in the fast integer domain."""
        return _g.mpz(x)

    def big_mul(a, b):
        """Product of two (possibly huge) ints, returned as a plain int."""
        return int(_g.mpz(a) * _g.mpz(b))

    def big_gcd(a, b):
        return int(_g.gcd(_g.mpz(a), _g.mpz(b)))

except ImportError:
    def big(x):
        return x

    def big_mul(a, b):
        return a * b

    def big_gcd(a, b):
        return math.gcd(a, b)
