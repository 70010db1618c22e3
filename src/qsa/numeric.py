"""Exact rational scalars, harmonic numbers, and the precision policy.

All distribution and moment arithmetic in this package is carried out over
``fractions.Fraction`` (arbitrary-precision, always reduced, positive
denominator), so every identity asserted elsewhere is exact rather than
floating-point.  High-precision reals are mpmath floats created under an
explicit working precision; the helpers here never touch the global mpmath
context outside a ``workdps`` block.

The module holds generalized harmonic numbers ``H_m(n) = sum_{i=1}^n 1/i^m``,
exact (Fraction) and, for very large ``n``, as Euler-Maclaurin enclosures
with a rigorous error bound.  Which of the two a closed form at real
precision uses is decided in one place, ``qsa.fitting.evaluate_asymptotic``.

The constants gamma and zeta(m) that appear in the large-``n`` behaviour of
the comparison-count moments are mpmath's (``mp.euler``, ``mp.zeta``), taken
by each evaluation at its own working precision; the test suite re-derives
them by independent series.  The module also owns the precision policy: the
one range every evaluation and the command line accept,
``PRECISION_RANGE``, defined in ``qsa._ranges``, which loads no layer, and
re-exported here.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from itertools import count
from math import comb, factorial, prod
from typing import TYPE_CHECKING

from ._intops import big, big_gcd
from ._ranges import PRECISION_RANGE, integer
from .errors import EnclosureError

if TYPE_CHECKING:
    from mpmath import mpf

# -----------------------------------------------------------------------
# Exact harmonic numbers
# -----------------------------------------------------------------------

# Prefix sums are cached per exponent m up to this n; larger arguments go
# through divide-and-conquer summation and a point cache.
_PREFIX_LIMIT = 4000

# Not functools.cache: one growing list per m answers every smaller n too.
_prefix: dict[int, list[Fraction]] = {}
_cache_lock = threading.Lock()


def _check_harmonic_args(m: int, n: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"harmonic exponent m must be a positive integer, got {m!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"harmonic argument n must be a non-negative integer, got {n!r}")


def _sum_inv_pow(m: int, lo: int, hi: int):
    """Reduced (num, den) of sum_{i=lo}^{hi} 1/i^m by binary splitting."""
    if hi - lo < 16:
        num, den = big(0), big(1)
        for i in range(lo, hi + 1):
            q = big(i) ** m
            num = num * q + den
            den *= q
        g = big_gcd(num, den)
        return num // g, den // g
    mid = (lo + hi) // 2
    p1, q1 = _sum_inv_pow(m, lo, mid)
    p2, q2 = _sum_inv_pow(m, mid + 1, hi)
    num = p1 * q2 + p2 * q1
    den = q1 * q2
    g = big_gcd(num, den)
    return num // g, den // g


def harmonic(m: int, n: int) -> Fraction:
    """Exact generalized harmonic number H_m(n) = sum_{i=1}^{n} 1/i^m.

    ``harmonic(m, 0)`` is the empty sum 0.  Results are cached; prefix
    tables serve small ``n`` and binary splitting serves large ``n``
    (``harmonic(1, 10**6)`` is a ~430000-digit reduced fraction).  The
    tables are shared and may be used from several threads: a lock
    serialises their growth.
    """
    _check_harmonic_args(m, n)
    if n == 0:
        return Fraction(0)
    if n <= _PREFIX_LIMIT:
        with _cache_lock:
            seq = _prefix.setdefault(m, [Fraction(0)])
            while len(seq) <= n:
                i = len(seq)
                seq.append(seq[-1] + Fraction(1, i**m))
            return seq[n]
    return _harmonic_large(m, n)


@cache
def _harmonic_large(m: int, n: int) -> Fraction:
    num, den = _sum_inv_pow(m, 1, n)
    return Fraction(int(num), int(den))


# -----------------------------------------------------------------------
# Bernoulli numbers (exact, for Euler-Maclaurin corrections)
# -----------------------------------------------------------------------


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2)."""
    # checked in front of the cache, where 4.0 would find the entry of 4
    return _bernoulli(integer(k, "k"))


@cache
def _bernoulli(k: int) -> Fraction:
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k == 0:
        return Fraction(1)
    if k > 2 and k % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * _bernoulli(j)
    return -acc / (k + 1)


# -----------------------------------------------------------------------
# Asymptotic harmonic numbers
# -----------------------------------------------------------------------


def harmonic_enclosure(m: int, n: int, digits: int) -> tuple[mpf, mpf]:
    """H_m(n) to within 10^-digits: ``(value, bound)`` with |H_m(n) - value| <= bound.

    ``value`` is the Euler-Maclaurin expansion: the divergent or limiting
    part (ln n + gamma, or zeta(m) - n^(1-m)/(m-1)), plus 1/(2 n^m), minus
    the corrections B_{2k}/(2k)! * m(m+1)...(m+2k-2) / n^(m+2k-1) for
    k = 1, 2, ..., cut before the first one below half the budget.  For
    f(x) = x^-m every derivative keeps one sign, so the remainder lies
    between zero and that first omitted term (Graham, Knuth & Patashnik,
    *Concrete Mathematics*, section 9.5).  ``bound`` adds to it the rounding
    in the evaluation, mpmath's gamma or zeta(m) included, and never exceeds
    10^-digits: when the terms start to grow before one falls below the
    budget (n too small for the digits asked), or the rounding alone exceeds
    it, :class:`EnclosureError` is raised instead.  The value carries
    ``digits + 10`` significant digits.
    """
    from mpmath import mp, mpf  # here, so that exact work never loads mpmath

    _check_harmonic_args(m, n)
    if n < 1:
        raise ValueError("asymptotic expansion requires n >= 1")
    if not isinstance(digits, int) or isinstance(digits, bool) or digits < 1:
        raise ValueError(f"digits must be a positive integer, got {digits!r}")
    with mp.workdps(digits + 10):
        budget = mpf(10) ** -digits
        nn = mpf(n)
        base = mp.log(nn) + mp.euler if m == 1 else mp.zeta(m) - nn ** (1 - m) / (m - 1)
        value = base + 1 / (2 * nn**m)
        previous = None
        for k in count(1):
            coeff = bernoulli(2 * k) * prod(range(m, m + 2 * k - 1)) / factorial(2 * k)
            term = mpf(coeff.numerator) / mpf(coeff.denominator) / nn ** (m + 2 * k - 1)
            if abs(term) <= budget / 2:
                break
            if previous is not None and abs(term) >= previous:
                raise EnclosureError(
                    f"H_{m}({n}) cannot be enclosed to 10^-{digits}: the "
                    f"Euler-Maclaurin terms grow from term {k} on, "
                    f"at {mp.nstr(previous, 3)}"
                )
            value -= term
            previous = abs(term)
        # The base term and 1/(2 n^m) take 9 rounded operations, gamma or
        # zeta(m) itself counted as one, and each of the k - 1 subtracted
        # terms at most 5, every one on a quantity no larger than |value| + 1
        # and off by at most 2^(1-prec) of it (mpmath's constants, log and
        # integer powers stay within an ulp); 4 * (k + 8) covers them.
        rounding = 4 * (k + 8) * mpf(2) ** (1 - mp.prec) * (abs(value) + 1)
        bound = abs(term) + rounding
        if bound > budget:
            raise EnclosureError(
                f"H_{m}({n}) cannot be enclosed to 10^-{digits}: the "
                f"rounding leaves an error bound of {mp.nstr(bound, 3)}"
            )
        return value, bound


# -----------------------------------------------------------------------
# Precision policy
# -----------------------------------------------------------------------


def check_precision(precision: int) -> None:
    """Reject a precision that is not an integer in :data:`PRECISION_RANGE`."""
    lo, hi = PRECISION_RANGE
    if (
        not isinstance(precision, int)
        or isinstance(precision, bool)
        or not lo <= precision <= hi
    ):
        raise ValueError(
            f"precision must be an integer in PRECISION_RANGE = [{lo}, {hi}], "
            f"got {precision!r}"
        )

