"""Exact rational scalars, harmonic numbers, and high-precision constants.

All distribution and moment arithmetic in this package is carried out over
``fractions.Fraction`` (arbitrary-precision, always reduced, positive
denominator), so every identity asserted elsewhere is exact rather than
floating-point.  High-precision reals are mpmath floats created under an
explicit working precision; the helpers here never touch the global mpmath
context outside a ``workdps`` block.

Two families of quantities live here:

* generalized harmonic numbers ``H_m(n) = sum_{i=1}^n 1/i^m``, both exact
  (Fraction) and asymptotic (Euler-Maclaurin, for very large ``n``), the
  latter also as an enclosure with a rigorous error bound;
* the classical constants gamma, pi and zeta(2..8) that appear in the
  large-``n`` behaviour of the comparison-count moments.

The constants are embedded as 120-digit decimal literals and are
re-verified by independent series evaluations in the test suite, guarding
against transcription slips without shipping a special-function engine.
The module also owns the precision policy: the range every evaluation
accepts, and how those precisions ask for constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import comb, factorial, prod

from mpmath import mp, mpf

from ._intops import big, big_gcd
from .errors import EnclosureError

Rational = Fraction

#: constants() accepts precisions in this inclusive range.  The upper cap
#: exists because the embedded literals carry 120 digits and a 10-digit
#: guard is kept on top of the requested precision.
MIN_PRECISION = 50
MAX_PRECISION = 100

#: Every high-precision evaluation in the package, and the command line,
#: accepts precisions (significant decimal digits) in this inclusive range.
PRECISION_RANGE = (30, MAX_PRECISION)

_GAMMA = "0.577215664901532860606512090082402431042159335939923598805767234884867726777664670936947063291746749514631447249807082481"
_PI = "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628034825342117067982148086513282306647"
_ZETA = {
    2: "1.64493406684822643647241516664602518921894990120679843773555822937000747040320087383362890061975870530400431896233719068",
    3: "1.202056903159594285399738161511449990764986292340498881792271555341838205786313090186455873609335258146199157795260719418",
    4: "1.082323233711138191516003696541167902774750951918726907682976215444120616186968846556909635941699917232990813908042742415",
    5: "1.036927755143369926331365486457034168057080919501912811974192677903803589786281484560043106557133336379620341466556609043",
    6: "1.017343061984449139714517929790920527901817490032853561842408664004332182901957897882773977938535170530279191162254558867",
    7: "1.008349277381922826839797549849796759599863560565238706417283136571601478317355735346096968913851323968961453651491074887",
    8: "1.004077356197944339378685238508652465258960790649850020329110202652582952574748814395287230372371971124523648470282690026",
}

ZETA_MAX = max(_ZETA)

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
    (``harmonic(1, 10**6)`` is a ~430000-digit reduced fraction).
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


@cache
def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2)."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k == 0:
        return Fraction(1)
    if k > 2 and k % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


# -----------------------------------------------------------------------
# Asymptotic harmonic numbers
# -----------------------------------------------------------------------


def _euler_maclaurin_base(m: int, n):
    """The divergent or limiting part of H_m(n): ln n + gamma, or zeta(m) - n^(1-m)/(m-1)."""
    if m == 1:
        return mp.log(n) + mpf(_GAMMA)
    return mpf(_ZETA[m]) - n ** (1 - m) / (m - 1)


def _euler_maclaurin_terms(m: int, n):
    """B_{2k}/(2k)! * m(m+1)...(m+2k-2) / n^(m+2k-1) for k = 1, 2, ...

    H_m(n) is the base term plus 1/(2 n^m) minus these corrections.  The
    series diverges, so callers decide where to stop.
    """
    for k in count(1):
        coeff = bernoulli(2 * k) * prod(range(m, m + 2 * k - 1)) / factorial(2 * k)
        yield mpf(coeff.numerator) / mpf(coeff.denominator) / n ** (m + 2 * k - 1)


def harmonic_asymptotic(m: int, n: int, terms: int = 4, precision: int = 50) -> mpf:
    """Euler-Maclaurin approximation of H_m(n) for large n.

    For m = 1 this is ``ln n + gamma + 1/(2n) - 1/(12 n^2) + ...``; for
    2 <= m <= ZETA_MAX it is ``zeta(m)`` minus the tail estimate, and a
    larger m raises ValueError.  ``terms`` counts the Bernoulli correction
    terms; with ``terms >= 4`` the result agrees with the exact value to
    well over 30 digits for n >= 10**4.  :func:`harmonic_enclosure` picks
    the number of terms itself and bounds the error.
    """
    _check_harmonic_args(m, n)
    check_zeta_order(m)
    if n < 1:
        raise ValueError("asymptotic expansion requires n >= 1")
    if terms < 0:
        raise ValueError("terms must be non-negative")
    check_precision(precision)
    with mp.workdps(precision + 10):
        nn = mpf(n)
        corrections = 1 / (2 * nn**m)
        for term in islice(_euler_maclaurin_terms(m, nn), terms):
            corrections -= term
        return _euler_maclaurin_base(m, nn) + corrections


def harmonic_enclosure(m: int, n: int, digits: int) -> tuple[mpf, mpf]:
    """H_m(n) to within 10^-digits: ``(value, bound)`` with |H_m(n) - value| <= bound.

    ``value`` is the Euler-Maclaurin expansion, base term plus 1/(2 n^m)
    minus the B_{2k} corrections, cut before the first correction below
    half the budget.  For f(x) = x^-m every derivative keeps one sign, so
    the remainder lies between zero and that first omitted term (Graham,
    Knuth & Patashnik, *Concrete Mathematics*, section 9.5).  ``bound`` adds
    to it the error of the embedded constant and of the rounding in the
    evaluation, and never exceeds 10^-digits: when the terms start to grow
    before one falls below the budget (n too small for the digits asked),
    or the constant's literal is too short, :class:`EnclosureError` is
    raised instead.  The value carries ``digits + 10`` significant digits.
    """
    _check_harmonic_args(m, n)
    check_zeta_order(m)
    if n < 1:
        raise ValueError("asymptotic expansion requires n >= 1")
    if not isinstance(digits, int) or digits < 1:
        raise ValueError(f"digits must be a positive integer, got {digits!r}")
    literal = _GAMMA if m == 1 else _ZETA[m]
    with mp.workdps(digits + 10):
        budget = mpf(10) ** -digits
        nn = mpf(n)
        value = _euler_maclaurin_base(m, nn) + 1 / (2 * nn**m)
        previous = None
        for used, term in enumerate(_euler_maclaurin_terms(m, nn)):
            if abs(term) <= budget / 2:
                break
            if previous is not None and abs(term) >= previous:
                raise EnclosureError(
                    f"H_{m}({n}) cannot be enclosed to 10^-{digits}: the "
                    f"Euler-Maclaurin terms grow from term {used + 1} on, "
                    f"at {mp.nstr(previous, 3)}"
                )
            value -= term
            previous = abs(term)
        # The base term and 1/(2 n^m) take 8 rounded operations and each
        # subtracted term at most 5, every one on a quantity no larger than
        # |value| + 1 and off by at most 2^(1-prec) of it (mpmath's log and
        # integer powers stay within an ulp); 4 * (used + 8) covers them.
        rounding = 4 * (used + 8) * mpf(2) ** (1 - mp.prec) * (abs(value) + 1)
        literal_error = mpf(10) ** -len(literal.partition(".")[2])
        bound = abs(term) + literal_error + rounding
        if bound > budget:
            raise EnclosureError(
                f"H_{m}({n}) cannot be enclosed to 10^-{digits}: the embedded "
                f"constant and the rounding leave an error bound of {mp.nstr(bound, 3)}"
            )
        return value, bound


def check_zeta_order(m: int) -> None:
    """Reject H_m whose limit zeta(m) is not embedded (m > ZETA_MAX)."""
    if m > ZETA_MAX:
        raise ValueError(
            f"asymptotic substitution of H_{m} needs zeta({m}); "
            f"only m <= ZETA_MAX = {ZETA_MAX} is embedded"
        )


# -----------------------------------------------------------------------
# Embedded constants
# -----------------------------------------------------------------------


@dataclass(frozen=True)
class Constants:
    """gamma, pi and zeta(2..8) rounded to ``precision`` significant digits."""

    gamma: mpf
    pi: mpf
    zeta: dict[int, mpf] = field(repr=False)
    precision: int = MIN_PRECISION


def constants(precision: int = MIN_PRECISION) -> Constants:
    """The mathematical constants used by the asymptotic evaluations.

    ``precision`` is the number of significant decimal digits and must lie
    in [50, 100]; the embedded reference literals carry 120 digits.
    """
    if not isinstance(precision, int) or precision < MIN_PRECISION:
        raise ValueError(f"precision below {MIN_PRECISION} rejected, got {precision!r}")
    if precision > MAX_PRECISION:
        raise ValueError(
            f"precision above {MAX_PRECISION} exceeds the embedded literal accuracy"
        )
    with mp.workdps(precision + 10):
        return Constants(
            gamma=mpf(_GAMMA),
            pi=mpf(_PI),
            zeta={m: mpf(s) for m, s in _ZETA.items()},
            precision=precision,
        )


# -----------------------------------------------------------------------
# Precision policy
# -----------------------------------------------------------------------


def check_precision(precision: int) -> None:
    """Reject a precision outside :data:`PRECISION_RANGE`."""
    lo, hi = PRECISION_RANGE
    if not lo <= precision <= hi:
        raise ValueError(f"precision must lie in [{lo}, {hi}]")


def guarded_constants(precision: int, guard: int) -> Constants:
    """:func:`constants` at ``precision + guard`` digits, clamped into its range.

    This is how every evaluation at an accepted precision asks for its
    constants: the guard digits absorb rounding in the evaluation, and the
    clamp keeps the request inside what the embedded literals can serve.
    """
    return constants(min(max(precision + guard, MIN_PRECISION), MAX_PRECISION))
