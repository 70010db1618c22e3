"""Limiting behaviour of the moment closed forms.

The scaled moments m_r(n)/m_2(n)^(r/2) converge to finite constants; this
module evaluates them numerically from exact closed forms: those derived
from the generating function (:mod:`qsa.derive`, which ``qsa limits``
uses) or verified fits (:func:`qsa.fitting.guess_moment`), which are term
for term the same.  Two substitution modes are used:

* limit substitution, H_1(n) -> ln n + gamma and H_m(n) -> zeta(m), with
  gamma and zeta(m) from mpmath at the evaluation's working precision,
  applied to the *top n-degree* terms only.  For a genuine limit the top
  terms carry no H_1 factor, so the value is n-independent; the three-
  decade stability gate (n = 10^6, 10^7, 10^8, >= 12 agreeing digits)
  exists precisely to catch expressions whose leading part still drifts
  like ln n or was contaminated by slowly-decaying terms;
* the value at a finite n (``evaluate_asymptotic``, defined in
  :mod:`qsa.fitting` and re-exported here), for diagnostics such as the
  coefficient-of-variation decay, where the O(ln n / n) remainder is the
  point, not a nuisance.  That function owns the exact-or-enclosure rule:
  exact harmonic numbers up to n = 4000, Euler-Maclaurin enclosures with a
  rigorous bound above.

Leading coefficients are extracted from the full expression evaluated at
astronomically large n (10^30..10^40), where the subleading ln n terms sit
20+ digits below the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import StabilityError
from .fitting import HarmonicExpr, evaluate_asymptotic, known_mean, known_central_moment
from .numeric import check_precision

#: Evaluation points of scaled_moment_limit, and the digits its values there
#: must share.
LIMIT_POINTS = (10**6, 10**7, 10**8)
LIMIT_STABILITY = 12
#: The same for leading_coefficient.
LEAD_POINTS = (10**30, 10**35, 10**40)
LEAD_STABILITY = 20


@dataclass(frozen=True)
class AsymptoticValue:
    """A numerically-evaluated limit plus its stability evidence."""

    value: mpf
    n_used: tuple[int, ...]
    stability: int  # digits agreeing across the evaluation points


def _limit_value(expr: HarmonicExpr, n: int) -> mpf:
    """``expr`` at n with H_1 -> ln n + gamma and H_m -> zeta(m) for m >= 2.

    gamma, ln n and zeta(m) are mpmath's at the caller's working precision.
    """
    h = {m: mp.zeta(m) for mono in expr.terms for m, _ in mono.h_powers if m > 1}
    h[1] = mp.log(mpf(n)) + mp.euler
    return expr.evaluate_real(n, h)


def _agreement_digits(values, cap: int) -> int:
    scale = max(abs(v) for v in values)
    spread = max(values) - min(values)
    if spread == 0:
        return cap
    if scale == 0:
        return 0
    digits = int(mp.floor(mp.log10(scale / spread)))
    return max(0, min(cap, digits))


def scaled_moment_limit(
    r: int,
    expr_r: HarmonicExpr,
    expr_2: HarmonicExpr,
    precision: int = 50,
) -> AsymptoticValue:
    """Limit of m_r(n)/m_2(n)^(r/2) from exact closed forms.

    Evaluates the leading parts at each of :data:`LIMIT_POINTS` with limit
    substitution and requires :data:`LIMIT_STABILITY` agreeing digits; an
    expression whose top terms retain ln n growth (or with mismatched
    degrees, e.g. an unverified fit) fails the gate with
    :class:`StabilityError` instead of silently returning a drifting number.
    Odd-order limits keep their sign.
    """
    if r < 2:
        raise ValueError("scaled moments are defined for r >= 2")
    check_precision(precision)
    with mp.workdps(precision + 15):
        tops_r = HarmonicExpr(expr_r.top_terms())
        tops_2 = HarmonicExpr(expr_2.top_terms())
        values = []
        for n in LIMIT_POINTS:
            num = _limit_value(tops_r, n)
            den = _limit_value(tops_2, n)
            if den <= 0:
                raise StabilityError(
                    f"variance leading part is non-positive at n={n}"
                )
            values.append(num / den ** (mpf(r) / 2))
        stability = _agreement_digits(values, precision)
        if stability < LIMIT_STABILITY:
            raise StabilityError(
                f"scaled moment limit r={r} unstable: {stability} agreeing "
                f"digits across n={LIMIT_POINTS}, need {LIMIT_STABILITY}"
            )
        return AsymptoticValue(
            value=+values[-1], n_used=LIMIT_POINTS, stability=stability
        )


def leading_coefficient(expr: HarmonicExpr, precision: int = 50) -> mpf:
    """Numeric limit of expr(n)/n^deg under limit substitution.

    ``deg`` is the top n-degree of the expression.  The evaluation points
    :data:`LEAD_POINTS` are large enough that subleading ln n terms lie
    beyond :data:`LEAD_STABILITY` digits; instability is raised, not
    returned.
    """
    check_precision(precision)
    if expr.is_zero():
        raise ValueError("leading coefficient of the zero expression")
    with mp.workdps(precision + 15):
        deg = expr.max_n_power()
        values = [_limit_value(expr, n) / mpf(n) ** deg for n in LEAD_POINTS]
        stability = _agreement_digits(values, precision)
        if stability < LEAD_STABILITY:
            raise StabilityError(
                f"leading coefficient unstable: {stability} agreeing digits "
                f"across n={LEAD_POINTS}, need {LEAD_STABILITY}"
            )
        return +values[-1]


def mean_over_nlogn(n: int, precision: int = 50) -> mpf:
    """Diagnostic ratio c_n/(n ln n); approaches 2 like O(1/ln n)."""
    if n < 2:
        raise ValueError(f"c_n/(n ln n) needs n >= 2 (ln 1 = 0), got {n!r}")
    check_precision(precision)
    with mp.workdps(precision + 10):
        cn = evaluate_asymptotic(known_mean(), n, precision)
        return +(cn / (mpf(n) * mp.log(n)))


def coefficient_of_variation(n: int, precision: int = 50) -> mpf:
    """sqrt(m_2(n))/c_n; small and shrinking like O(1/ln n), and 0 at n = 2."""
    if n < 2:
        raise ValueError(f"sqrt(m_2(n))/c_n needs n >= 2 (c_1 = 0), got {n!r}")
    check_precision(precision)
    with mp.workdps(precision + 10):
        cn = evaluate_asymptotic(known_mean(), n, precision)
        var = evaluate_asymptotic(known_central_moment(2), n, precision)
        return +(mp.sqrt(var) / cn)


def mean_asymptotic_check(precision: int = 50) -> mpf:
    """The mean-growth constant 2/ln 2 (~2.88539008).

    Quicksort's average 2 n ln n comparisons are this factor above the
    best-case n log2 n.  Before returning, the classical mean formula is
    checked to approach 2 n ln n numerically: at n = 10^8 the ratio
    (c_n - (2 gamma - 4) n)/(n ln n) must be within 1e-5 of 2.
    """
    check_precision(precision)
    with mp.workdps(precision + 10):
        n = 10**8
        cn = evaluate_asymptotic(known_mean(), n, precision)
        ratio = (cn - (2 * mp.euler - 4) * n) / (mpf(n) * mp.log(n))
        if abs(ratio - 2) > mpf("1e-5"):
            raise StabilityError(
                f"mean growth sanity check failed: ratio {ratio} not near 2"
            )
        return +(2 / mp.log(2))
