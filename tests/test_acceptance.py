"""Acceptance gate: one test per criterion, tolerances pinned inline.

A summary block at the end of the pytest run prints one PASS/FAIL line per
test in this file (see conftest).

The reference scaled limits in ``SCALED_LIMITS`` are pinned to a route that
shares no code with ``qsa``: the moment recursion of Rosler's fixed-point
equation (the ``fixed_point_limits`` fixture in conftest).  That route is
itself checked against the closed forms in pi and zeta for r = 2..5 and
against ``scaled_moment_limit`` to 40 digits for r = 3..8
(``tests/test_asymptotics.py``).  Two published reference values did not
survive it:

* criterion 4 listed decimals that drift from the true limits by an error
  growing with r, up to 9.1e-12 at r = 8 (listed 858.20320399000226017,
  true 858.2032039900113901408...), above the 1e-12 tolerance;
* criterion 10 asked for the scaled skewness at n = 130 to sit below its
  limit 0.85488...; it is 0.944215042452780..., above it, and the skewness
  falls toward the limit from above.
"""

from mpmath import mp, mpf

from qsa.asymptotics import leading_coefficient, mean_asymptotic_check, scaled_moment_limit
from qsa.distribution import scale
from qsa.fitting import fit, known_central_moment, template
from qsa.moments import (
    central_moment,
    factorial_series,
    moment_table,
    moments_from_factorial,
    raw_moment,
)
from qsa.pgf import pgf
from qsa.simulate import (
    SimConfig,
    exhaustive_distribution,
    monte_carlo,
    selection_sort_count,
)

SCALED_LIMITS = {
    3: "0.8548818671325885373994",
    4: "4.178115638269854247589",
    5: "10.64616337467387886247",
    6: "44.42707770816978702231",
    7: "179.7219197356179393464",
    8: "858.2032039900113901408",
}


def test_reference_limits_reproduced_by_fixed_point_route(fixed_point_limits):
    """Every SCALED_LIMITS decimal is the fixed-point limit to within 1e-18."""
    with mp.workdps(90):
        for r, listed in SCALED_LIMITS.items():
            assert abs(mpf(listed) - fixed_point_limits[r]) <= mpf("1e-18"), r


def test_criterion_01_oracle_equivalence():
    """pgf(n) equals the exhaustive pivot-tree distribution exactly, 2<=n<=9."""
    for n in range(2, 10):
        assert dict(pgf(n).items()) == exhaustive_distribution(n), n


def test_criterion_02_mean_closed_form_recovery():
    """Four-term template, train 1..9: coefficients (0, -4, 2, 2), zero
    residual through n = 306."""
    data = moment_table(306, 1, kind="raw").values
    monos = template(1, 1, 1)
    report = fit(data, monos, (1, 9), (10, 306))
    assert report.status == "verified"
    assert not any(report.residuals)
    coeffs = {str(m): report.expr.coefficient(m) for m in monos}
    assert coeffs == {"1": 0, "n": -4, "H1": 2, "n*H1": 2}


def test_criterion_03_central_moment_closed_forms(fits):
    """guess_moment(r), r = 2..6: verified, and canonically equal to the
    transcribed printed formulas; exact-PGF cross-check at n <= 60."""
    for r in range(2, 7):
        report = fits[r]
        assert report.status == "verified", r
        assert report.expr == known_central_moment(r), r
    for r in range(2, 7):
        expr = fits[r].expr
        for n in range(1, 61):
            assert expr.evaluate(n) == central_moment(n, r), (r, n)


def test_criterion_04_scaled_limit_constants(fits):
    """scaled_moment_limit(r), r = 3..8, within 1e-12 absolute of the
    reference list at precision 50.

    The reference list is the fixed-point route's values to 22 significant
    digits (``test_reference_limits_reproduced_by_fixed_point_route``).  It
    replaces published decimals that held fewer correct digits the higher
    the order: 0.85488186713258853660, 4.1781156382698542397,
    10.646163374673878503, 44.427077708169777614, 179.72191973561786840
    and 858.20320399000226017 for r = 3..8, off by 8.0e-19, 7.9e-18,
    3.6e-16, 9.4e-15, 7.1e-14 and 9.1e-12; the last one exceeded the
    tolerance.
    """
    base = fits[2].expr
    report = {}
    with mp.workdps(60):
        for r in range(3, 9):
            av = scaled_moment_limit(r, fits[r].expr, base, precision=50)
            assert av.stability >= 12, r
            report[r] = (av.value, abs(av.value - mpf(SCALED_LIMITS[r])))
        lines = [
            f"r={r}: computed {mp.nstr(val, 22)} vs listed {SCALED_LIMITS[r]} "
            f"(|diff| {mp.nstr(diff, 3)})"
            for r, (val, diff) in report.items()
        ]
        assert all(diff <= mpf("1e-12") for _, diff in report.values()), (
            "scaled-limit deviations from the reference list:\n" + "\n".join(lines)
        )


def test_criterion_05_fourth_moment_leading_coefficient(fits):
    """Leading n^4 coefficient: 0.73794549 within 1e-8, and equal to
    2260/9 - 28 pi^2 + (4/15) pi^4 to at least 20 digits."""
    lead = leading_coefficient(fits[4].expr, precision=50)
    with mp.workdps(70):
        pi = +mp.pi
    with mp.workdps(60):
        assert abs(lead - mpf("0.73794549")) < mpf("1e-8")
        closed = mpf(2260) / 9 - 28 * pi**2 + mpf(4) / 15 * pi**4
        assert abs(lead - closed) < mpf(10) ** -20


def test_criterion_06_mean_growth_constant():
    """2/ln 2 reported as 2.88539008 to eight digits."""
    val = mean_asymptotic_check(precision=50)
    with mp.workdps(55):
        assert abs(val - mpf("2.88539008")) < mpf("5e-9")


def test_criterion_07_series_and_exact_routes_agree():
    """Factorial-series moments equal exact-PGF moments for all n <= 60,
    r <= 10, exactly."""
    series = factorial_series(60, order=10)
    for n in range(61):
        for r in range(11):
            assert moments_from_factorial(series[n], r) == raw_moment(n, r), (n, r)


def test_criterion_08_selection_sort_is_quadratic():
    """Exactly n(n-1)/2 comparisons on 100 random inputs per n in 1..50."""
    import random

    rng = random.Random(20260809)
    for n in range(1, 51):
        expected = n * (n - 1) // 2
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            out, count = selection_sort_count(perm)
            assert count == expected
            assert out == sorted(perm)


def test_criterion_09_monte_carlo_consistency():
    """n = 100, 10^5 seeded trials: mean within 4 standard errors of the
    exact c_100, variance within 10% of the exact m_2(100)."""
    stats = monte_carlo(SimConfig(n=100, trials=100_000, seed=20260809))
    mean_exact = float(raw_moment(100, 1))
    var_exact = float(central_moment(100, 2))
    stderr = (var_exact / stats.trials) ** 0.5
    assert abs(stats.mean - mean_exact) <= 4 * stderr
    assert abs(stats.variance - var_exact) <= 0.10 * var_exact


def test_criterion_10_scaled_distribution_properties():
    """scale(130): exact unit mass; monotone CDF; skewness positive and
    above the limiting 0.85488..., which it approaches from above.

    The skewness is taken from the atoms and masses of Z_130 itself and must
    equal the exact-moment value m_3/m_2^(3/2) = 0.944215042452780... .
    The published criterion asked for it to sit *below* the limit; exact
    values say otherwise (1.0708 at n = 20, 0.9595 at 100, 0.8767 at 1000,
    0.8584 at 10^4), so the clause checks the side the limit is approached
    from instead: the closed-form skewness at n = 10^4 lies strictly
    between the limit and the n = 130 value.
    """
    dist = scale(130)
    assert sum(dist.masses) == 1
    assert list(dist.cumulative) == sorted(dist.cumulative)
    assert dist.cumulative[-1] == 1

    def skewness(m3, m2):
        return mpf(m3.numerator) / mpf(m3.denominator) / (
            mpf(m2.numerator) / mpf(m2.denominator)
        ) ** mpf("1.5")

    with mp.workdps(60):
        skew = mp.fsum(
            mpf(p.numerator) / mpf(p.denominator) * z**3 for z, p in dist.points()
        )
        limit = mpf(SCALED_LIMITS[3])
        assert skew > 0
        assert skew > limit, (
            f"scaled skewness at n=130 is {mp.nstr(skew, 12)}, not above the "
            f"limit {mp.nstr(limit, 12)}"
        )
        exact = skewness(central_moment(130, 3), central_moment(130, 2))
        assert abs(skew - exact) < mpf(10) ** -40
        far = 10**4
        skew_far = skewness(
            known_central_moment(3).evaluate(far), known_central_moment(2).evaluate(far)
        )
        assert limit < skew_far < skew
