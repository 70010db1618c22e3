"""Limiting scaled moments, leading coefficients, and growth diagnostics.

Unit-level checks run on the transcribed reference formulas (the fitting
tests prove these equal the fitted output); the acceptance suite repeats
the limit computations on freshly fitted expressions.  Every scaled limit is
also checked against the fixed-point moment recursion built in conftest,
which reaches the limits without any moment data.
"""

from math import factorial, prod

import pytest
from mpmath import mp, mpf

from qsa.asymptotics import (
    coefficient_of_variation,
    evaluate_asymptotic,
    leading_coefficient,
    mean_asymptotic_check,
    mean_over_nlogn,
    scaled_moment_limit,
)
from qsa.errors import StabilityError
from qsa.fitting import HarmonicExpr, known_central_moment, known_mean
from qsa.distribution import tail_probability
from qsa.moments import central_moment, raw_moment
from qsa.numeric import (
    PRECISION_RANGE,
    bernoulli,
    harmonic,
)


def closed_form_limit(r: int, digits: int = 70) -> mpf:
    """Scaled limit of order r = 3, 4 or 5 in pi and zeta, at ``digits`` digits.

    The numerators are the limits of m_r(n)/n^r; the denominator is the
    variance's, 7 - 2 pi^2/3, to the power r/2.  pi and zeta carry ten
    digits more.
    """
    with mp.workdps(digits + 10):
        pi, zeta3, zeta5 = +mp.pi, mp.zeta(3), mp.zeta(5)
    with mp.workdps(digits):
        numerators = {
            3: 16 * zeta3 - 19,
            4: mpf(2260) / 9 - 28 * pi**2 + mpf(4) / 15 * pi**4,
            5: -mpf(229621) / 108
            + mpf(380) / 3 * pi**2
            + (1120 - mpf(320) / 3 * pi**2) * zeta3
            + 768 * zeta5,
        }
        return numerators[r] / (7 - 2 * pi**2 / 3) ** (mpf(r) / 2)


def agreeing_digits(a: mpf, b: mpf) -> mpf:
    """-log10 of the relative difference |a - b|/|b| (call at high precision)."""
    return -mp.log10(abs(a - b) / abs(b)) if a != b else mp.inf


class TestScaledMomentLimit:
    def test_skewness_limit_closed_form(self):
        # (16 zeta(3) - 19) / (7 - 2 pi^2 / 3)^(3/2)
        av = scaled_moment_limit(3, known_central_moment(3), known_central_moment(2))
        with mp.workdps(70):
            assert abs(av.value - closed_form_limit(3)) < mpf(10) ** -45
        assert av.stability >= 12

    def test_kurtosis_limit_closed_form(self):
        av = scaled_moment_limit(4, known_central_moment(4), known_central_moment(2))
        with mp.workdps(70):
            assert abs(av.value - closed_form_limit(4)) < mpf(10) ** -45

    def test_fifth_limit_closed_form(self):
        av = scaled_moment_limit(5, known_central_moment(5), known_central_moment(2))
        with mp.workdps(70):
            assert abs(av.value - closed_form_limit(5)) < mpf(10) ** -45

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_agrees_with_fixed_point_route(self, r, fixed_point_limits):
        av = scaled_moment_limit(r, known_central_moment(r), known_central_moment(2))
        with mp.workdps(90):
            assert agreeing_digits(av.value, fixed_point_limits[r]) >= 40

    def test_fitted_orders_seven_and_eight_agree_with_fixed_point_route(
        self, fits, fixed_point_limits
    ):
        # no closed form is tabulated beyond r = 6; the session fits stand in
        for r in (7, 8):
            av = scaled_moment_limit(r, fits[r].expr, fits[2].expr)
            with mp.workdps(90):
                assert agreeing_digits(av.value, fixed_point_limits[r]) >= 40, r

    def test_degenerate_second_order_is_one(self):
        av = scaled_moment_limit(2, known_central_moment(2), known_central_moment(2))
        with mp.workdps(55):
            assert abs(av.value - 1) < mpf(10) ** -49

    def test_unstable_leading_part_raises(self):
        # a fake "moment" whose top terms keep an H_1 factor drifts like ln n
        N, H1 = HarmonicExpr.variable(), HarmonicExpr.harmonic(1)
        fake = N**3 * H1
        with pytest.raises(StabilityError):
            scaled_moment_limit(3, fake, known_central_moment(2))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            scaled_moment_limit(1, known_mean(), known_central_moment(2))


class TestFixedPointOracle:
    """Self-checks of the fixed-point moment recursion (see conftest).

    The recursion is checked against closed forms evaluated with mpmath's
    own pi and zeta, so these tests use nothing from ``qsa`` but the
    reference closed forms for r = 4 and 5.
    """

    def test_second_and_third_moments(self, limit_moments):
        with mp.workdps(90):
            assert agreeing_digits(limit_moments[2], 7 - 2 * mp.pi**2 / 3) >= 60
            assert agreeing_digits(limit_moments[3], 16 * mp.zeta(3) - 19) >= 60

    @pytest.mark.parametrize("r", [4, 5])
    def test_scaled_limit_closed_forms(self, r, fixed_point_limits):
        with mp.workdps(90):
            assert agreeing_digits(fixed_point_limits[r], closed_form_limit(r)) >= 45


class TestPrecisionRangeEnds:
    """The limits hold the precision asked for, and five digits more, at
    both ends of PRECISION_RANGE, against the closed forms at 30 digits more."""

    @pytest.mark.parametrize("precision", PRECISION_RANGE)
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_scaled_moment_limit(self, r, precision):
        val = scaled_moment_limit(
            r, known_central_moment(r), known_central_moment(2), precision
        )
        with mp.workdps(precision + 30):
            truth = closed_form_limit(r, precision + 30)
            assert agreeing_digits(val.value, truth) >= precision + 5


class TestLeadingCoefficient:
    def test_variance_leading_coefficient(self):
        lead = leading_coefficient(known_central_moment(2))
        with mp.workdps(80):
            pi = +mp.pi
        with mp.workdps(70):
            assert abs(lead - (7 - 2 * pi**2 / 3)) < mpf(10) ** -25

    def test_third_moment_leading_coefficient(self):
        lead = leading_coefficient(known_central_moment(3))
        with mp.workdps(80):
            zeta3 = mp.zeta(3)
        with mp.workdps(70):
            assert abs(lead - (16 * zeta3 - 19)) < mpf(10) ** -25

    def test_zero_expression_rejected(self):
        with pytest.raises(ValueError):
            leading_coefficient(HarmonicExpr.zero())


class TestLowestPrecision:
    """The lowest accepted precision works like any other: gamma and zeta(m)
    are taken at its own working precision, and the results keep the digits
    it asks for."""

    lowest = PRECISION_RANGE[0]

    def test_scaled_moment_limit(self):
        val = scaled_moment_limit(
            3, known_central_moment(3), known_central_moment(2), self.lowest
        )
        with mp.workdps(60):
            assert abs(val.value - closed_form_limit(3)) < mpf(10) ** -28

    def test_leading_coefficient(self):
        lead = leading_coefficient(known_central_moment(2), self.lowest)
        with mp.workdps(80):
            pi = +mp.pi
        with mp.workdps(70):
            assert abs(lead - (7 - 2 * pi**2 / 3)) < mpf(10) ** -25

    def test_mean_asymptotic_check(self):
        val = mean_asymptotic_check(self.lowest)
        with mp.workdps(55):
            assert abs(val - mpf("2.88539008")) < mpf("5e-9")


def tail_sum_zeta(m: int) -> mpf:
    """zeta(m) from exact H_m(200) plus its Euler-Maclaurin tail, at 95 digits.

    The same route as ``test_numeric``'s check of mpmath's zeta(m).
    """
    n = 200
    exact = harmonic(m, n)
    with mp.workdps(95):
        val = mpf(exact.numerator) / mpf(exact.denominator)
        val += mpf(n) ** (1 - m) / (m - 1)
        val -= mpf(1) / (2 * mpf(n) ** m)
        for k in range(1, 21):
            coeff = (
                bernoulli(2 * k) * prod(range(m, m + 2 * k - 1)) / factorial(2 * k)
            )
            val += (
                mpf(coeff.numerator)
                / mpf(coeff.denominator)
                / mpf(n) ** (m + 2 * k - 1)
            )
        return val


class TestBeyondZetaEight:
    """H_m with m > 8, past the zeta(2..8) the package once tabulated,
    substitutes like any other H_m; the truth is the tail-sum zeta(9)."""

    N, H9 = HarmonicExpr.variable(), HarmonicExpr.harmonic(9)

    def test_scaled_moment_limit(self):
        av = scaled_moment_limit(9, self.N**9 * self.H9, known_central_moment(2))
        with mp.workdps(90):
            truth = tail_sum_zeta(9) / (7 - 4 * tail_sum_zeta(2)) ** (mpf(9) / 2)
            assert agreeing_digits(av.value, truth) >= 45

    def test_leading_coefficient(self):
        lead = leading_coefficient(self.N**5 * self.H9)
        with mp.workdps(90):
            assert agreeing_digits(lead, tail_sum_zeta(9)) >= 45


class TestZetaTableBound:
    """evaluate_asymptotic of H_m past m = 8, where the table of embedded
    zeta(m) constants used to stop; the truth is the exact value at n = 10^4,
    above the n = 4000 from which H_9 is enclosed."""

    def test_evaluate_asymptotic(self):
        n = 10**4
        expr = HarmonicExpr.variable() ** 5 * HarmonicExpr.harmonic(9)
        exact = expr.evaluate(n)
        with mp.workdps(60):
            approx = evaluate_asymptotic(expr, n, precision=50)
            truth = mpf(exact.numerator) / mpf(exact.denominator)
            assert abs(approx - truth) / truth < mpf(10) ** -40


class TestFiniteSizeDiagnostics:
    def test_asymptotic_evaluation_matches_exact(self):
        expr = known_central_moment(2)
        n = 5000
        exact = expr.evaluate(n)
        with mp.workdps(60):
            approx = evaluate_asymptotic(expr, n, precision=50)
            truth = mpf(exact.numerator) / mpf(exact.denominator)
            assert abs(approx - truth) / truth < mpf(10) ** -40

    @pytest.mark.parametrize(
        "expr",
        [known_mean(), known_central_moment(2), known_central_moment(6)],
        ids=["mean", "m2", "m6"],
    )
    def test_evaluate_asymptotic_within_its_precision(self, expr):
        # exact up to n = 4000, enclosed above; both within 10^-precision
        for n in (3, 100, 4000, 4001, 10**4):
            exact = expr.evaluate(n)
            for precision in (30, 50, 100):
                value = evaluate_asymptotic(expr, n, precision)
                with mp.workdps(precision + 40):
                    truth = mpf(exact.numerator) / mpf(exact.denominator)
                    assert abs(value - truth) <= abs(truth) * mpf(10) ** -precision, (
                        n, precision
                    )

    @pytest.mark.parametrize("diagnostic", [mean_over_nlogn, coefficient_of_variation])
    @pytest.mark.parametrize("n", [1, 0, True])
    def test_growth_diagnostics_reject_n_below_two(self, diagnostic, n):
        # c_1 = 0 and ln 1 = 0: there is no ratio to take
        with pytest.raises(ValueError, match="n >= 2"):
            diagnostic(n)

    def test_growth_diagnostics_at_two(self):
        # c_2 = 1 and m_2(2) = 0 exactly
        cv = coefficient_of_variation(2)
        assert isinstance(cv, mpf) and cv == 0
        with mp.workdps(60):
            assert abs(mean_over_nlogn(2) - 1 / (2 * mp.log(2))) < mpf(10) ** -50

    def test_coefficient_of_variation_matches_exact_moments(self):
        for n in range(3, 11):
            mean, var = raw_moment(n, 1), central_moment(n, 2)
            with mp.workdps(70):
                truth = mp.sqrt(mpf(var.numerator) / var.denominator) / (
                    mpf(mean.numerator) / mean.denominator
                )
                assert abs(coefficient_of_variation(n) - truth) <= truth * mpf(10) ** -50

    def test_mean_growth_constant(self):
        val = mean_asymptotic_check(50)
        with mp.workdps(55):
            assert abs(val - mpf("2.88539008")) < mpf("5e-9")

    def test_mean_ratio_approaches_two(self):
        # raw c_n/(n ln n) converges like 1/ln n; after removing the known
        # linear correction it is within 1e-5 of 2 at n = 10^8
        with mp.workdps(70):
            gamma = +mp.euler
        n = 10**8
        with mp.workdps(60):
            cn = evaluate_asymptotic(known_mean(), n)
            corrected = (cn - (2 * gamma - 4) * n) / (mpf(n) * mp.log(n))
            assert abs(corrected - 2) < mpf("1e-5")
            raw = mean_over_nlogn(n)
            assert abs(raw - 2) > mpf("0.01")  # the O(1/ln n) term is visible

    def test_coefficient_of_variation_shrinks_like_inverse_log(self):
        with mp.workdps(55):
            cvs = {k: coefficient_of_variation(10**k) for k in (4, 6, 8)}
            assert cvs[4] > cvs[6] > cvs[8]
            products = [cvs[k] * mp.log(10**k) for k in (4, 6, 8)]
            assert all(mpf("0.2") < p < mpf("0.6") for p in products)

    def test_exact_substitution_consistent_with_log_decay(self):
        # sanity: scaled third moment at n = 10^4 from exact harmonic values
        # is off the limit by an O(1/ln n)-sized amount, not more, not less
        n = 10**4
        ratio_limit = scaled_moment_limit(
            3, known_central_moment(3), known_central_moment(2)
        ).value
        with mp.workdps(60):
            m3v = known_central_moment(3).evaluate(n)
            m2v = known_central_moment(2).evaluate(n)
            finite = (mpf(m3v.numerator) / mpf(m3v.denominator)) / (
                mpf(m2v.numerator) / mpf(m2v.denominator)
            ) ** mpf("1.5")
            gap = abs(finite - ratio_limit)
            assert mpf("1e-4") < gap < mpf("0.1")
            assert mpf("0.005") < gap * mp.log(n) < mpf("1")


@pytest.mark.parametrize("precision", [50.5, 60.0])
@pytest.mark.parametrize(
    "evaluation",
    [
        lambda p: scaled_moment_limit(
            3, known_central_moment(3), known_central_moment(2), p
        ),
        lambda p: leading_coefficient(known_central_moment(2), p),
        lambda p: tail_probability(10**4, 160000, surrogate_n=30, precision=p),
        lambda p: evaluate_asymptotic(known_mean(), 10**4, p),
    ],
    ids=[
        "scaled_moment_limit",
        "leading_coefficient",
        "tail_probability",
        "evaluate_asymptotic",
    ],
)
def test_non_integer_precision_rejected(evaluation, precision):
    with pytest.raises(ValueError, match="PRECISION_RANGE"):
        evaluation(precision)
