"""Exact harmonic numbers, Euler-Maclaurin asymptotics, and constants.

The constants, which the package takes from mpmath (``mp.euler``, ``mp.pi``,
``mp.zeta``) at its working precision, are re-derived here through
independent routes: gamma from exact harmonic numbers minus the log
and tail corrections, zeta(m) from tail-accelerated exact partial sums, pi
from Machin's formula.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from qsa.errors import EnclosureError
from qsa.fitting import _GUARD, HarmonicExpr, evaluate_asymptotic, known_mean
from qsa.numeric import (
    _PREFIX_LIMIT,
    bernoulli,
    harmonic,
    harmonic_enclosure,
)


def brute_harmonic(m, n):
    return sum(Fraction(1, i**m) for i in range(1, n + 1))


TRUTH_DIGITS = 150


def fixed_point_harmonic(m, n, digits=TRUTH_DIGITS):
    """H_m(n) as the mpf of sum floor(10^d / i^m) / 10^d with d = ``digits``.

    Each floor loses less than 10^-d, so the sum lies in
    (H_m(n) - n * 10^-d, H_m(n)].  At n = 10^6 this takes about a second,
    where the exact reduced fraction takes minutes.
    """
    unit = 10**digits
    return mpf(sum(unit // i**m for i in range(1, n + 1))) / unit


class TestHarmonicExact:
    def test_empty_sum(self):
        assert harmonic(1, 0) == 0

    @pytest.mark.parametrize(
        "m,n,expected",
        [(1, 3, Fraction(11, 6)), (2, 3, Fraction(49, 36)), (1, 6, Fraction(49, 20))],
    )
    def test_known_values(self, m, n, expected):
        assert harmonic(m, n) == expected

    def test_matches_direct_summation(self):
        for m in range(1, 5):
            for n in (1, 2, 7, 19, 64, 257):
                assert harmonic(m, n) == brute_harmonic(m, n)

    def test_large_argument_binary_splitting(self):
        # crosses the prefix-cache threshold; against an independent slice sum
        n = 5000
        assert harmonic(2, n) == brute_harmonic(2, n)

    def test_defining_recurrence(self):
        # H_m(n) - H_m(n-1} = 1/n^m across a deep grid
        for m in range(1, 9):
            for n in range(1, 1001, 7):
                assert harmonic(m, n) - harmonic(m, n - 1) == Fraction(1, n**m)

    @pytest.mark.parametrize("m,n", [(0, 3), (-1, 3), (1, -1)])
    def test_rejects_bad_arguments(self, m, n):
        with pytest.raises(ValueError):
            harmonic(m, n)


class TestRationalFieldAxioms:
    fractions = st.fractions(
        min_value=-1000, max_value=1000, max_denominator=10**6
    )

    @given(fractions, fractions, fractions)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(fractions, fractions)
    def test_exact_cancellation(self, a, b):
        assert (a + b) - b == a

    @given(fractions)
    def test_reduced_storage(self, a):
        from math import gcd

        assert a.denominator > 0
        assert gcd(abs(a.numerator), a.denominator) in (0, 1) or a.numerator == 0


class TestBernoulli:
    def test_known_values(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
            3: Fraction(0),
            7: Fraction(0),
        }
        for k, v in expected.items():
            assert bernoulli(k) == v


class TestHarmonicAsymptotic:
    @pytest.mark.parametrize("m", [1, 2])
    def test_fixed_point_truth_brackets_exact_value(self, m):
        n = 10**4
        exact = harmonic(m, n)
        with mp.workdps(TRUTH_DIGITS + 20):
            gap = mpf(exact.numerator) / exact.denominator - fixed_point_harmonic(m, n)
            assert 0 <= gap <= n * mpf(10) ** -TRUTH_DIGITS

    def test_thirty_digit_agreement_at_1e6(self):
        value, bound = harmonic_enclosure(1, 10**6, 40)
        with mp.workdps(70):
            truth = fixed_point_harmonic(1, 10**6)
            assert abs(value - truth) <= bound < mpf(10) ** -30

    def test_thirty_digit_agreement_at_1e4_all_m(self):
        for m in (1, 2, 3, 5):
            exact = harmonic(m, 10**4)
            value, bound = harmonic_enclosure(m, 10**4, 30)
            with mp.workdps(70):
                truth = mpf(exact.numerator) / mpf(exact.denominator)
                assert abs(value - truth) <= bound <= mpf(10) ** -30

    def test_small_argument_rough_value(self):
        # at n = 1 the smallest term is 1/120, so one digit is all there is
        value, bound = harmonic_enclosure(1, 1, 1)
        assert abs(value - 1) <= bound < mpf("1e-1")
        with pytest.raises(EnclosureError, match="grow"):
            harmonic_enclosure(1, 1, 3)

    def test_m2_approaches_zeta2(self):
        with mp.workdps(70):
            z2 = mp.zeta(2)
        with mp.workdps(60):
            for n, tol in ((10**4, "1e-3"), (10**6, "1e-5")):
                assert abs(harmonic_enclosure(2, n, 60)[0] - z2) < mpf(tol)

    def test_exponent_beyond_zeta_table_rejected(self):
        # m = 9 was rejected while zeta(m) came from a table of m = 2..8;
        # zeta(9) now comes from mpmath, so H_9 is expanded like any H_m
        exact = harmonic(9, 10**4)
        value, bound = harmonic_enclosure(9, 10**4, 30)
        with mp.workdps(70):
            truth = mpf(exact.numerator) / mpf(exact.denominator)
            assert abs(value - truth) <= bound <= mpf(10) ** -30

    def test_precision_range_enforced(self):
        with pytest.raises(ValueError, match="PRECISION_RANGE"):
            evaluate_asymptotic(HarmonicExpr.harmonic(1), 10**4, precision=10)
        with pytest.raises(ValueError, match="n >= 1"):
            harmonic_enclosure(1, 0, 40)


class TestHarmonicEnclosure:
    @pytest.mark.parametrize(
        "n,m",
        [(n, m) for n in (_PREFIX_LIMIT + 1, 10**4, 30012) for m in (1, 2)]
        + [(10**4, 3), (10**4, 5), (_PREFIX_LIMIT + 1, 9), (10**4, 9)],
    )
    def test_interval_contains_exact_value(self, n, m):
        # the digits tail_probability asks for at each precision
        exact = harmonic(m, n)
        for precision in (30, 50, 100):
            value, bound = harmonic_enclosure(m, n, precision + 10 + _GUARD)
            with mp.workdps(TRUTH_DIGITS + 20):
                assert bound < mpf(10) ** -(precision + 10)
                assert abs(mpf(exact.numerator) / exact.denominator - value) <= bound

    def test_argument_too_small_for_the_digits_raises(self):
        # the smallest term, near k = pi n, is about 10^-27 at n = 10
        with pytest.raises(EnclosureError, match="grow"):
            harmonic_enclosure(1, 10, 40)
        value, bound = harmonic_enclosure(1, 10, 20)
        exact = harmonic(1, 10)
        with mp.workdps(40):
            assert abs(value - mpf(exact.numerator) / exact.denominator) <= bound

    def test_digits_beyond_120_enclose_the_exact_value(self):
        value, bound = harmonic_enclosure(2, 10**4, 130)
        exact = harmonic(2, 10**4)
        with mp.workdps(TRUTH_DIGITS + 20):
            assert bound < mpf(10) ** -130
            assert abs(mpf(exact.numerator) / exact.denominator - value) <= bound


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: harmonic_enclosure(1, 10**4, True), "digits", id="digits-bool"),
        pytest.param(lambda: harmonic_enclosure(1, 10**4, 40.0), "digits", id="digits-float"),
        pytest.param(lambda: known_mean().evaluate(True), "integer n", id="evaluate-bool"),
    ],
)
def test_bools_and_non_integers_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestConstants:
    def test_gamma_leading_digits(self):
        with mp.workdps(60):
            gamma = +mp.euler
        with mp.workdps(55):
            assert abs(gamma - mpf("0.5772156649")) < mpf("1e-10")

    def test_zeta2_is_pi_squared_over_six(self):
        with mp.workdps(70):
            zeta2, pi = mp.zeta(2), +mp.pi
        with mp.workdps(60):
            assert abs(zeta2 - pi**2 / 6) < mpf(10) ** -58

    def test_zeta3_leading_digits(self):
        with mp.workdps(60):
            zeta3 = mp.zeta(3)
        with mp.workdps(55):
            assert abs(zeta3 - mpf("1.2020569")) < mpf("1e-7")

    def test_zeta_strictly_decreasing_toward_one(self):
        with mp.workdps(60):
            vals = [mp.zeta(m) for m in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1 for v in vals)

    def test_gamma_against_independent_series(self):
        # gamma = H_1(n) - ln n - 1/(2n) + sum B_2k/(2k n^2k), exact H
        n = 400
        exact = harmonic(1, n)
        with mp.workdps(90):
            val = mpf(exact.numerator) / mpf(exact.denominator) - mp.log(n)
            val -= mpf(1) / (2 * n)
            for k in range(1, 17):
                b = bernoulli(2 * k)
                val += mpf(b.numerator) / mpf(b.denominator) / (2 * k * mpf(n) ** (2 * k))
            assert abs(val - mp.euler) < mpf(10) ** -70

    def test_zeta_against_independent_tail_sums(self):
        # zeta(m) = H_m(n) + n^(1-m)/(m-1) - corrections, exact H
        from math import factorial, prod

        n = 200
        with mp.workdps(90):
            zeta = {m: mp.zeta(m) for m in range(2, 9)}
        for m in range(2, 9):
            exact = harmonic(m, n)
            with mp.workdps(95):
                val = mpf(exact.numerator) / mpf(exact.denominator)
                val += mpf(n) ** (1 - m) / (m - 1)
                val -= mpf(1) / (2 * mpf(n) ** m)
                for k in range(1, 21):
                    coeff = (
                        bernoulli(2 * k)
                        * prod(range(m, m + 2 * k - 1))
                        / factorial(2 * k)
                    )
                    val += (
                        mpf(coeff.numerator)
                        / mpf(coeff.denominator)
                        / mpf(n) ** (m + 2 * k - 1)
                    )
                assert abs(val - zeta[m]) < mpf(10) ** -70, m

    def test_pi_against_machin_formula(self):
        # pi = 16 arctan(1/5) - 4 arctan(1/239), arctan(1/x) by its series
        def arctan_inverse(x):
            total, power, k = mpf(0), mpf(1) / x, 0
            while power > mpf(10) ** -120:
                total += (-1) ** k * power / (2 * k + 1)
                power /= x * x
                k += 1
            return total

        with mp.workdps(110):
            pi = +mp.pi
        with mp.workdps(120):
            machin = 16 * arctan_inverse(5) - 4 * arctan_inverse(239)
            assert abs(pi - machin) < mpf(10) ** -99

    def test_doubled_precision_recomputation(self):
        # HighReal error-bound invariant: values at dps 50 vs dps 100 agree
        # to within the coarser precision
        lo = evaluate_asymptotic(HarmonicExpr.harmonic(1), 10**5, precision=50)
        hi = evaluate_asymptotic(HarmonicExpr.harmonic(1), 10**5, precision=100)
        with mp.workdps(110):
            assert abs(lo - hi) / abs(hi) < mpf(10) ** -49
