"""Moment extraction: exact route, truncated series route, and their agreement."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import qsa
from qsa.errors import CrossCheckError
from qsa.fitting import known_central_moment, known_mean
from qsa.moments import (
    SeriesCache,
    central_moment,
    factorial_series,
    moment_table,
    moments_from_factorial,
    raw_moment,
    series_cache,
    stirling2,
)
from qsa.pgf import pgf


class TestRawMoments:
    def test_mean_examples(self):
        assert raw_moment(3, 1) == Fraction(8, 3)
        assert raw_moment(4, 1) == Fraction(29, 6)

    def test_zeroth_moment_is_one(self):
        for n in (0, 1, 5, 17):
            assert raw_moment(n, 0) == 1

    def test_second_raw_moment(self):
        # from the n=3 table: 4*(1/3) + 9*(2/3)
        assert raw_moment(3, 2) == Fraction(22, 3)


class TestCentralMoments:
    def test_deterministic_two_elements(self):
        assert central_moment(2, 2) == 0

    def test_variance_at_three(self):
        assert central_moment(3, 2) == Fraction(2, 9)

    def test_third_moment_at_three(self):
        assert central_moment(3, 3) == Fraction(-2, 27)

    def test_first_central_moment_vanishes(self):
        for n in range(1, 61):
            assert central_moment(n, 1) == 0

    def test_even_central_moments_nonnegative(self):
        for n in range(1, 61):
            for r in (2, 4, 6):
                assert central_moment(n, r) >= 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            central_moment(5, 0)


class TestFactorialSeries:
    def test_two_elements_series_is_one_plus_w(self):
        series = factorial_series(2, order=4)[2]
        assert series.coeffs == (1, 1, 0, 0, 0)

    def test_three_elements_hand_expansion(self):
        # g_3(1+w) = (1/3)(1+w)^2 + (2/3)(1+w)^3 = 1 + (8/3)w + (7/3)w^2 + ...
        series = factorial_series(3, order=2)[3]
        assert series.coeffs == (1, Fraction(8, 3), Fraction(7, 3))

    def test_first_coefficient_is_mean(self):
        mean = known_mean()
        series = factorial_series(100)
        for n in (1, 10, 50, 100):
            assert series[n].coeffs[1] == mean.evaluate(n)

    def test_normalization_and_nonnegativity(self):
        for s in factorial_series(60):
            assert s.coeffs[0] == 1
            assert all(c >= 0 for c in s.coeffs)

    def test_series_rows_match_exact_pgf(self):
        # [w^r] g_n(1+w) = sum_k C(k, r) Pr(X_n = k), from the exact PGF
        cache = SeriesCache(order=8)
        for n in range(30):
            row = cache.row(n)
            for r in range(9):
                coeff = sum(comb(k, r) * p for k, p in pgf(n).items())
                assert row[r] == factorial(n) * coeff, (n, r)

    def test_corrupted_row_raises_cross_check_error(self):
        # a new row reads every stored order-0 value, not its running sums
        cache = SeriesCache(order=4)
        cache.ensure(6)
        cache._cols[0][3] += 1
        with pytest.raises(CrossCheckError):
            cache.row(7)

    def test_rows_are_immutable(self):
        with pytest.raises(AttributeError):
            series_cache().row(5).append(0)

    def test_one_shared_table_serves_every_order(self):
        assert series_cache(4) is series_cache()
        assert series_cache(12) is series_cache(1)
        assert series_cache(1).order >= 12

    def test_raising_order_keeps_rows(self):
        cache = SeriesCache(order=2)
        cache.ensure(60)
        for order in (6, 10):
            cache.raise_order(order)
            assert cache.order == order
            cache.ensure(30)
            # rows above the ones asked for keep their order until read
            assert len(cache.row(30)) == order + 1
            assert sum(len(col) > 60 for col in cache._cols) == 3
        direct = SeriesCache(order=10)
        for n in range(61):
            assert cache.row(n) == direct.row(n), n
        # rows added after a raise are built at the raised order
        assert cache.row(70) == direct.row(70)
        # one order at a time, and a raise between ensures at other n
        for steps in (
            [(order, 80) for order in range(1, 9)],
            [(3, 45), (8, 17), (8, 63), (8, 80)],
        ):
            cache = SeriesCache(order=0)
            for order, n in steps:
                cache.raise_order(order)
                cache.ensure(n)
            for n in range(81):
                assert cache.row(n) == direct.row(n)[:9], (steps, n)

    def test_guess_moment_grows_shared_table_to_its_order(self):
        # closed-form commands save by leaving the table at the order they read
        src = str(Path(qsa.__file__).resolve().parents[1])
        code = (
            "from qsa.fitting import guess_moment\n"
            "from qsa.moments import series_cache\n"
            "guess_moment(3)\n"
            "print(series_cache(0).order)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "3"


class TestStirlingTransform:
    def test_stirling_table(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, 0) == 0
        assert stirling2(0, 0) == 1

    def test_first_factorial_is_mean(self):
        series = factorial_series(20)
        for n in (2, 7, 20):
            assert moments_from_factorial(series[n], 1) == raw_moment(n, 1)

    def test_second_moment_from_factorial(self):
        s3 = factorial_series(3)[3]
        assert moments_from_factorial(s3, 2) == Fraction(22, 3)
        mean = moments_from_factorial(s3, 1)
        assert moments_from_factorial(s3, 2) - mean**2 == Fraction(2, 9)

    def test_truncation_order_enforced(self):
        s = factorial_series(5, order=3)[5]
        with pytest.raises(ValueError):
            moments_from_factorial(s, 4)

    def test_series_route_equals_exact_route(self):
        # deeper agreement is enforced in the acceptance suite (n <= 60)
        series = factorial_series(25)
        for n in range(26):
            for r in range(11):
                assert moments_from_factorial(series[n], r) == raw_moment(n, r)


class TestMomentTable:
    def test_central_table_matches_exact(self):
        table = moment_table(30, 2)
        for n in range(1, 31):
            assert table.values[n] == central_moment(n, 2)

    def test_raw_table_matches_exact(self):
        table = moment_table(20, 3, kind="raw")
        for n in range(21):
            assert table.values[n] == raw_moment(n, 3)

    def test_raw_table_matches_factorial_route(self):
        series = factorial_series(80)
        for r in range(11):
            table = moment_table(80, r, kind="raw")
            assert table.values == {
                n: moments_from_factorial(series[n], r) for n in range(81)
            }, r

    def test_closed_forms_match_exact_moments(self):
        # transcribed reference formulas against the exact-PGF route
        for r in range(2, 7):
            expr = known_central_moment(r)
            for n in range(1, 31):
                assert expr.evaluate(n) == central_moment(n, r)

    def test_validation(self):
        # orders above the default truncation grow the table further
        for r in (11, 12):
            assert moment_table(10, r, kind="raw").values == {
                n: raw_moment(n, r) for n in range(11)
            }
            assert moment_table(10, r).values == {
                n: central_moment(n, r) for n in range(11)
            }
        with pytest.raises(ValueError):
            moment_table(10, 2, kind="weird")
        with pytest.raises(ValueError):
            moment_table(10, 0, kind="central")
