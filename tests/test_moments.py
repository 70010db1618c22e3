"""Moment extraction: exact route, truncated series route, and their agreement."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial
from operator import mul
from pathlib import Path

import pytest

import qsa
import qsa.moments
import qsa.numeric
from qsa.distribution import scale, tail_probability
from qsa.errors import CrossCheckError
from qsa.fitting import guess_moment, known_central_moment, known_mean
from qsa.moments import (
    SeriesCache,
    _convolve,
    central_moment,
    factorial_series,
    moment_table,
    moments_from_factorial,
    raw_moment,
    series_cache,
    stirling2,
)
from qsa.numeric import bernoulli, harmonic
from qsa.pgf import PgfCache, pgf, scaled_pgf
from qsa.simulate import SimConfig, exhaustive_distribution


def row_by_row(order: int, n_max: int) -> list[tuple[int, ...]]:
    """G_n[0..order] for n = 0..n_max, one row at a time: the reference build.

    Row n's pivot sum at order s is A_n[s] = sum_k C(n-1, k) sum_j G_k[j] G_{n-1-k}[s-j].
    Its terms j = 0 and j = s (s >= 1) each equal P_n[s] = sum_m (n-1)!/m! G_m[s],
    carried as P_n = (n-1) P_{n-1} + G_{n-1}; every other j is a dot product
    over the pivots.  Then G_n[s] = sum_t C(n-1, s-t) A_n[t].
    """
    rows = [(1,) + (0,) * order]
    p = [0] * (order + 1)
    for n in range(1, n_max + 1):
        binom = [comb(n - 1, k) for k in range(n)]
        p = [(n - 1) * p[s] + rows[n - 1][s] for s in range(order + 1)]
        pivots = []
        for s in range(order + 1):
            total = 2 * p[s] if s else 0
            for j in range(s + 1) if s == 0 else range(1, s):
                left = [b * rows[k][j] for k, b in enumerate(binom)]
                right = [rows[n - 1 - k][s - j] for k in range(n)]
                total += sum(map(mul, left, right))
            pivots.append(total)
        rows.append(tuple(
            sum(comb(n - 1, s - t) * pivots[t] for t in range(s + 1))
            for s in range(order + 1)
        ))
    return rows


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

    @pytest.mark.parametrize("order, n_max", [(8, 120), (4, 306)])
    def test_rows_match_row_by_row_reference(self, order, n_max):
        cache = SeriesCache(order=order)
        cache.ensure(n_max)
        reference = row_by_row(order, n_max)
        for n in range(n_max + 1):
            assert cache.row(n) == reference[n], n

    def test_rows_past_the_int_str_digit_limit(self):
        # at the smallest limit, 640 digits, the widest slots here take 742
        expected = SeriesCache(order=8)
        expected.ensure(400)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cache = SeriesCache(order=8)
            cache.ensure(400)
        finally:
            sys.set_int_max_str_digits(limit)
        for n in range(401):
            assert cache.row(n) == expected.row(n), n

    def test_build_grown_in_steps_equals_direct_build(self):
        grown = SeriesCache(order=8)
        for n in (40, 47, 66, 97):
            grown.ensure(n)
        direct = SeriesCache(order=8)
        direct.ensure(97)
        for n in range(98):
            assert grown.row(n) == direct.row(n), n

    def test_products_per_build_depend_on_order_only(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return _convolve(a, b)

        monkeypatch.setattr(qsa.moments, "_convolve", counted)
        counts = []
        for n in (20, 60, 200):
            calls.clear()
            SeriesCache(order=6).ensure(n)
            counts.append(len(calls))
        # column 0's check, then one product per pair 1 <= j <= s - j
        assert counts == [1 + sum(s // 2 for s in range(1, 7))] * 3

    def test_fractional_pivot_sum_raises_cross_check_error(self, monkeypatch):
        cache = SeriesCache(order=0)
        cache.ensure(10)
        cache.raise_order(2)
        monkeypatch.setattr(
            qsa.moments, "_convolve", lambda a, b: [c + 1 for c in _convolve(a, b)]
        )
        with pytest.raises(CrossCheckError, match="fractional"):
            cache.ensure(10)

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

    def test_guess_moment_grows_shared_table_once(self):
        # every window of the ladder is known before the first fit, so the
        # data for d = 1..6 (windows ending at 306, then 365) is one build
        src = str(Path(qsa.__file__).resolve().parents[1])
        code = (
            "from qsa.fitting import guess_moment\n"
            "from qsa.moments import SeriesCache\n"
            "ensure, grown = SeriesCache.ensure, []\n"
            "def recorded(self, n):\n"
            "    if len(self._cols[self.order]) <= n:\n"
            "        grown.append(n)\n"
            "    ensure(self, n)\n"
            "SeriesCache.ensure = recorded\n"
            "guess_moment(6)\n"
            "print(grown)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "[365]"


class TestConvolve:
    @staticmethod
    def naive(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]

    @pytest.mark.parametrize(
        "a, b",
        [
            ([3, 1, 4, 1, 5], [9, 2, 6, 5, 3]),
            ([0, 0, 0], [0, 0, 0]),
            ([0, 0, 0, 0], [7, 0, 2, 1]),
            ([5], [8]),
            ([0, 10**5000, 1, 10**4400 + 3], [2, 10**4301 - 1, 0, 10**5000]),
        ],
    )
    def test_matches_naive_convolution(self, a, b):
        assert _convolve(a, b) == self.naive(a, b)

    def test_square_and_slots_past_the_str_digit_limit(self):
        # the slots are wider than the int-to-str limit of 4300 digits
        a = [10**4500 - 1, 0, 12345, 10**4400 + 7, 1]
        assert _convolve(a, a) == self.naive(a, a)


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


class TestSharedTablesAcrossThreads:
    def test_four_threads_build_what_one_thread_builds(self, monkeypatch):
        def build(pgfs, series):
            return (
                [pgfs.scaled(n) for n in range(31)],
                [series.row(n) for n in (20, 40, 60)],
                [harmonic(5, n) for n in (1000, 2000, 3000)],
            )

        monkeypatch.setattr(qsa.numeric, "_prefix", {})
        alone = build(PgfCache(), SeriesCache(order=4))
        monkeypatch.setattr(qsa.numeric, "_prefix", {})
        pgfs, series = PgfCache(), SeriesCache(order=4)
        start = threading.Barrier(4)

        def job(_):
            start.wait(timeout=60)
            return build(pgfs, series)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to interleave the builds
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(job, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [alone] * 4


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: pgf(3.5), id="pgf"),
        pytest.param(lambda: scaled_pgf(3.0), id="scaled_pgf"),
        pytest.param(lambda: moment_table(10.5, 2), id="moment_table"),
        pytest.param(lambda: central_moment(4, 2.0), id="central_moment"),
        pytest.param(lambda: guess_moment(2.5), id="guess_moment"),
        # with raw_moment(5, 2) cached, 5.0 hashes to its entry
        pytest.param(lambda: (raw_moment(5, 2), raw_moment(5.0, 2)), id="raw_moment-warm"),
    ],
)
def test_non_integral_sizes_rejected_at_entry(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: stirling2(2.5, 1), id="stirling2"),
        pytest.param(lambda: stirling2(3, 1.0), id="stirling2-j"),
        pytest.param(lambda: factorial_series(2.5), id="factorial_series"),
        pytest.param(lambda: factorial_series(3, 2.5), id="factorial_series-order"),
        pytest.param(lambda: series_cache(2.5), id="series_cache"),
        pytest.param(lambda: bernoulli(2.5), id="bernoulli"),
        pytest.param(lambda: exhaustive_distribution(3.5), id="exhaustive_distribution"),
        # each warm case caches the integral argument first, whose entry the
        # float would hash to
        pytest.param(lambda: (bernoulli(4), bernoulli(4.0)), id="bernoulli-warm"),
        pytest.param(lambda: (scale(5), scale(5.0)), id="scale-warm"),
        pytest.param(
            lambda: (scale(5), tail_probability(40, 150, surrogate_n=5.0)),
            id="tail_probability-warm",
        ),
    ],
)
def test_non_integral_arguments_rejected_in_front_of_caches(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: stirling2(True, 1), id="stirling2"),
        pytest.param(lambda: factorial_series(True), id="factorial_series"),
        pytest.param(lambda: series_cache(True), id="series_cache"),
        pytest.param(lambda: bernoulli(True), id="bernoulli"),
        pytest.param(lambda: scale(True), id="scale"),
        pytest.param(lambda: exhaustive_distribution(True), id="exhaustive_distribution"),
        pytest.param(lambda: SimConfig(n=True, trials=3, seed=0), id="SimConfig"),
        pytest.param(lambda: moment_table(True, 2), id="moment_table"),
    ],
)
def test_bools_rejected_as_sizes(call):
    # as numeric.harmonic and HarmonicExpr.evaluate reject them
    with pytest.raises(ValueError, match=r"must be (an integer|integers), got (n=)?True"):
        call()
