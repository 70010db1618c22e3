"""Sorting simulators and the exhaustive pivot-tree oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsa.fitting import known_central_moment, known_mean
from qsa.pgf import pgf
from qsa.simulate import (
    EXHAUSTIVE_LIMIT,
    SimConfig,
    exhaustive_distribution,
    monte_carlo,
    quicksort_count,
    selection_sort_count,
)

key_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=40)


class TestQuicksort:
    def test_running_example(self):
        out, count = quicksort_count([3, 1, 4, 1, 5, 9, 2, 3], random.Random(11))
        assert out == [1, 1, 2, 3, 3, 4, 5, 9]
        assert 7 <= count <= 28

    def test_trivial_inputs(self):
        rng = random.Random(0)
        assert quicksort_count([], rng) == ([], 0)
        assert quicksort_count([7], rng) == ([7], 0)

    def test_two_elements_always_one_comparison(self):
        rng = random.Random(0)
        for pair in ([1, 2], [2, 1], [5, 5]):
            _, count = quicksort_count(pair, rng)
            assert count == 1

    @given(key_lists, st.integers(min_value=0, max_value=2**32))
    def test_sorts_and_stays_in_bounds(self, keys, seed):
        out, count = quicksort_count(keys, random.Random(seed))
        assert out == sorted(keys)
        n = len(keys)
        if n >= 2:
            assert n - 1 <= count <= n * (n - 1) // 2
        else:
            assert count == 0

    def test_worst_case_reachable_on_sorted_distinct_input(self):
        # with enough seeds some run keeps picking an extreme pivot
        n = 5
        counts = {
            quicksort_count(list(range(n)), random.Random(s))[1] for s in range(4000)
        }
        assert n * (n - 1) // 2 in counts


class TestSelectionSort:
    def test_running_example(self):
        out, count = selection_sort_count([3, 1, 4, 1, 5, 9, 2, 3])
        assert out == [1, 1, 2, 3, 3, 4, 5, 9]
        assert count == 28

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 0), (4, 6), (8, 28)])
    def test_quadratic_count(self, n, expected):
        _, count = selection_sort_count(list(range(n))[::-1])
        assert count == expected

    @given(key_lists)
    def test_count_never_depends_on_data(self, keys):
        out, count = selection_sort_count(keys)
        assert out == sorted(keys)
        assert count == len(keys) * (len(keys) - 1) // 2


class TestExhaustiveOracle:
    def test_hand_checked_distributions(self):
        assert exhaustive_distribution(2) == {1: Fraction(1)}
        assert exhaustive_distribution(3) == {2: Fraction(1, 3), 3: Fraction(2, 3)}
        assert exhaustive_distribution(4) == {
            4: Fraction(1, 2),
            5: Fraction(1, 6),
            6: Fraction(1, 3),
        }

    def test_agrees_with_generating_functions(self):
        for n in range(10):
            assert exhaustive_distribution(n) == dict(pgf(n).items())

    def test_support_endpoints(self):
        # upper endpoint n(n-1)/2 is always reachable; the least achievable
        # count obeys M(n) = n-1 + min_k (M(k-1) + M(n-k)), which equals the
        # n-1 lower bound only for n <= 3
        least = [0, 0]
        for n in range(2, 7):
            least.append(n - 1 + min(least[k - 1] + least[n - k] for k in range(1, n + 1)))
        for n in range(2, 7):
            dist = exhaustive_distribution(n)
            assert max(dist) == n * (n - 1) // 2
            assert min(dist) == least[n]
        assert least[2:4] == [1, 2]  # n - 1 attained up to n = 3
        assert least[4:7] == [4, 6, 8]  # strictly above n - 1 afterwards

    def test_guard(self):
        with pytest.raises(ValueError):
            exhaustive_distribution(EXHAUSTIVE_LIMIT + 1)


class TestMonteCarlo:
    def test_two_elements_deterministic(self):
        stats = monte_carlo(SimConfig(n=2, trials=64, seed=5))
        assert stats.mean == 1.0
        assert stats.variance == 0.0
        assert stats.min_count == stats.max_count == 1

    def test_seed_determinism(self):
        a = monte_carlo(SimConfig(n=40, trials=500, seed=123))
        b = monte_carlo(SimConfig(n=40, trials=500, seed=123))
        assert a == b
        c = monte_carlo(SimConfig(n=40, trials=500, seed=124))
        assert c != a

    def test_counts_within_support(self):
        stats = monte_carlo(SimConfig(n=25, trials=2000, seed=9))
        assert stats.min_count >= 24
        assert stats.max_count <= 25 * 24 // 2

    def test_mean_within_four_standard_errors(self):
        n, trials = 50, 4000
        stats = monte_carlo(SimConfig(n=n, trials=trials, seed=77))
        mean = float(known_mean().evaluate(n))
        sd = float(known_central_moment(2).evaluate(n)) ** 0.5
        assert abs(stats.mean - mean) <= 4 * sd / trials**0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, trials=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=-1, trials=10, seed=1)
        with pytest.raises(ValueError, match="integers"):
            SimConfig(n=2.5, trials=3, seed=0)
