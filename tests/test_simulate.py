"""Sorting simulators and the exhaustive pivot-tree oracle."""

import random
from fractions import Fraction

from click.testing import CliRunner

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsa.cli import cli
from qsa.fitting import known_central_moment, known_mean
from qsa.pgf import pgf
from qsa.simulate import (
    EXHAUSTIVE_LIMIT,
    MAX_SIM_N,
    EmpiricalStats,
    SimConfig,
    _quicksort,
    exhaustive_distribution,
    monte_carlo,
    quicksort_count,
    selection_sort_count,
)

key_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=40)


def reference_quicksort(items, rng):
    """The simulator's earlier loop: ``rng.randrange`` pivots, a pivot-marker stack."""
    out, count = [], 0
    stack = [(False, list(items))]
    while stack:
        is_pivot, payload = stack.pop()
        if is_pivot:
            out.append(payload)
            continue
        seg = payload
        if len(seg) <= 1:
            out.extend(seg)
            continue
        count += len(seg) - 1
        pi = rng.randrange(len(seg))
        pivot = seg[pi]
        seg[pi] = seg[-1]
        body = seg[:-1]
        lows = [x for x in body if x < pivot]
        highs = [x for x in body if not x < pivot]
        stack += [(False, highs), (True, pivot), (False, lows)]
    return out, count


def reference_monte_carlo(cfg):
    """``monte_carlo`` as it was: ``rng.shuffle``, then the reference quicksort."""
    rng = random.Random(cfg.seed)
    counts = []
    for _ in range(cfg.trials):
        perm = list(range(cfg.n))
        rng.shuffle(perm)
        counts.append(reference_quicksort(perm, rng)[1])
    t = cfg.trials
    s1, s2, s3 = (sum(c**p for c in counts) for p in (1, 2, 3))
    mean = Fraction(s1, t)
    cm2 = Fraction(s2, t) - mean**2
    cm3 = Fraction(s3, t) - 3 * mean * Fraction(s2, t) + 2 * mean**3
    variance = Fraction(0) if t < 2 else (s2 - Fraction(s1 * s1, t)) / (t - 1)
    skewness = 0.0 if cm2 == 0 else float(cm3) / float(cm2) ** 1.5
    return EmpiricalStats(t, float(mean), float(variance), skewness, min(counts), max(counts))


class Tie:
    """A key equal to every other: each partition sends all keys right."""

    def __lt__(self, other):
        return False


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

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4],
            [2] * 12 + [1] * 5,
            "the quick brown fox jumps over the lazy dog".split(),
            list(range(300, 0, -1)),
        ],
        ids=["empty", "one", "duplicates", "runs", "strings", "descending"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_same_stream_as_randrange(self, keys, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert quicksort_count(keys, ours) == reference_quicksort(keys, theirs)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("s", list(range(2, 18)) + [31, 32, 33])
    def test_pivot_draw_accepts_each_index_once(self, s):
        # Feed every k-bit value as the first draw.  With all keys tied, the
        # first key out is the first pivot; a value that is redrawn stops
        # the sort before any key is out.
        k = s.bit_length()
        keys = [Tie() for _ in range(s)]
        accepted = []
        for value in range(2**k):
            draws, widths = iter([value]), []

            def getrandbits(bits):
                widths.append(bits)
                return next(draws)

            out = []
            try:
                _quicksort(keys[:], getrandbits, out)
            except StopIteration:
                pass
            assert widths[0] == k
            if out:
                assert out[0] is keys[value]
                accepted.append(value)
        assert accepted == list(range(s))

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 100, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_same_stats_as_shuffle_and_randrange(self, n, seed):
        cfg = SimConfig(n=n, trials=20 if n == 1000 else 200, seed=seed)
        assert monte_carlo(cfg) == reference_monte_carlo(cfg)

    def test_size_cap_checked_before_anything_is_built(self):
        SimConfig(n=MAX_SIM_N, trials=1, seed=0)  # accepted, never run
        with pytest.raises(ValueError, match="limited to n <="):
            SimConfig(n=MAX_SIM_N + 1, trials=1, seed=0)
        result = CliRunner().invoke(cli, ["simulate", "--n", str(10**9)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: simulations are limited to n <= {MAX_SIM_N}, got {10**9}\n"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, trials=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=-1, trials=10, seed=1)
        with pytest.raises(ValueError, match="integers"):
            SimConfig(n=2.5, trials=3, seed=0)
