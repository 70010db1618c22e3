"""Exact PGF recurrence: base cases, hand-derived values, and invariants."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsa.errors import CrossCheckError
from qsa.fitting import known_mean
from qsa.pgf import (
    PgfCache,
    _byte_width,
    _pack,
    _reduced_row,
    _step_width,
    _unpack,
    _widen,
    convolve,
    pgf,
    scaled_pgf,
)


def _factorial_width_rows(n_max):
    """Rows 0..n_max by the step that packs every row at n!'s width."""
    rows = [(0, (1,)), (0, (1,))]
    for n in range(2, n_max + 1):
        offs = [off for off, _ in rows]
        lens = [len(c) for _, c in rows]
        pair_off = [offs[k - 1] + offs[n - k] for k in range(1, n + 1)]
        base = min(pair_off)
        span = (
            max(
                pair_off[k - 1] + lens[k - 1] + lens[n - k] - 1
                for k in range(1, n + 1)
            )
            - base
        )
        width = (factorial(n).bit_length() + 9) // 8
        packed = [_pack(c, width) for _, c in rows]
        acc = 0
        for k in range(1, (n + 1) // 2 + 1):
            w = comb(n - 1, k - 1) * (1 if 2 * k == n + 1 else 2)
            prod = packed[k - 1] * packed[n - k]
            acc += w * (prod << ((pair_off[k - 1] - base) * width * 8))
        unpacked = _unpack(acc, span, width)
        while unpacked and unpacked[-1] == 0:
            unpacked.pop()
        rows.append((base + n - 1, tuple(unpacked)))
    return rows


class TestBaseCases:
    def test_empty_and_singleton(self):
        assert dict(pgf(0).items()) == {0: Fraction(1)}
        assert dict(pgf(1).items()) == {0: Fraction(1)}

    def test_two_elements_one_comparison(self):
        assert dict(pgf(2).items()) == {1: Fraction(1)}

    def test_three_elements(self):
        assert dict(pgf(3).items()) == {2: Fraction(1, 3), 3: Fraction(2, 3)}

    def test_four_elements(self):
        assert dict(pgf(4).items()) == {
            4: Fraction(1, 2),
            5: Fraction(1, 6),
            6: Fraction(1, 3),
        }


class TestEval:
    def test_normalization_point(self):
        assert sum(p * 1**k for k, p in pgf(5).items()) == 1

    def test_zero_point(self):
        assert sum(p * 0**k for k, p in pgf(3).items()) == 0

    def test_rational_point(self):
        assert sum(p * 2**k for k, p in pgf(3).items()) == Fraction(20, 3)

    def test_prob_lookup(self):
        g = pgf(4)
        assert g.prob(5) == Fraction(1, 6)
        assert g.prob(3) == 0
        assert g.prob(99) == 0


class TestInvariants:
    def test_normalization_all_n(self):
        for n in range(41):
            assert sum(p * 1**k for k, p in pgf(n).items()) == 1

    def test_support_bounds(self):
        for n in range(2, 41):
            g = pgf(n)
            assert g.max_k == n * (n - 1) // 2
            assert g.min_k >= n - 1
            assert all(p >= 0 for p in g.probs)

    def test_denominators_divide_factorial(self):
        for n in range(2, 25):
            nf = factorial(n)
            assert all(nf % p.denominator == 0 for p in pgf(n).probs)

    def test_top_coefficient_law(self):
        # Pr(X_n = n(n-1)/2) = 2^(n-1)/n!; the single strictly-worst pivot
        # sequence has probability 1/n!, and 2^(n-1) sequences achieve the
        # worst count (min or max rank at each of n-1 levels)
        for n in range(2, 13):
            g = pgf(n)
            assert g.prob(n * (n - 1) // 2) == Fraction(2 ** (n - 1), factorial(n))

    def test_scaled_coefficients_sum_to_factorial(self):
        for n in range(15):
            _, coeffs = scaled_pgf(n)
            assert sum(coeffs) == factorial(n)

    def test_mean_matches_closed_form(self):
        mean_expr = known_mean()
        for n in range(1, 61):
            offset, coeffs = scaled_pgf(n)
            total = sum(c * (offset + i) for i, c in enumerate(coeffs))
            assert Fraction(total, factorial(n)) == mean_expr.evaluate(n)

    def test_cache_matches_convolve_recurrence(self):
        # g_n = t^(n-1)/n * sum_k g_{k-1} g_{n-k}, every product by convolve
        cache = PgfCache()
        ref = [{0: Fraction(1)}, {0: Fraction(1)}]
        for n in range(2, 19):
            total: dict[int, Fraction] = {}
            for k in range(1, n + 1):
                for deg, p in convolve(ref[k - 1], ref[n - k]).items():
                    total[deg] = total.get(deg, Fraction(0)) + p
            ref.append({deg + n - 1: p / n for deg, p in total.items()})
        for n in range(19):
            assert dict(cache.get(n).items()) == ref[n], n

    def test_corrupted_table_raises_cross_check_error(self):
        cache = PgfCache()
        cache.scaled(6)
        # one more unit on the lowest coefficient of G_3, the only stored form
        offset, coeffs = cache._rows[3]
        cache._rows[3] = (offset, (coeffs[0] + 1,) + coeffs[1:])
        with pytest.raises(CrossCheckError):
            cache.scaled(7)

    def test_widening_slots_keeps_coefficients(self):
        # each step packs at its own width, so growing in stages and
        # building at once must store the same rows
        grown, direct = PgfCache(), PgfCache()
        for n in (20, 45, 60):
            grown.scaled(n)
        direct.scaled(60)
        for n in range(61):
            assert grown.scaled(n) == direct.scaled(n), n

    def test_corrupted_row_too_wide_for_its_slot_raises_cross_check_error(self):
        # a coefficient far above the row's mass would not fit its slot
        cache = PgfCache()
        cache.scaled(6)
        offset, coeffs = cache._rows[3]
        cache._rows[3] = (offset, (coeffs[0] + 2**300,) + coeffs[1:])
        with pytest.raises(CrossCheckError):
            cache.scaled(7)

    def test_corrupted_row_with_negative_coefficient_raises_cross_check_error(self):
        # the mass still sums to 3!, but -1 has no unsigned slot
        cache = PgfCache()
        cache.scaled(6)
        offset, coeffs = cache._rows[3]
        cache._rows[3] = (offset, (coeffs[0] + 1, -1) + coeffs[1:])
        with pytest.raises(CrossCheckError):
            cache.scaled(7)

    def test_coefficient_wider_than_its_slot_raises(self):
        # a slot of one byte cannot hold 256, which would spill into the next
        with pytest.raises(OverflowError):
            _pack((1, 256, 1), 1)

    def test_narrow_slots_match_factorial_width_step(self):
        # the reference packs every row at n!'s width; rows must be equal
        ref = _factorial_width_rows(70)
        cache = PgfCache()
        cache.scaled(70)
        for n in range(71):
            assert cache.scaled(n) == ref[n], n

    def test_no_pair_wider_than_its_step(self):
        _, coeffs = zip(*(scaled_pgf(m) for m in range(70)))
        masses = [_reduced_row(m, c)[1] for m, c in enumerate(coeffs)]
        for n in range(2, 71):
            for k in range(1, n + 1):
                pair = _byte_width(masses[k - 1] * masses[n - k])
                assert pair <= _step_width(n), (n, k)

    def test_shared_power_of_two_ignores_zero_coefficients(self):
        # G_3 = 2t^2 + 4t^3 with a zero coefficient put between: e = 1
        shift, mass, width, packed = _reduced_row(3, (2, 0, 4))
        assert (shift, mass, width) == (1, 3, 1)
        assert _unpack(packed, 3, width) == [1, 0, 2]
        assert _reduced_row(50, scaled_pgf(50)[1])[0] == 25

    def test_cached_coefficients_are_immutable(self):
        with pytest.raises(AttributeError):
            scaled_pgf(4)[1].append(0)
        assert sum(p * 1**k for k, p in pgf(4).items()) == 1
        assert sum(pgf(4).probs) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            pgf(-1)


class TestWiden:
    def test_same_width_is_unchanged(self):
        value = _pack((5, 0, 255), 1)
        assert _widen(value, 3, 1, 1) is value

    @pytest.mark.parametrize(
        "coeffs, u, v",
        [
            # fewer slots than bytes in a slot
            ([0xABCDEF, 0x010203], 3, 5),
            # more slots than bytes in a slot
            ([(37 * i + 11) % 65536 for i in range(39)] + [0xFFFF], 2, 7),
        ],
    )
    def test_widening_keeps_each_slot(self, coeffs, u, v):
        wide = _widen(_pack(coeffs, u), len(coeffs), u, v)
        assert _unpack(wide, len(coeffs), v) == coeffs

    @given(
        st.lists(st.integers(min_value=0, max_value=2**24 - 1), min_size=1, max_size=9),
        st.integers(min_value=0, max_value=4),
    )
    def test_widening_round_trips(self, coeffs, extra):
        wide = _widen(_pack(coeffs, 3), len(coeffs), 3, 3 + extra)
        assert _unpack(wide, len(coeffs), 3 + extra) == coeffs


small_tables = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=0, max_value=3, max_denominator=60),
    min_size=1,
    max_size=6,
)


class TestConvolve:
    def test_identity_element(self):
        g = pgf(4)
        assert convolve(g, {0: Fraction(1)}) == {k: p for k, p in g.items()}

    def test_monomial_product(self):
        assert convolve({1: Fraction(1)}, {1: Fraction(1)}) == {2: Fraction(1)}

    def test_shift_by_pgf2(self):
        assert convolve(pgf(2), pgf(3)) == {3: Fraction(1, 3), 4: Fraction(2, 3)}

    @given(small_tables, small_tables)
    def test_mass_multiplies_and_degree_adds(self, a, b):
        prod = convolve(a, b)
        assert sum(prod.values()) == sum(a.values()) * sum(b.values())
        a_nz = {k for k, v in a.items() if v}
        b_nz = {k for k, v in b.items() if v}
        if a_nz and b_nz:
            assert max(prod) == max(a_nz) + max(b_nz)
            assert min(prod) == min(a_nz) + min(b_nz)

    @given(small_tables, small_tables)
    def test_commutative(self, a, b):
        assert convolve(a, b) == convolve(b, a)


class TestDistPoly:
    def test_frozen(self):
        g = pgf(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_items_sorted_and_dense(self):
        g = pgf(6)
        ks = [k for k, _ in g.items()]
        assert ks == list(range(g.min_k, g.max_k + 1))
