"""Scaled distribution: exact scaling checks, tails, and density export."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from qsa.cli import high_real_str
from qsa.distribution import export_density, scale, tail_probability
from qsa.fitting import known_central_moment, known_mean
from qsa.pgf import pgf


class TestScale:
    def test_three_element_atoms(self):
        dist = scale(3)
        assert dist.mean == Fraction(8, 3)
        assert dist.variance == Fraction(2, 9)
        assert dist.masses == (Fraction(1, 3), Fraction(2, 3))
        with mp.workdps(55):
            assert abs(dist.zs[0] + mp.sqrt(2)) < mpf(10) ** -45
            assert abs(dist.zs[1] - mp.sqrt(2) / 2) < mpf(10) ** -45

    def test_total_mass_exactly_one(self):
        for n in (3, 5, 30):
            assert sum(scale(n).masses) == 1

    def test_scaled_second_moment_exact_in_k_space(self):
        # sum p_k (k - c_n)^2 == m_2(n) before any square root happens
        dist = scale(30)
        acc = sum(
            m * (Fraction(k) - dist.mean) ** 2
            for k, m in zip(range(dist.min_k, dist.max_k + 1), dist.masses)
        )
        assert acc == dist.variance
        assert acc / dist.variance == 1

    def test_cdf_monotone_ends_at_one(self):
        dist = scale(30)
        assert list(dist.cumulative) == sorted(dist.cumulative)
        assert dist.cumulative[-1] == 1

    def test_default_precision_shares_the_cached_entry(self):
        assert scale(7) is scale(7, 50)
        assert scale(7, 40) is not scale(7)

    def test_small_n_rejected(self):
        # n = 2 included: the count is deterministic there, variance 0
        for n in (0, 1, 2):
            with pytest.raises(ValueError):
                scale(n)


class TestTailProbability:
    def test_exact_when_surrogate_is_target(self):
        dist = scale(60)
        for x in (300, 243, 500, 1769):
            exact_tail = sum(
                m
                for k, m in zip(range(dist.min_k, dist.max_k + 1), dist.masses)
                if k > x
            )
            est = tail_probability(60, x, surrogate_n=60)
            assert est.exact == exact_tail

    def test_at_the_mean_slightly_below_half(self):
        c = known_mean().evaluate(10000)
        est = tail_probability(10000, c, surrogate_n=60)
        assert mpf("0.40") < est.probability < mpf("0.50")
        assert not est.saturated

    def test_worst_case_threshold_saturates_to_zero(self):
        est = tail_probability(10000, 10000 * 9999 // 2, surrogate_n=60)
        assert est.probability == 0
        assert est.saturated

    def test_zero_threshold_saturates_to_one(self):
        est = tail_probability(10000, 0, surrogate_n=60)
        assert est.probability == 1
        assert est.saturated

    @given(st.integers(min_value=0, max_value=3 * 10**5))
    def test_bounded_probability(self, x):
        est = tail_probability(10000, x, surrogate_n=30)
        assert 0 <= est.probability <= 1

    def test_monotone_in_threshold(self):
        values = [
            tail_probability(5000, x, surrogate_n=30).probability
            for x in range(40000, 90000, 2500)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [4001, 5003, 7919, 12345, 19997])
    def test_enclosed_closed_forms_print_as_the_exact_ones(self, n):
        # above the exact-harmonic threshold c_n and m_2(n) come from
        # enclosures; the printed z and probability must not change
        mean = known_mean().evaluate(n)
        var = known_central_moment(2).evaluate(n)
        sd = float(var) ** 0.5
        for x in (int(mean - sd * 13 / 10), int(mean + sd * 21 / 10)):
            for precision in (30, 100):
                sur = scale(40, precision)
                with mp.workdps(precision + 10):
                    sigma = mp.sqrt(mpf(var.numerator) / mpf(var.denominator))
                    z = (mpf(x) - mpf(mean.numerator) / mpf(mean.denominator)) / sigma
                    k = mpf(sur.mean.numerator) / mpf(sur.mean.denominator) + z * sur.sigma
                    idx = int(k) - sur.min_k
                    left, right = (
                        mpf(c.numerator) / mpf(c.denominator)
                        for c in sur.cumulative[idx : idx + 2]
                    )
                    prob = 1 - (left + (right - left) * (k - (sur.min_k + idx)))
                est = tail_probability(n, x, surrogate_n=40, precision=precision)
                assert not est.saturated and est.exact is None
                assert high_real_str(est.z_cut, 17) == high_real_str(z, 17)
                assert high_real_str(est.probability, precision) == high_real_str(
                    prob, precision
                )

    def test_target_validation(self):
        for n in (1, 2):
            with pytest.raises(ValueError):
                tail_probability(n, 5)


class TestExportDensity:
    def test_masses_sum_to_one(self):
        bins = export_density(30, Fraction(1, 4))
        assert sum(b.mass for b in bins) == 1

    def test_single_bin_covers_everything(self):
        bins = export_density(10, Fraction(100))
        assert len(bins) == 1
        assert bins[0].mass == 1

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            export_density(10, 0)
        with pytest.raises(ValueError):
            export_density(10, Fraction(-1, 2))

    def test_unindexable_bin_count_rejected(self):
        with pytest.raises(ValueError, match="more than MAX_DENSITY_BINS"):
            export_density(10, Fraction(1, 10**300))

    def test_edges_are_contiguous(self):
        bins = export_density(20, Fraction(1, 2))
        for left, right in zip(bins, bins[1:]):
            assert left.z_right == right.z_left

    def test_coarse_histogram_unimodal_with_heavier_right_tail(self):
        # 0.1-wide bins alias against the 1/sigma atom lattice (bins catch
        # alternately 7 or 8 atoms), so strict unimodality is checked on
        # coarser bins; mode position and tail asymmetry hold at 0.1 too
        bins = export_density(60, Fraction(1, 2))
        masses = [float(b.mass) for b in bins]
        peak = max(range(len(masses)), key=lambda i: masses[i])
        assert all(masses[i] <= masses[i + 1] for i in range(peak))
        assert all(masses[i] >= masses[i + 1] for i in range(peak, len(masses) - 1))

        fine = export_density(60, Fraction(1, 10))
        fine_masses = [float(b.mass) for b in fine]
        mode = max(range(len(fine_masses)), key=lambda i: fine_masses[i])
        assert -1 < float(fine[mode].z_left) < 0  # mode left of the mean
        dist = scale(60)
        right = sum(m for z, m in zip(dist.zs, dist.masses) if z > 2)
        left = sum(m for z, m in zip(dist.zs, dist.masses) if z < -2)
        assert right > left > 0


class TestAgainstRawPgf:
    def test_atoms_are_the_pgf_coefficients(self):
        dist = scale(12)
        g = pgf(12)
        assert dist.min_k == g.min_k
        assert dist.masses == g.probs

    def test_mean_and_variance_close_closed_forms(self):
        dist = scale(25)
        assert dist.mean == known_mean().evaluate(25)
        assert dist.variance == known_central_moment(2).evaluate(25)
