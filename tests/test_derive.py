"""Closed forms derived from the generating function (``qsa.derive``).

The ring operations and phi_s are checked against power series computed
here from scratch; the derived forms against the transcribed formulas, the
verified fits and, inside ``derived_moment``, the exact-PGF moments.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsa import derive
from qsa.derive import derived_moment, moment_gf
from qsa.errors import CrossCheckError
from qsa.fitting import known_central_moment, known_mean
from qsa.moments import SeriesCache

N = 60


def _mul(a, b, size):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(size)]


def series(elem, size):
    """[z^0..z^(size-1)] of sum c (1-z)^k L^j, from the binomial and log series."""
    log = [Fraction(0)] + [Fraction(1, n) for n in range(1, size)]
    powers = [[Fraction(1)] + [Fraction(0)] * (size - 1)]
    for _ in range(max((j for _, j in elem), default=0)):
        powers.append(_mul(powers[-1], log, size))
    total = [Fraction(0)] * size
    for k in {k for k, _ in elem}:
        # (1-z)^k = sum_n (-1)^n C(k, n) z^n, with C(k, n) = (-1)^n C(n-k-1, n) for k < 0
        binomial = [(-1) ** n * comb(k, n) if k >= 0 else comb(n - k - 1, n) for n in range(size)]
        logs = [sum(c * powers[j][n] for (kk, j), c in elem.items() if kk == k) for n in range(size)]
        total = [t + x for t, x in zip(total, _mul(binomial, logs, size))]
    return total


elements = st.dictionaries(
    st.tuples(st.integers(-4, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    max_size=5,
)


class TestRing:
    @given(elements)
    def test_derivative_matches_the_series(self, elem):
        coeffs = series(elem, 13)
        assert series(derive._diff(elem), 12) == [(n + 1) * coeffs[n + 1] for n in range(12)]

    @given(elements)
    def test_integral_from_zero_matches_the_series(self, elem):
        coeffs = series(elem, 12)
        assert series(derive._integrate(elem), 13) == [0] + [c / (n + 1) for n, c in enumerate(coeffs)]

    @given(elements)
    def test_times_z_shifts_the_series(self, elem):
        assert series(derive._times_z(elem), 12) == [0] + series(elem, 11)


@pytest.mark.parametrize("s", range(9))
def test_phi_is_the_factorial_moment_series(s):
    # [z^n] phi_s = E[C(X_n, s)] = G_n[s]/n!, the series route's column s
    table = SeriesCache(order=8)
    column = [Fraction(table.row(n)[s], factorial(n)) for n in range(N + 1)]
    assert series(moment_gf(s), N + 1) == column


def test_phi_has_the_expected_shape():
    for s in range(9):
        assert all(-s - 1 <= k < 0 and j <= s for k, j in moment_gf(s))
    assert len(moment_gf(8)) == 72


def test_moment_gf_is_read_only():
    with pytest.raises(TypeError):
        moment_gf(1)[(0, 0)] = Fraction(1)
    assert (0, 0) not in moment_gf(1)


@pytest.mark.parametrize("r", range(1, 7))
def test_derived_forms_equal_the_transcribed_ones(r):
    assert derived_moment(r) == (known_mean() if r == 1 else known_central_moment(r))


@pytest.mark.parametrize("r", range(1, 9))
def test_derived_forms_equal_the_verified_fits(fits, r):
    # each fit, checked on finite windows, is thereby an identity for all n
    assert derived_moment(r) == fits[r].expr


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: derived_moment(2.0), id="derived_moment-float"),
        pytest.param(lambda: derived_moment(True), id="derived_moment-bool"),
        pytest.param(lambda: moment_gf(1.0), id="moment_gf-float"),
    ],
)
def test_non_integral_orders_rejected(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call", [lambda: derived_moment(0), lambda: moment_gf(-1)], ids=["r=0", "s=-1"]
)
def test_orders_out_of_range_rejected(call):
    with pytest.raises(ValueError, match=">= "):
        call()


def clear_caches():
    for value in vars(derive).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture()
def fresh_caches():
    """Every cache of ``qsa.derive`` empty before the test and after it."""
    clear_caches()
    yield
    clear_caches()


def corrupt(monkeypatch, s, key, delta):
    ring = derive.moment_gf

    def corrupted(order):
        elem = dict(ring(order))
        if order == s:
            elem[key] = elem.get(key, 0) + delta
        return elem

    monkeypatch.setattr(derive, "moment_gf", corrupted)


class TestCorruptedRing:
    @pytest.mark.parametrize(
        "key,delta",
        [
            # each term (1-z)^-a L^j has polynomial coefficients in n and H_m(n),
            # so a wrong coefficient divides out and the exact-PGF moments catch it
            ((-3, 2), Fraction(1, 7)),
            ((-1, 0), Fraction(1)),  # adds 1 to every E[C(X_n, 2)]
            ((-2, 2), Fraction(-1, 3)),  # a term phi_2 does not have
        ],
    )
    def test_wrong_coefficient_fails_the_cross_check(self, fresh_caches, monkeypatch, key, delta):
        corrupt(monkeypatch, 2, key, delta)
        with pytest.raises(CrossCheckError, match="disagree at n="):
            derived_moment(3)

    def test_term_outside_the_ring_of_closed_forms(self, fresh_caches, monkeypatch):
        # L = sum z^n/n: its coefficients are not polynomials in n and H_m(n)
        corrupt(monkeypatch, 1, (0, 1), Fraction(1))
        with pytest.raises(CrossCheckError, match="outside"):
            derived_moment(1)

    def test_coefficient_that_leaves_a_remainder(self, fresh_caches, monkeypatch):
        # one more unit over lambda^2 D^2 in [z^n] (1-z)^-3 L^2: not a polynomial
        bell = derive._bell_rational

        def corrupted(a, d):
            poly = list(bell(a, d))
            poly[0] += (a, d) == (3, 2)
            return poly

        monkeypatch.setattr(derive, "_bell_rational", corrupted)
        with pytest.raises(CrossCheckError, match="does not divide by n"):
            derived_moment(2)


def test_four_threads_derive_what_one_thread_derives(fresh_caches):
    alone = [derived_moment(r) for r in range(1, 7)]
    clear_caches()
    start = threading.Barrier(4)

    def job(_):
        start.wait(timeout=60)
        return [derived_moment(r) for r in range(6, 0, -1)][::-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave the derivations
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(job, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [alone] * 4
