"""Template enumeration, exact fitting, and the escalating guesser."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qsa.errors import FitSolverError, GuessError, InsufficientDataError
from qsa.fitting import (
    MAX_TEMPLATE_SIZE,
    REFUTED,
    UNDETERMINED,
    VERIFIED,
    HarmonicExpr,
    Monomial,
    _agrees,
    _fresh_prime,
    _matrix_mod_p,
    _rational_reconstruct,
    _solve_mod_p,
    fit,
    guess_moment,
    known_central_moment,
    known_mean,
    template,
)
from qsa.moments import central_moment, moment_table


def mean_data(n_max):
    return moment_table(n_max, 1, kind="raw").values


class TestMonomial:
    def test_canonicalization(self):
        m = Monomial(2, ((2, 1), (1, 3), (3, 0)))
        assert m.h_powers == ((1, 3), (2, 1))
        assert m.weight == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(-1)
        with pytest.raises(ValueError):
            Monomial(0, ((0, 2),))

    def test_evaluate(self):
        m = Monomial(1, ((1, 1),))
        assert HarmonicExpr({m: 1}).evaluate(3) == 3 * Fraction(11, 6)

    def test_str(self):
        assert str(Monomial(0)) == "1"
        assert str(Monomial(2, ((1, 2), (3, 1)))) == "n^2*H1^2*H3"


class TestTemplate:
    def test_degree_one_template(self):
        monos = template(1, 1, 1)
        assert {str(m) for m in monos} == {"1", "n", "H1", "n*H1"}

    def test_degree_two_contains_expected(self):
        labels = {str(m) for m in template(2, 2, 2)}
        assert {"n^2", "n*H1", "n^2*H2", "H1^2"} <= labels
        assert len(labels) == 12

    def test_contains_every_fourth_moment_monomial(self):
        basis = set(template(4, 4, 4))
        assert set(known_central_moment(4).terms) <= basis

    def test_deterministic_order(self):
        assert template(3, 3, 3) == template(3, 3, 3)

    def test_bounds_respected(self):
        for mono in template(5, 3, 4):
            assert mono.n_power <= 3
            assert mono.weight <= 4
            assert all(m <= 5 for m, _ in mono.h_powers)


class TestHarmonicExpr:
    def test_polynomial_algebra(self):
        N = HarmonicExpr.variable()
        expr = (N + 1) ** 2
        assert expr == N**2 + 2 * N + 1

    def test_mean_formula_values(self):
        expr = known_mean()
        assert expr.evaluate(1) == 0
        assert expr.evaluate(3) == Fraction(8, 3)

    def test_variance_formula_at_two(self):
        assert known_central_moment(2).evaluate(2) == 0

    def test_zero_handling(self):
        z = HarmonicExpr.zero()
        assert z.is_zero()
        assert (known_mean() - known_mean()).is_zero()

    def test_constants_hash_like_the_numbers_they_equal(self):
        for value in (0, 5, Fraction(-3, 7)):
            expr = HarmonicExpr.constant(value)
            assert expr == value and hash(expr) == hash(value)
            assert len({expr, value}) == 1
        assert len({HarmonicExpr.zero(), 0}) == 1
        assert HarmonicExpr.variable() != 5

    def test_evaluate_rejects_bad_n(self):
        with pytest.raises(ValueError):
            known_mean().evaluate(0)

    def test_json_round_trip(self):
        expr = known_central_moment(4)
        assert HarmonicExpr.from_json(expr.to_json()) == expr

    @pytest.mark.parametrize(
        "coeff,match",
        [({"num": "3", "den": "0"}, "the denominator is 0"), ({"num": 1.5, "den": "2"}, "1.5")],
        ids=["zero-den", "float-num"],
    )
    def test_json_bad_coefficient_names_the_term(self, coeff, match):
        term = {"n_pow": 1, "h_pows": [[1, 1]], "coeff": coeff}
        with pytest.raises(ValueError, match=rf"term {{'n_pow': 1, .*: .*{match}"):
            HarmonicExpr.from_json([term])

    @pytest.mark.parametrize(
        "n_pow,h_pows,name",
        [(1.5, [], "n_power"), (0, [[2.0, 1]], "m"), (0, [[2, 0.5]], "e")],
        ids=["n_pow", "order", "exponent"],
    )
    def test_json_non_integral_powers_are_refused(self, n_pow, h_pows, name):
        term = {"n_pow": n_pow, "h_pows": h_pows, "coeff": {"num": "1", "den": "1"}}
        with pytest.raises(ValueError, match=rf"term .*: {name} must be an integer"):
            HarmonicExpr.from_json([term])

    def test_canonical_term_order_is_lexicographic(self):
        expr = known_central_moment(2)
        keys = [m.sort_key(2) for m, _ in expr.canonical_terms()]
        assert keys == sorted(keys)


# harmonic parts drawn from a small pool, so that terms share them
_H_PARTS = [(), ((1, 1),), ((2, 1),), ((1, 2),), ((1, 1), (2, 1)), ((3, 2),)]
_TERMS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.sampled_from(_H_PARTS),
        st.fractions(max_denominator=50).filter(bool),
    ),
    max_size=12,
)


@cache
def _brute_harmonic(m, n):
    return sum((Fraction(1, i**m) for i in range(1, n + 1)), Fraction(0))


def _coefficients(terms):
    coeffs = {}
    for a, h, c in terms:
        mono = Monomial(a, h)
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + c
    return coeffs


def _brute_value(coeffs, n):
    """The independent reference: a term-by-term sum of brute harmonic numbers."""
    total = Fraction(0)
    for mono, c in coeffs.items():
        value = c * n**mono.n_power
        for m, e in mono.h_powers:
            value *= _brute_harmonic(m, n) ** e
        total += value
    return total


class TestGroupedEvaluate:
    @given(terms=_TERMS, n=st.integers(1, 40))
    @example(terms=[(0, (), Fraction(1, 3)), (2, (), Fraction(-5, 7))], n=1)
    @example(
        terms=[(1, ((1, 1),), Fraction(3, 4)), (3, ((1, 1),), Fraction(1, 6)),
               (0, ((1, 1), (2, 1)), Fraction(-9, 10))],
        n=7,
    )
    # above numeric._PREFIX_LIMIT, where H_m(n) comes from binary splitting
    @example(
        terms=[(2, (), Fraction(-5, 7)), (1, ((1, 2),), Fraction(3, 4)),
               (0, ((1, 1), (2, 1)), Fraction(-9, 10)), (0, ((3, 2),), Fraction(2, 9))],
        n=4001,
    )
    def test_matches_term_by_term_sum(self, terms, n):
        coeffs = _coefficients(terms)
        assert HarmonicExpr(coeffs).evaluate(n) == _brute_value(coeffs, n)


class TestIntegerVerification:
    @given(
        terms=_TERMS,
        points=st.dictionaries(
            st.integers(1, 60),
            st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 7),
                             Fraction(1, 10**30)]),
            min_size=1,
            max_size=6,
        ),
    )
    @example(terms=[], points={1: Fraction(0), 5: Fraction(1, 3)})
    @example(terms=[(0, ((3, 2),), Fraction(2, 9))], points={60: Fraction(1, 10**30)})
    def test_matches_fraction_evaluation(self, terms, points):
        # data[n] is the reference value off by the drawn amount, zero or not
        coeffs = _coefficients(terms)
        data = {n: _brute_value(coeffs, n) + delta for n, delta in points.items()}
        expected = not any(points.values())
        assert _agrees(HarmonicExpr(coeffs), data, list(points)) == expected

    def test_closed_forms_agree_with_exact_moments(self):
        points = range(1, 61)
        for r in range(2, 7):
            data = {n: central_moment(n, r) for n in points}
            assert _agrees(known_central_moment(r), data, points)
            data[37] += Fraction(1, 10**40)
            assert not _agrees(known_central_moment(r), data, points)


class TestRationalReconstruction:
    def test_round_trip(self):
        m = 7**48  # coprime to every denominator below
        for q in (Fraction(2260, 9), Fraction(-19), Fraction(768), Fraction(-1, 12)):
            residue = q.numerator * pow(q.denominator, -1, m) % m
            assert _rational_reconstruct(residue, m) == q

    def test_zero(self):
        assert _rational_reconstruct(0, 10**20) == 0


def _solve_exact(A, b):
    """[A|b] by Fraction Gaussian elimination, with _solve_mod_p's verdicts."""
    cols = len(A[0])
    M = [[Fraction(v) for v in (*row, rhs)] for row, rhs in zip(A, b)]
    pivot_cols = []
    for col in range(cols):
        row = len(pivot_cols)
        pr = next((i for i in range(row, len(M)) if M[i][col]), None)
        if pr is None:
            continue
        M[row], M[pr] = M[pr], M[row]
        M[row] = [v / M[row][col] for v in M[row]]
        for i in range(len(M)):
            if i != row and M[i][col]:
                f = M[i][col]
                M[i] = [v - f * w for v, w in zip(M[i], M[row])]
        pivot_cols.append(col)
    if any(row[-1] for row in M[len(pivot_cols):]):
        return "inconsistent", None
    if len(pivot_cols) < cols:
        return "deficient", None
    return "unique", [M[i][-1] for i in range(cols)]


def _random_system(rng, verdict):
    cols = rng.randint(1, 6)
    rows = cols + rng.randint(0 if verdict == "unique" else 1, 4)
    A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if verdict == "deficient":
        if cols > 1 and rng.random() < 0.5:
            lost = rng.randrange(1, cols)  # a column the earlier ones span
            for row in A:
                row[lost] = sum(row[:lost])
        else:
            zero = rng.randrange(cols)
            for row in A:
                row[zero] = 0
    x = [rng.randint(-20, 20) for _ in range(cols)]
    b = [sum(a * v for a, v in zip(row, x)) for row in A]
    if verdict == "inconsistent":
        b[rng.randrange(rows)] += rng.randint(1, 5)
    return A, b


class TestSolveModP:
    PRIMES = tuple(_fresh_prime(random.Random(seed), set()) for seed in range(3))

    @staticmethod
    def solve(A, b, p):
        columns = [[v % p for v in col] for col in zip(*A)]
        return _solve_mod_p(columns, [v % p for v in b], p)

    @pytest.mark.parametrize("verdict", ["unique", "inconsistent", "deficient"])
    def test_matches_exact_elimination(self, verdict):
        rng = random.Random(verdict)
        seen = set()
        for _ in range(60):
            A, b = _random_system(rng, verdict)
            status, exact = _solve_exact(A, b)
            seen.add(status)
            for p in self.PRIMES:
                got = self.solve(A, b, p)
                if status == "unique":
                    assert got == (status, [
                        q.numerator * pow(q.denominator, -1, p) % p for q in exact
                    ])
                else:
                    assert got == (status, None)
        assert verdict in seen

    def test_pivot_below_the_first_remaining_row(self):
        A = [[0, 1], [0, 2], [1, 0], [1, 1]]
        b = [2, 4, 3, 5]
        assert self.solve(A, b, 101) == ("unique", [3, 2])
        assert _solve_exact(A, b) == ("unique", [3, 2])

    def test_all_zero_column(self):
        A = [[1, 0, 2], [3, 0, 4], [5, 0, 6], [7, 0, 8]]
        consistent = [5, 11, 17, 23]  # x0 = 1, x2 = 2
        assert self.solve(A, consistent, 101) == ("deficient", None)
        broken = [5, 11, 17, 24]
        assert self.solve(A, broken, 101) == ("inconsistent", None)
        assert _solve_exact(A, broken) == ("inconsistent", None)

    def test_entries_that_vanish_only_mod_p(self):
        # 7 and 14 are zero mod 7: the first column has no pivot mod 7
        A = [[7, 1], [14, 2], [7, 3]]
        assert self.solve(A, [1, 2, 3], 7) == ("deficient", None)
        assert self.solve(A, [1, 2, 4], 7) == ("inconsistent", None)

    def test_matrix_columns_hold_monomial_values(self):
        monos = template(3, 2, 3)
        points = [1, 2, 5, 9, 17]
        p = self.PRIMES[0]
        columns = _matrix_mod_p(monos, points, p)
        assert len(columns) == len(monos)
        for mono, column in zip(monos, columns):
            assert len(column) == len(points)
            for n, entry in zip(points, column):
                value = HarmonicExpr({mono: 1}).evaluate(n)
                assert entry == value.numerator * pow(value.denominator, -1, p) % p

    def test_slots_cannot_carry_at_the_template_limit(self):
        # every prime is below 2^25, and every slot starts below p and
        # gains at most (p - 1)^2 per pivot
        assert all(p < 2**25 for p in self.PRIMES)
        top = 2**25 - 2
        assert top + MAX_TEMPLATE_SIZE * top**2 < 2**64

    def test_fit_refuses_a_template_above_the_limit(self):
        monos = [Monomial(a) for a in range(MAX_TEMPLATE_SIZE + 1)]
        with pytest.raises(FitSolverError, match="MAX_TEMPLATE_SIZE"):
            fit({}, monos, (1, 2), (3, 4))


class TestFit:
    def test_mean_recovery(self):
        # four-term template, train on 1..9, verify through 306
        monos = template(1, 1, 1)
        report = fit(mean_data(306), monos, (1, 9), (10, 306))
        assert report.status == VERIFIED
        by_label = {str(m): c for m, c in report.expr.terms.items()}
        assert by_label == {"n": -4, "H1": 2, "n*H1": 2}
        assert report.expr.coefficient(Monomial(0)) == 0
        assert not any(report.residuals)

    def test_constant_zero_data(self):
        data = {n: Fraction(0) for n in range(1, 40)}
        report = fit(data, template(1, 1, 1), (1, 9), (10, 39))
        assert report.status == VERIFIED
        assert report.expr.is_zero()

    def test_refuted_template(self):
        # the mean is not affine in n
        monos = [Monomial(0), Monomial(1)]
        report = fit(mean_data(60), monos, (1, 20), (21, 60))
        assert report.status == REFUTED
        assert report.expr is None

    def test_underdetermined_duplicate_columns(self):
        monos = [Monomial(0), Monomial(0), Monomial(1)]
        data = {n: Fraction(3 * n + 2) for n in range(1, 41)}
        report = fit(data, monos, (1, 20), (21, 40))
        assert report.status == UNDETERMINED
        assert report.expr is None

    def test_training_set_independence(self):
        monos = template(1, 1, 1)
        data = mean_data(120)
        r1 = fit(data, monos, (1, 9), (40, 120))
        r2 = fit(data, monos, (10, 18), (40, 120))
        assert r1.status == r2.status == VERIFIED
        assert r1.expr == r2.expr

    def test_insufficient_training_points(self):
        with pytest.raises(InsufficientDataError):
            fit(mean_data(20), template(1, 1, 1), (1, 5), (6, 20))

    def test_missing_data_rejected(self):
        data = {n: Fraction(n) for n in range(1, 10)}
        with pytest.raises(InsufficientDataError):
            fit(data, template(1, 1, 1), (1, 9), (10, 20))

    def test_overlapping_windows_rejected(self):
        data = {n: Fraction(n) for n in range(1, 31)}
        overlap = r"disjoint, but share 16 point\(s\) in n = 5\.\.20"
        with pytest.raises(ValueError, match=overlap):
            fit(data, [Monomial(0), Monomial(1)], (1, 20), (5, 30))

    def test_prime_dividing_a_data_denominator_is_skipped(self):
        # the first prime fit draws; data over it has no value mod p, so fit
        # moves on to the next prime
        p = _fresh_prime(random.Random(0x5EED), set())
        data = {n: Fraction(3 * n + 1, p) for n in range(1, 40)}
        report = fit(data, [Monomial(0), Monomial(1)], (1, 20), (21, 39))
        assert report.status == VERIFIED
        assert report.expr == HarmonicExpr({Monomial(0): Fraction(1, p),
                                            Monomial(1): Fraction(3, p)})

    def test_test_failure_reports_residuals(self):
        # train window fits an affine model exactly, test window refutes it
        data = {n: Fraction(n) for n in range(1, 31)}
        data.update({n: Fraction(n + 1) for n in range(21, 31)})
        monos = [Monomial(0), Monomial(1)]
        report = fit(data, monos, (1, 20), (21, 30))
        assert report.status == REFUTED
        assert report.expr is not None
        assert all(res == 1 for res in report.residuals)


class TestGuessMoment:
    def test_order_one_is_classical_mean(self):
        report = guess_moment(1)
        assert report.status == VERIFIED
        assert report.degree == 1
        assert report.expr == known_mean()

    def test_order_two_matches_transcription(self):
        report = guess_moment(2)
        assert report.status == VERIFIED
        assert report.degree == 2
        assert report.expr == known_central_moment(2)

    def test_order_three_matches_transcription(self):
        report = guess_moment(3)
        assert report.expr == known_central_moment(3)
        assert report.degree == 3

    def test_fitted_forms_reproduce_exact_moments(self):
        report = guess_moment(2)
        for n in range(1, 40):
            assert report.expr.evaluate(n) == central_moment(n, 2)

    def test_escalation_exhaustion_names_template(self):
        # powers of two admit no harmonic-polynomial closed form
        data = {n: Fraction(2) ** n for n in range(1, 400)}
        with pytest.raises(GuessError) as err:
            guess_moment(2, data=data)
        assert "n-degree <= 2" in str(err.value)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            guess_moment(0)

    def test_fixed_windows_escalate_to_the_first_verified_degree(self):
        report = guess_moment(2, train=(1, 30), test=(31, 80))
        assert report.status == VERIFIED
        assert report.degree == 2
        assert (report.train_range, report.test_range) == ((1, 30), (31, 80))
        assert report.expr == known_central_moment(2)

    def test_fixed_windows_exhaustion_raises(self):
        data = {n: Fraction(2) ** n for n in range(1, 100)}
        with pytest.raises(GuessError):
            guess_moment(1, data=data, train=(1, 20), test=(21, 99))

    def test_any_pair_is_an_interval(self):
        # [1, 20] is n = 1..20 like (1, 20), not the two points {1, 20}
        data = mean_data(60)
        report = guess_moment(1, data=data, train=[1, 20], test=[21, 60])
        assert report.status == VERIFIED
        assert (report.train_range, report.test_range) == ((1, 20), (21, 60))
        assert report.expr == known_mean()

    @pytest.mark.parametrize(
        "train,test",
        [((1.5, 9.7), (10, 306.2)), ((True, 12), (13, 40))],
        ids=["float", "bool"],
    )
    def test_non_integral_windows_rejected_before_any_data(self, monkeypatch, train, test):
        monkeypatch.setattr("qsa.fitting.moment_table", lambda *a, **k: pytest.fail("built"))
        with pytest.raises(ValueError, match="two integers"):
            guess_moment(1, train=train, test=test)

    def test_fixed_windows_come_together(self):
        with pytest.raises(ValueError):
            guess_moment(1, train=(1, 9))
