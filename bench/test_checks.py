"""The benchmark's checks accept right outputs and reject corrupted ones.

Run with ``python3 -m pytest bench``.  Outputs are written in the program's
formats from the reference values, so these tests need no qsa.
"""

import json
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpf, nstr

import reference
import workloads
from workloads import Mismatch


def pgf_rows(dist):
    return [[k, str(p.numerator), str(p.denominator)] for k, p in dist.items()]


def test_reference_routes_agree():
    for n in range(11):
        assert reference.distribution(n) == reference.convolved_distribution(n)
    means, variances = reference.classical_tables(30)
    for n in (1, 2, 7, 30):
        central = reference.moments(reference.distribution(n), 2)
        assert central[0] == 1
        assert sum(k * p for k, p in reference.distribution(n).items()) == means[n] == reference.mean(n)
        assert central[2] == variances[n] == reference.variance(n)
    with mp.workdps(40):
        c, sd = reference.mean_and_sd(30)
        assert abs(c - mpf(means[30].numerator) / means[30].denominator) < mpf("1e-35")
        assert abs(sd**2 - mpf(variances[30].numerator) / variances[30].denominator) < mpf("1e-33")


def test_fixed_point_limits_match_closed_forms():
    limits = reference.fixed_point_limits(4)
    with mp.workdps(80):
        m2 = 7 - 2 * mp.pi**2 / 3
        m3 = 16 * mp.zeta(3) - 19
        assert abs(limits[3] - m3 / m2 ** mpf(1.5)) < mpf("1e-60")


@pytest.mark.parametrize("n", [5, 12, 20])
def test_distribution_check_rejects_one_changed_coefficient(n):
    dist = reference.distribution(n)
    assert workloads.check_distribution(pgf_rows(dist), n) == dist
    ks = sorted(dist)
    # one numerator changed: the mass is no longer 1
    rows = pgf_rows(dist)
    rows[len(rows) // 2][1] = str(int(rows[len(rows) // 2][1]) + 1)
    with pytest.raises(Mismatch):
        workloads.check_distribution(rows, n)
    # mass moved between two inner points: only n! g_n(2) sees it
    moved = dict(dist)
    eps = Fraction(1, factorial(n))
    moved[ks[1]] += eps
    moved[ks[2]] -= eps
    with pytest.raises(Mismatch, match="recurrence"):
        workloads.check_distribution(pgf_rows(moved), n)


def test_limit_check_rejects_one_changed_digit():
    seed = 3
    work = workloads.closed_forms(seed)
    lo, hi = workloads.LIMIT_ORDERS
    with mp.workdps(90):
        limits = reference.fixed_point_limits(hi)
        lines = [{"r": r, "value": nstr(limits[r], 55), "stable_digits": 40} for r in range(lo, hi + 1)]
    good = "\n".join(json.dumps(d) for d in lines)
    work.check([good, None, None, None])
    text = lines[1]["value"]
    i = text.index(".") + 36  # a digit worth 1e-36
    lines[1]["value"] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    with pytest.raises(Mismatch, match="1e-40"):
        work.check(["\n".join(json.dumps(d) for d in lines), None, None, None])


def test_guess_check_rejects_a_changed_term():
    expr = [
        {"n_pow": 0, "h_pows": [[1, 1]], "coeff": {"num": "2", "den": "1"}},
        {"n_pow": 1, "h_pows": [], "coeff": {"num": "-4", "den": "1"}},
        {"n_pow": 1, "h_pows": [[1, 1]], "coeff": {"num": "2", "den": "1"}},
    ]
    out = {"r": 1, "status": "verified", "degree": 1, "train": "1..9", "test": "10..300", "expr": expr}
    workloads.check_guess_mean(json.dumps(out), 300)
    expr[1]["coeff"]["num"] = "-3"
    with pytest.raises(Mismatch):
        workloads.check_guess_mean(json.dumps(out), 300)


def moments_table_text(nmax, change=None):
    _, variances = reference.classical_tables(nmax)
    rows = []
    for n in range(1, nmax + 1):
        central = reference.moments(reference.convolved_distribution(n), 6) if n <= workloads.SMALL_N else [0] * 7
        for r in range(1, 7):
            value = variances[n] if r == 2 else central[r]
            if (n, r) == change:
                value += Fraction(1, 10**30)
            rows.append(f"{n},{r},{Fraction(value).numerator},{Fraction(value).denominator}")
    return "\n".join(rows)


def test_moments_table_check_rejects_a_changed_row():
    workloads.check_moments_table(moments_table_text(40), 40)
    for change in [(33, 2), (11, 5), (7, 1)]:
        with pytest.raises(Mismatch):
            workloads.check_moments_table(moments_table_text(40, change), 40)


def test_oracle_and_selection_checks_reject_corruption():
    rows = [[k, p.numerator, p.denominator] for k, p in reference.convolved_distribution(workloads.ORACLE_N).items()]
    workloads.check_oracle(rows)
    rows[3][1] += 1
    with pytest.raises(Mismatch):
        workloads.check_oracle(rows)
    counts = [workloads.SELECT_N * (workloads.SELECT_N - 1) // 2] * workloads.SELECT_TRIALS
    workloads.check_selection(counts)
    counts[0] -= 1
    with pytest.raises(Mismatch):
        workloads.check_selection(counts)


def test_tail_check_rejects_a_wrong_exact_tail_and_a_wrong_z():
    work = workloads.large_n_tails(7)
    (n, x) = work.inputs["queries"][-1]
    dist = reference.distribution(n)
    tail = sum(p for k, p in dist.items() if k > x)
    outputs = [None] * (len(work.commands) - 1)

    def payload(prob, z):
        return json.dumps({"n": n, "threshold": x, "surrogate": n, "z": z, "probability": prob, "saturated": False})

    with mp.workdps(60):
        prob = nstr(mpf(tail.numerator) / tail.denominator, 50)
        z = nstr(reference.z_score(n, x), 17)
        wrong_prob = nstr(mpf(tail.numerator) / tail.denominator * (1 + mpf("1e-40")), 50)
    work.check(outputs + [payload(prob, z)])
    with pytest.raises(Mismatch, match="exact tail"):
        work.check(outputs + [payload(wrong_prob, z)])
    with pytest.raises(Mismatch, match="z at"):
        work.check(outputs + [payload(prob, z[:-2] + str((int(z[-2]) + 1) % 10) + z[-1])])
