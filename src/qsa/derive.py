"""Closed forms of the moments, derived from the generating function.

Let Phi(z, t) = sum_n g_n(t) z^n.  The PGF recurrence of :mod:`qsa.pgf` is
the equation dPhi/dz (z, t) = Phi(tz, t)^2 (Hennequin, RAIRO ITA 23, 1989;
the mean case is in Knuth, TAOCP 3, 5.2.2).  Put t = 1 + w.  The w^s part of
Phi(z, 1 + w) is phi_s(z) = sum_n E[C(X_n, s)] z^n, with phi_0 = 1/(1-z);
the w^s part of Phi(tz, t) is psi_s = sum_{i<=s} z^i phi_{s-i}^(i) / i!.  So
phi_s' = sum_j psi_j psi_{s-j}, and since phi_s(0) = 0 for s >= 1,

    (1-z)^2 phi_s = int_0^z (1-u)^2 R_s,
    R_s = 2 (psi_s - phi_s) / (1-z) + sum_{0<j<s} psi_j psi_{s-j},

where R_s involves only lower orders.  Every phi_s is an element of the ring
of rational combinations of (1-z)^k L^j, L = -ln(1-z), held as a dict
{(k, j): Fraction}; the ring is closed under z*, d/dz and int_0^z.

Coefficients: [z^n] (1-z)^-a L^j = C(n+a-1, a-1) B_j(y), with B_j the
complete Bell polynomial and y_m = (-1)^(m-1) (m-1)! (H_m(n+a-1) - H_m(a-1)).
As H_m(n+a-1) = H_m(n) + sum_{0<i<a} (n+i)^-m, y splits into a harmonic
part h_m = (-1)^(m-1) (m-1)! H_m(n) and a rational part e_m, and
B_j(h + e) = sum_k C(j, k) B_k(h) B_{j-k}(e).  Over the integer
lambda = lcm(1..a-1) and D = prod_{0<i<a} (n+i), E_m = e_m (lambda D)^m is
an integer polynomial in n, and B_d(E) = (lambda D)^d B_d(e).  So
[z^n] phi_s = sum_k B_k(h) Q_k(n), where each Q_k, taken over
prod_{i<=s} (n+i)^(s-1) and one integer, has an integer polynomial numerator.
That division must be exact: Q_k is then a polynomial, and the closed form
holds for every n >= 0.  A remainder raises :class:`CrossCheckError`.

Raw moments follow as E[X^r] = sum_j S(r, j) j! E[C(X, j)], central moments
by the binomial sum about the mean.  Each derived form is also checked
against the exact-PGF route (``moments.central_moment``) for n = 1..
``moments.CROSS_CHECK_UPTO``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from types import MappingProxyType
from typing import Mapping

from ._ranges import integer
from .errors import CrossCheckError
from .fitting import HarmonicExpr, Monomial
from .moments import CROSS_CHECK_UPTO, central_moment, raw_moment, stirling2

# -----------------------------------------------------------------------
# The ring: {(k, j): c} stands for sum c (1-z)^k L^j, L = -ln(1-z)
# -----------------------------------------------------------------------


def _add(out: dict, key, value) -> None:
    value += out.get(key, 0)
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def _accumulate(out: dict, a: Mapping, factor) -> None:
    for key, c in a.items():
        _add(out, key, c * factor)


def _mul(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for (k1, j1), c1 in a.items():
        for (k2, j2), c2 in b.items():
            _add(out, (k1 + k2, j1 + j2), c1 * c2)
    return out


def _shift(a: Mapping, dk: int) -> dict:
    """(1-z)^dk * a."""
    return {(k + dk, j): c for (k, j), c in a.items()}


def _times_z(a: Mapping) -> dict:
    """z * a, as z = 1 - (1-z)."""
    out = dict(a)
    for (k, j), c in a.items():
        _add(out, (k + 1, j), -c)
    return out


def _diff(a: Mapping) -> dict:
    """d/dz (1-z)^k L^j = -k (1-z)^(k-1) L^j + j (1-z)^(k-1) L^(j-1)."""
    out: dict = {}
    for (k, j), c in a.items():
        if k:
            _add(out, (k - 1, j), -k * c)
        if j:
            _add(out, (k - 1, j - 1), j * c)
    return out


def _integrate(a: Mapping) -> dict:
    """int_0^z: L^j/(1-u) gives L^(j+1)/(j+1); any other k integrates by parts.

    For k != -1, int (1-u)^k L^j = -(1-u)^(k+1) L^j/(k+1)
    + j/(k+1) int (1-u)^k L^(j-1).  At z = 0 only the L^0 terms are nonzero.
    """
    out: dict = {}
    for (k, j), c in a.items():
        if k == -1:
            _add(out, (0, j + 1), Fraction(c, j + 1))
            continue
        c = Fraction(c)
        for jj in range(j, -1, -1):
            _add(out, (k + 1, jj), -c / (k + 1))
            c = c * jj / (k + 1)
    _add(out, (0, 0), -sum(c for (_, j), c in out.items() if j == 0))
    return out


def moment_gf(s: int) -> Mapping[tuple[int, int], Fraction]:
    """phi_s = sum_n E[C(X_n, s)] z^n as a read-only ring element {(k, j): c}."""
    s = integer(s, "s")  # in front of the cache, where 2.0 would find 2
    if s < 0:
        raise ValueError(f"order must be >= 0, got {s}")
    return MappingProxyType(_phi(s))


@cache
def _phi(s: int) -> dict:
    if s == 0:
        return {(-1, 0): Fraction(1)}
    # (1-u)^2 R_s; the products psi_j psi_{s-j} and psi_{s-j} psi_j are equal
    rhs = {}
    _accumulate(rhs, _shift(_psi_rest(s), 1), 2)
    for j in range(1, s // 2 + 1):
        _accumulate(rhs, _shift(_mul(_psi(j), _psi(s - j)), 2), 1 if 2 * j == s else 2)
    return _shift(_integrate(rhs), -2)


@cache
def _psi_rest(s: int) -> dict:
    """psi_s - phi_s = sum_{0<i<=s} z^i phi_{s-i}^(i) / i!."""
    out: dict = {}
    for i in range(1, s + 1):
        term = _phi(s - i)
        for _ in range(i):
            term = _diff(term)
        for _ in range(i):
            term = _times_z(term)
        _accumulate(out, term, Fraction(1, factorial(i)))
    return out


@cache
def _psi(s: int) -> dict:
    out = dict(_phi(s))
    _accumulate(out, _psi_rest(s), 1)
    return out


# -----------------------------------------------------------------------
# Coefficients.  A form ({h_powers: [c_0, c_1, ...]}, den) stands for
# sum over h_powers of (sum_i c_i n^i) prod H_m(n)^e, over the integer den.
# -----------------------------------------------------------------------


def _pmul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _padd(acc: list, p: list, factor: int) -> None:
    acc.extend([0] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] += factor * c


def _times_linear(p: list, i: int, times: int) -> list:
    """p * (n+i)^times."""
    for _ in range(times):
        p = [i * a + b for a, b in zip([*p, 0], [0, *p])]
    return p


def _divide_linear(p: list, i: int, times: int) -> list:
    """p / (n+i)^times, which must leave no remainder."""
    for _ in range(times):
        q, carry = [], 0
        for c in reversed(p):  # synthetic division at the root -i
            carry = c - i * carry
            q.append(carry)
        if q.pop():
            raise CrossCheckError(f"a coefficient does not divide by n + {i}")
        p = q[::-1]
    return p


def _hmul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for m, e in b:
        exps[m] = exps.get(m, 0) + e
    return tuple(sorted(exps.items()))


@cache
def _bell_harmonic(k: int) -> dict:
    """B_k(h), h_m = (-1)^(m-1) (m-1)! H_m(n), as {h_powers: int}."""
    if k == 0:
        return {(): 1}
    out: dict = {}
    for t in range(k):  # B_k = sum_t C(k-1, t) B_(k-1-t) h_(t+1)
        weight = comb(k - 1, t) * (-1) ** t * factorial(t)
        for key, c in _bell_harmonic(k - 1 - t).items():
            _add(out, _hmul(key, ((t + 1, 1),)), weight * c)
    return out


@cache
def _rational_part(a: int, m: int) -> list:
    """E_m = e_m (lambda D)^m for [z^n] (1-z)^-a L^j, an integer polynomial in n."""
    lam = lcm(*range(1, a))
    total = [0]
    for i in range(1, a):  # lambda^m (D / (n+i))^m
        cofactor = [1]
        for i2 in range(1, a):
            if i2 != i:
                cofactor = _times_linear(cofactor, i2, m)
        _padd(total, cofactor, lam**m)
    d_m = [1]
    for i in range(1, a):
        d_m = _times_linear(d_m, i, m)
    _padd(total, d_m, -sum((lam // i) ** m for i in range(1, a)))
    return [(-1) ** (m - 1) * factorial(m - 1) * c for c in total]


@cache
def _bell_rational(a: int, d: int) -> list:
    """B_d(E) for the rational part of (1-z)^-a L^j."""
    if d == 0:
        return [1]
    out = [0]
    for t in range(d):
        _padd(out, _pmul(_bell_rational(a, d - 1 - t), _rational_part(a, t + 1)),
              comb(d - 1, t))
    return out


@cache
def _factorial_form(s: int) -> tuple[dict, int]:
    """[z^n] phi_s = E[C(X_n, s)] as a form."""
    phi = moment_gf(s)
    if any(not -s - 1 <= k < 0 or j > s for k, j in phi):
        raise CrossCheckError(f"phi_{s} has a term (1-z)^k L^j outside -{s + 1} <= k < 0, j <= {s}")
    # [z^n] c (1-z)^-a L^j = sum_k B_k(h) c C(j, k) / ((a-1)! lambda^d) B_d(E) D^(1-d),
    # d = j - k; times prod_{i<=s} (n+i)^top, each D^(1-d) is a polynomial
    top = max(s - 1, 0)
    parts: dict = {}  # k -> [(scalar, a, d)]
    for (minus_a, j), c in phi.items():
        a = -minus_a
        lam = lcm(*range(1, a))
        for k in range(j + 1):
            scalar = c * comb(j, k) / (factorial(a - 1) * lam ** (j - k))
            parts.setdefault(k, []).append((scalar, a, j - k))
    den = lcm(*(scalar.denominator for items in parts.values() for scalar, _, _ in items))
    terms, lifted = {}, {}  # lifted[a, d]: B_d(E) D^(1-d) prod_{i<=s} (n+i)^top
    for k, items in parts.items():
        num = [0]
        for scalar, a, d in items:
            if (a, d) not in lifted:
                poly = _bell_rational(a, d)
                for i in range(1, s + 1):
                    poly = _times_linear(poly, i, top + (1 - d if i < a else 0))
                lifted[a, d] = poly
            _padd(num, lifted[a, d], int(scalar * den))
        for i in range(1, s + 1):
            num = _divide_linear(num, i, top)
        for key, c in _bell_harmonic(k).items():
            terms[key] = [c * x for x in num]
    return terms, den


def _form_mul(f: tuple[dict, int], g: tuple[dict, int]) -> tuple[dict, int]:
    terms: dict = {}
    for ka, pa in f[0].items():
        for kb, pb in g[0].items():
            key = _hmul(ka, kb)
            acc = terms.setdefault(key, [0])
            _padd(acc, _pmul(pa, pb), 1)
    return terms, f[1] * g[1]


def _form_sum(parts) -> tuple[dict, int]:
    """sum of c * form over the (int c, form) pairs ``parts``."""
    parts = [(c, f) for c, f in parts if c]
    den = lcm(*(f[1] for _, f in parts))
    terms: dict = {}
    for c, (f_terms, f_den) in parts:
        for key, poly in f_terms.items():
            _padd(terms.setdefault(key, [0]), poly, c * (den // f_den))
    return terms, den


@cache
def _raw_form(r: int) -> tuple[dict, int]:
    """E[X_n^r] = sum_j S(r, j) j! E[C(X_n, j)]."""
    return _form_sum(
        (stirling2(r, j) * factorial(j), _factorial_form(j)) for j in range(r + 1)
    )


def derived_moment(r: int) -> HarmonicExpr:
    """The closed form of the mean (r = 1) or the r-th central moment (r >= 2).

    Derived from the generating function (see the module docstring), so it
    holds for every n >= 0; before it is returned it is also checked against
    the exact-PGF moments for n = 1..``CROSS_CHECK_UPTO``.  A disagreement
    raises :class:`CrossCheckError`.
    """
    r = integer(r, "r")  # in front of the cache, where 2.0 would find 2
    if r < 1:
        raise ValueError(f"moment order must be >= 1, got {r}")
    return _derived_moment(r)


@cache
def _derived_moment(r: int) -> HarmonicExpr:
    if r == 1:
        form = _raw_form(1)
    else:  # sum_k C(r, k) E[X^k] (-mean)^(r-k)
        minus_mean = _form_sum([(-1, _raw_form(1))])
        powers = [({(): [1]}, 1)]
        for _ in range(r):
            powers.append(_form_mul(powers[-1], minus_mean))
        form = _form_sum(
            (comb(r, k), _form_mul(_raw_form(k), powers[r - k])) for k in range(r + 1)
        )
    terms, den = form
    expr = HarmonicExpr({
        Monomial(i, key): Fraction(c, den)
        for key, poly in terms.items() for i, c in enumerate(poly) if c
    })
    for n in range(1, CROSS_CHECK_UPTO + 1):
        exact = raw_moment(n, 1) if r == 1 else central_moment(n, r)
        if expr.evaluate(n) != exact:
            raise CrossCheckError(
                f"derived moment of order {r} and the exact-PGF route disagree at n={n}"
            )
    return expr
