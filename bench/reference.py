"""Reference values for the benchmark's output checks, computed apart from qsa.

Nothing here imports ``qsa``.  Every value comes from a classical closed
form, from a recurrence written out afresh, or from Rösler's fixed-point
equation, so a fault in the program cannot hide in the check that judges it.

* ``scaled_pgf_at``: the scalar recurrence for G_n(t) = n! g_n(t),
  G_n(t) = t^(n-1) sum_k C(n-1, k-1) G_{k-1}(t) G_{n-k}(t), in exact integers.
  At t = 2 one number checks every coefficient of a printed distribution at
  once; at t = 2^w with 2^w > n! the integer G_n(2^w) holds every
  coefficient in its own w-bit digit (``distribution``).
* ``convolved_distribution``: the small-n distribution by plain convolution
  of Fraction tables, the recurrence's definition taken literally.
* ``mean``/``variance``: 2(n+1)H_n - 4n and
  7n^2 + 13n - 2(n+1)H_n - 4(n+1)^2 H^(2)_n, exactly for moderate n and
  through mpmath's digamma functions for large n.
* ``min_comparisons``: the bottom of the support, by its own recurrence.
* ``fixed_point_limits``: lim m_r(n)/m_2(n)^(r/2) from the moment recursion
  of Y =d U Y' + (1-U) Y'' + C(U) (Rösler 1991; Hennequin 1991).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from mpmath import mp, mpf


def scaled_pgf_at(t: int, n: int) -> list[int]:
    """G_0(t), ..., G_n(t) for G_k = k! g_k, by the scalar recurrence."""
    g = [1, 1]
    for m in range(2, n + 1):
        s = sum(comb(m - 1, k - 1) * g[k - 1] * g[m - k] for k in range(1, m + 1))
        g.append(t ** (m - 1) * s)
    return g[: n + 1]


@lru_cache(maxsize=None)
def distribution(n: int) -> dict[int, Fraction]:
    """Exact Pr(X_n = k) for every k with non-zero mass, read off G_n(2^w)."""
    nf = factorial(n)
    slot = nf.bit_length() // 8 + 1  # bytes per digit; every coefficient is at most n!
    packed = scaled_pgf_at(1 << (8 * slot), n)[n]
    raw = packed.to_bytes((packed.bit_length() + 7) // 8 + slot, "little")
    digits = (int.from_bytes(raw[i : i + slot], "little") for i in range(0, len(raw), slot))
    return {k: Fraction(c, nf) for k, c in enumerate(digits) if c}


@lru_cache(maxsize=None)
def convolved_distribution(n: int) -> dict[int, Fraction]:
    """Exact Pr(X_n = k) by plain convolution; meant for n up to about 14."""
    if n <= 1:
        return {0: Fraction(1)}
    out: dict[int, Fraction] = {}
    for k in range(1, n + 1):
        for a, pa in convolved_distribution(k - 1).items():
            for b, pb in convolved_distribution(n - k).items():
                key = a + b + n - 1
                out[key] = out.get(key, Fraction(0)) + pa * pb / n
    return dict(sorted(out.items()))


def min_comparisons(n: int) -> int:
    """Fewest comparisons quicksort can make on n keys: m(n) = n-1 + min_k m(k-1) + m(n-k)."""
    m = [0, 0]
    for size in range(2, n + 1):
        m.append(size - 1 + min(m[k - 1] + m[size - k] for k in range(1, size + 1)))
    return m[n]


def classical_tables(nmax: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact mean and variance for n = 0..nmax from running harmonic sums."""
    h1 = h2 = Fraction(0)
    means, variances = [Fraction(0)], [Fraction(0)]
    for n in range(1, nmax + 1):
        h1 += Fraction(1, n)
        h2 += Fraction(1, n * n)
        means.append(2 * (n + 1) * h1 - 4 * n)
        variances.append(7 * n * n + 13 * n - 2 * (n + 1) * h1 - 4 * (n + 1) ** 2 * h2)
    return means, variances


def mean(n: int) -> Fraction:
    return classical_tables(n)[0][n]


def variance(n: int) -> Fraction:
    return classical_tables(n)[1][n]


def mean_and_sd(n: int, dps: int = 40) -> tuple[mpf, mpf]:
    """c_n and sqrt(m_2(n)) with H_n = psi(n+1) + gamma, H^(2)_n = zeta(2) - psi'(n+1)."""
    with mp.workdps(dps):
        h1 = mp.harmonic(n)
        h2 = mp.zeta(2) - mp.psi(1, n + 1)
        c = 2 * (n + 1) * h1 - 4 * n
        v = 7 * mpf(n) ** 2 + 13 * n - 2 * (n + 1) * h1 - 4 * mpf(n + 1) ** 2 * h2
        return c, mp.sqrt(v)


def z_score(n: int, x, dps: int = 40) -> mpf:
    """(x - c_n)/sqrt(m_2(n))."""
    with mp.workdps(dps):
        c, sd = mean_and_sd(n, dps)
        return (mpf(x) - c) / sd


def moments(dist: dict[int, Fraction], rmax: int) -> list[Fraction]:
    """Central moments E[(X - EX)^r] for r = 0..rmax; entry 0 is the mass."""
    mu = sum((k * p for k, p in dist.items()), Fraction(0))
    return [sum(((k - mu) ** r * p for k, p in dist.items()), Fraction(0)) for r in range(rmax + 1)]


def fixed_point_limits(rmax: int, dps: int = 80) -> dict[int, mpf]:
    """Scaled limits E[Y^r]/E[Y^2]^(r/2), r = 3..rmax, Y the limit of (X_n - c_n)/n.

    Y =d U Y' + (1 - U) Y'' + C(U) with C(u) = 1 + 2u ln u + 2(1-u) ln(1-u).
    Raising both sides to the r-th power and conditioning on U = u gives
    E[Y^r] = sum_{a+b+c=r} r!/(a! b! c!) E[Y^a] E[Y^b] int_0^1 u^a (1-u)^b C(u)^c du;
    the terms a = r and b = r carry 2 E[Y^r]/(r+1), and moving them left
    leaves E[Y^r] in terms of lower moments, from E[Y^0] = 1, E[Y^1] = 0.
    """
    with mp.workdps(dps + 10):

        def toll(u):
            return 1 + 2 * u * mp.log(u) + 2 * (1 - u) * mp.log(1 - u)

        mu = [mpf(1), mpf(0)]
        for r in range(2, rmax + 1):
            terms = [
                (comb(r, a) * comb(r - a, b) * mu[a] * mu[b], a, b, r - a - b)
                for a in range(r)
                for b in range(r - a + 1)
                if b < r and mu[a] * mu[b] != 0
            ]

            def integrand(u, terms=terms):
                cu = toll(u)
                return mp.fsum(wt * u**a * (1 - u) ** b * cu**c for wt, a, b, c in terms)

            mu.append(mpf(r + 1) / (r - 1) * mp.quad(integrand, [0, 1]))
        return {r: mu[r] / mu[2] ** (mpf(r) / 2) for r in range(3, rmax + 1)}
