"""Raw, central, and factorial moments of the comparison count.

Two routes are implemented:

* the exact PGF route, ``E[X_n^r] = sum_k k^r Pr(X_n = k)`` summed directly
  over the coefficient table (equivalent to applying (t d/dt)^r at t = 1);
* the truncated-series route: writing t = 1 + w, ``g_n(1+w)`` has the
  factorial moments as Taylor coefficients, ``g_n(1+w) = sum_r f_r(n)/r! w^r``,
  and the recurrence survives truncation to the first M+1 coefficients,

      g_n(1+w) = (1+w)^(n-1)/n * sum_k g_{k-1}(1+w) g_{n-k}(1+w),

  which is far cheaper than full PGFs when only low moments are wanted.

As in the PGF builder, the series recurrence is scaled by n! so every
stored coefficient G_n[s] = n! [w^s] g_n(1+w) is a non-negative integer.
Truncation is harmless for the retained orders: the first M+1 coefficients
of a truncated product equal those of the full product.  So the one shared
table keeps only the orders asked of it so far: a moment table of order r
raises it to order r, which computes just the new coefficients of the rows
it reads.  Row n's pivot sum at order s is
``sum_k C(n-1,k-1) sum_j G_{k-1}[j] G_{n-k}[s-j]``.  For s >= 1 its j = 0
and j = s terms each equal P_n[s] = sum_m (n-1)!/m! G_m[s], as
C(n-1,k-1) (k-1)! = (n-1)!/(n-k)!; P_n = (n-1) P_{n-1} + G_{n-1} is carried
along the ascending walk over n, with the Pascal row C(n-1, .).  The terms j
and s - j are equal, each one dot product over the pivots of C(n-1, .) times
column j with column s - j reversed (the table is stored by column); at
s = 0, column 0 with itself, so the n! check reads every stored row.

Whenever both routes exist the exact-PGF route is authoritative; bulk
tables built from the series route cross-check their first few entries
against it on construction (and the test suite enforces much deeper
agreement).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add, mul

from ._intops import big, big_gcd
from .errors import CrossCheckError
from .pgf import scaled_pgf

DEFAULT_ORDER = 10

#: moment_table checks its entries through this n against the exact PGF.
CROSS_CHECK_UPTO = 12


@dataclass(frozen=True)
class TruncatedSeries:
    """First ``order``+1 coefficients of g_n(1+w): coeffs[r] = f_r(n)/r!."""

    n: int
    order: int
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class MomentTable:
    """Moment values of one order over a range of list lengths."""

    order: int
    kind: str  # "raw" | "central"
    values: dict[int, Fraction]


class SeriesCache:
    """Bottom-up table of truncated expansions of g_n around t = 1.

    ``row(n)`` hands out G_n[0..order] as an immutable tuple; the table is
    stored once, by column.  ``raise_order`` raises the truncation order,
    and ``ensure(n)`` brings rows 0..n up to it, appending the coefficients
    a stored row lacks and building the rows not yet there.  Rows above n
    keep their order until they are asked for.  Truncation is exact, so each
    coefficient is computed once, whichever order the table was grown in.
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 0:
            raise ValueError("order must be >= 0")
        # per order s (see raise_order): G_n[s] for n = 0, 1, ..., no longer
        # than column s - 1; its pre-binomial pivot sums; P_n[s] of its last n
        self._cols, self._accs, self._p = [], [], []
        self.order = -1
        self._binom = [big(1)]  # C(n-1, .) of the row built last
        self._lock = threading.RLock()
        self.raise_order(order)

    def _extend(self, n: int, lo: int, hi: int) -> None:
        """Compute coefficients lo..hi of row n from the rows below it.

        Row n holds the orders below lo, rows below n hold orders through
        hi, and the walk of ``ensure`` built row n-1 last.
        """
        cols, accs, orders = self._cols, self._accs, range(lo, hi + 1)
        p = [(n - 1) * self._p[s] + cols[s][n - 1] if n and s else 0 for s in orders]
        if n <= 1:
            binom = [big(1)]
            new = acc = [big(int(s == 0)) for s in orders]
        else:
            binom = [big(1), *map(add, self._binom, self._binom[1:]), big(1)]
            cross = dict.fromkeys(orders, 0)
            for j in range(min(lo, 1), hi // 2 + 1):  # j = 0 only for order 0
                # shared by every s; order 0 reads only the first half
                weighted = list(map(mul, binom, cols[j][: n if j else n // 2 + 1]))
                for s in orders:
                    if 0 < j < s - j:  # the terms j and s - j give the same sum
                        rev = cols[s - j][n - 1 :: -1]
                        cross[s] += 2 * sum(map(mul, weighted, rev))
                    elif j == s - j:  # pivots m and n-1-m give the same product
                        col, h = cols[j], n // 2
                        rev = col[n - 1 : n - 1 - h : -1]
                        cross[s] += 2 * sum(map(mul, weighted[:h], rev))
                        cross[s] += weighted[h] * col[h] if n % 2 else 0
            acc = [2 * p_s + cross[s] for s, p_s in zip(orders, p)]
            full = [accs[i][n] for i in range(lo)] + acc
            bt = binom[: hi + 1] + [big(0)] * (hi + 1 - n)
            new = [sum(map(mul, full[: s + 1], bt[s::-1])) for s in orders]
            if lo == 0 and new[0] != factorial(n):  # n! * g_n(1)
                raise CrossCheckError(f"series row at n={n} does not total n!")
        for s, value, a, p_s in zip(orders, new, acc, p):
            cols[s].append(value)
            accs[s].append(a)
            self._p[s] = p_s
        self._binom = binom

    def ensure(self, n: int) -> None:
        """Bring rows 0..n to the current order, in ascending n."""
        with self._lock:
            # rows below the length of the top column hold every order
            for m in range(len(self._cols[self.order]), n + 1):
                lo = sum(len(col) > m for col in self._cols)
                self._extend(m, lo, self.order)

    def raise_order(self, order: int) -> None:
        """Raise the order to at least ``order``; ``ensure`` fills rows in."""
        with self._lock:
            for _ in range(self.order, order):
                self._cols.append([])
                self._accs.append([])
                self._p.append(0)
            self.order = max(self.order, order)

    def row(self, n: int) -> tuple:
        if n < 0:
            raise ValueError("n must be non-negative")
        with self._lock:
            self.ensure(n)
            return tuple(col[n] for col in self._cols)


_shared_series = SeriesCache(order=0)


def series_cache(order: int = DEFAULT_ORDER) -> SeriesCache:
    """The process's one shared table, raised to at least ``order``.

    Every order is served by the same object; the table holds only the
    orders asked of it so far.
    """
    _shared_series.raise_order(order)
    return _shared_series


def factorial_series(n_max: int, order: int = DEFAULT_ORDER) -> list[TruncatedSeries]:
    """Truncated expansions of g_n(1+w) for n = 0..n_max."""
    cache = series_cache(order)
    out = []
    for n in range(n_max + 1):
        nf = factorial(n)
        coeffs = tuple(Fraction(int(c), nf) for c in cache.row(n)[: order + 1])
        out.append(TruncatedSeries(n=n, order=order, coeffs=coeffs))
    return out


@cache
def stirling2(r: int, j: int) -> int:
    """Stirling number of the second kind S(r, j)."""
    if r < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    if r == j:
        return 1
    if j == 0 or j > r:
        return 0
    return j * stirling2(r - 1, j) + stirling2(r - 1, j - 1)


def moments_from_factorial(series: TruncatedSeries, r: int) -> Fraction:
    """Raw moment E[X_n^r] from factorial moments (Stirling transform).

    ``f_j = j! * coeffs[j]`` and ``E[X^r] = sum_j S(r, j) f_j``.
    """
    if r < 0:
        raise ValueError("moment order must be non-negative")
    if r > series.order:
        raise ValueError(
            f"moment order {r} exceeds series truncation order {series.order}"
        )
    return Fraction(_stirling_transform(series.coeffs, r))


def _stirling_transform(coeffs, r: int):
    # sum_j S(r, j) * j! * coeffs[j]: exact over Fractions and over the
    # n!-scaled integer rows alike
    return sum(stirling2(r, j) * factorial(j) * coeffs[j] for j in range(r + 1))


# -----------------------------------------------------------------------
# Exact route (authoritative)
# -----------------------------------------------------------------------

@cache
def raw_moment(n: int, r: int, /) -> Fraction:
    """Exact E[X_n^r] by direct summation over the PGF coefficients."""
    if n < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    offset, coeffs = scaled_pgf(n)
    total = sum(c * (offset + i) ** r for i, c in enumerate(coeffs))
    return Fraction(total, factorial(n))


def central_moment(n: int, r: int) -> Fraction:
    """Exact E[(X_n - c_n)^r] via the binomial expansion over raw moments."""
    if r < 1:
        raise ValueError("central moment order must be >= 1")
    mean = raw_moment(n, 1)
    return sum(
        (
            comb(r, j) * raw_moment(n, j) * (-mean) ** (r - j)
            for j in range(r + 1)
        ),
        Fraction(0),
    )


# -----------------------------------------------------------------------
# Bulk tables (series route, cross-checked)
# -----------------------------------------------------------------------


def _moment_values(r: int, kind: str, ns: range) -> dict[int, Fraction]:
    """Moments of order r and ``kind`` at every n in ``ns``, from the shared table."""
    cache = series_cache(r)
    values: dict[int, Fraction] = {}
    for n in ns:
        row, nf = cache.row(n), factorial(n)
        if kind == "raw":
            num, den = int(_stirling_transform(row, r)), nf
        else:
            raws = [int(_stirling_transform(row, j)) for j in range(r + 1)]
            # with the mean reduced to a/b, the sum is over nf * b^r, not nf^(r+1)
            g = big_gcd(raws[1], nf)
            a, b = raws[1] // g, nf // g
            num = sum(
                comb(r, j) * (-a) ** (r - j) * raws[j] * b**j for j in range(r + 1)
            )
            den = nf * b**r
        g = big_gcd(num, den)
        values[n] = Fraction(num // g, den // g)
    return values


def moment_table(n_max: int, r: int, kind: str = "central") -> MomentTable:
    """Moments of order r for every n = 0..n_max, via the series route.

    ``kind`` selects raw moments E[X_n^r] or central moments about the
    mean.  The entries through n = :data:`CROSS_CHECK_UPTO` are verified
    against the exact-PGF route; disagreement raises :class:`CrossCheckError`
    (it would mean one of the two recurrence implementations is wrong).

    The shared series table is raised to order r if it is lower, and rows
    0..n_max are brought to its order, so every r >= 0 is served.
    """
    if kind not in ("raw", "central"):
        raise ValueError(f"unknown moment kind {kind!r}")
    if r < 0 or (kind == "central" and r < 1):
        raise ValueError("invalid moment order")
    values = _moment_values(r, kind, range(n_max + 1))
    table = MomentTable(order=r, kind=kind, values=values)
    limit = min(CROSS_CHECK_UPTO, n_max)
    exact = raw_moment if kind == "raw" else central_moment
    for n in range(1 if kind == "central" else 0, limit + 1):
        if table.values[n] != exact(n, r):
            raise CrossCheckError(
                f"series and exact-PGF moments disagree at n={n}, r={r}"
            )
    return table
