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
``A_n[s] = sum_k C(n-1,k-1) sum_j G_{k-1}[j] G_{n-k}[s-j]``, and
``G_n[s] = sum_t C(n-1,s-t) A_n[t]``.  For s >= 1 the j = 0 and j = s terms
each equal P_n[s] = sum_m (n-1)!/m! G_m[s], as C(n-1,k-1) (k-1)! =
(n-1)!/(n-k)!; P_n = (n-1) P_{n-1} + G_{n-1} is carried along the ascending
walk over n.  The other terms read only the columns below s, so the table
is built by column: the term j of row n is (n-1)! [z^(n-1)] of
e_j(z) e_{s-j}(z), where e_j(z) = sum_m G_m[j]/m! z^m is column j's
exponential generating function, and equals the term s - j.  With
each column's coefficients taken over their common denominator D_j, one
convolution serves every row, and the division by D_j D_{s-j} must be exact.
The convolution is one Kronecker product of two decimal numbers, each
holding a column in fixed-width slots: CPython's decimal module (libmpdec)
multiplies large operands by number-theoretic transform, its int by
Karatsuba.  Column 0 is n! in every row; its pivot sums come from the stored
column 0 through the same product and must equal n!, so a corrupted stored
value fails that check.

Whenever both routes exist the exact-PGF route is authoritative; bulk
tables built from the series route cross-check their first few entries
against it on construction (and the test suite enforces much deeper
agreement).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Inexact, InvalidOperation, Rounded
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from operator import add

from ._intops import big_gcd
from ._ranges import integer
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


# The context of every decimal product (see the module docstring): a result
# that would round raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """c[k] = sum_{i+j=k} a[i] b[j] for k < len(a), for equally long lists of ints >= 0.

    One Kronecker product: each list is packed into one decimal number with
    one fixed-width slot per entry, wide enough that no c[k] carries.  The
    sums past len(a) are those of a truncated series, so none is read.
    Numbers past the int-to-str digit limit convert through Decimal.
    """
    bits = max(a).bit_length() + max(b).bit_length() + len(a).bit_length()
    width = bits * 30103 // 100000 + 1  # 10^width > 2^bits
    limit = sys.get_int_max_str_digits() or bits
    to_str = str if bits <= 3 * limit else lambda x: str(_EXACT.create_decimal(x))
    to_int = int if width <= limit else lambda t: int(_EXACT.create_decimal(t))

    def pack(xs):
        return _EXACT.create_decimal("".join([to_str(x).zfill(width) for x in reversed(xs)]))

    packed = pack(a)
    size = (2 * len(a) - 1) * width
    digits = str(_EXACT.multiply(packed, packed if b is a else pack(b))).zfill(size)
    return [to_int(digits[i - width : i]) for i in range(size, size - len(a) * width, -width)]


class SeriesCache:
    """Bottom-up table of truncated expansions of g_n around t = 1.

    ``row(n)`` hands out G_n[0..order] as an immutable tuple; the table is
    stored once, by column.  ``raise_order`` raises the truncation order,
    and ``ensure(n)`` brings rows 0..n up to it one column at a time: column
    s of every new row at once, from one product per pair of lower columns
    (see the module docstring).  Rows above n keep their order until they
    are asked for.  Truncation is exact, so each coefficient is computed
    once, whichever order the table was grown in; but each ``ensure`` that
    adds rows recomputes its products over all rows, so callers ask once
    for the largest n they will read.  One table may be used from several
    threads: a lock serialises its growth.
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        # per order s (see raise_order): G_n[s] for n = 0, 1, ..., no longer
        # than column s - 1; its pre-binomial pivot sums; P_n[s] of its last n
        self._cols, self._accs, self._p = [], [], []
        self.order = -1
        self._fact = [1]  # m! for every row m built so far
        self._lock = threading.RLock()
        self.raise_order(order)

    def _egf(self, j: int, n: int) -> tuple[list[int], int]:
        """Column j's values G_m[j] / m! for m < n, as numerators over their lcm D_j."""
        col, fact = self._cols[j][:n], self._fact
        d = lcm(*(f // gcd(v, f) for v, f in zip(col, fact)))
        return [v * d // f for v, f in zip(col, fact)], d

    def _pivot_sums(self, egf: dict, j: int, k: int, n: int, lo: int) -> list[int]:
        """sum_i C(m-1, i) G_i[j] G_{m-1-i}[k] for every row m in lo..n, lo >= 1.

        That is (m-1)! [z^(m-1)] of the product of the two columns' EGFs,
        read off one convolution of their numerators over D_j and D_k.
        """
        for c in (j, k):
            if c not in egf:
                egf[c] = self._egf(c, n)
        (a, da), (b, db) = egf[j], egf[k]
        conv, den = _convolve(a, b), da * db
        sums = []
        for m in range(lo, n + 1):
            q, rem = divmod(self._fact[m - 1] * conv[m - 1], den)
            if rem:
                raise CrossCheckError(
                    f"series columns {j} and {k} give a fractional pivot sum at n={m}"
                )
            sums.append(q)
        return sums

    def _extend(self, s: int, n: int, egf: dict) -> None:
        """Column s for rows len(column s)..n; the columns below s reach n.

        ``egf`` memoises the columns' EGFs over rows 0..n-1 for one ``ensure``.
        """
        col, acc, fact = self._cols[s], self._accs[s], self._fact
        lo = len(col)
        if s == 0:  # n! * g_n(1) = n!, checked against every stored row
            col += fact[lo : n + 1]
            acc += fact[lo : n + 1]
            lo = max(lo, 1)
            if lo <= n:
                sums = self._pivot_sums(egf, 0, 0, n, lo)
                for m, total in zip(range(lo, n + 1), sums):
                    if total != fact[m]:
                        raise CrossCheckError(f"series row at n={m} does not total n!")
            return
        if lo == 0:  # g_0 = 1
            col.append(0)
            acc.append(0)
            lo = 1
        if lo > n:
            return
        cross = [0] * (n + 1 - lo)  # the pivot-sum terms 0 < j < s of each row
        for j in range(1, s // 2 + 1):
            weight = 1 if 2 * j == s else 2  # the terms j and s - j give the same sum
            for i, term in enumerate(self._pivot_sums(egf, j, s - j, n, lo)):
                cross[i] += weight * term
        accs, p = self._accs, self._p[s]
        binom = [comb(lo - 1, i) for i in range(s + 1)]  # C(m-1, .), carried
        for m, c in zip(range(lo, n + 1), cross):
            if m > lo:
                binom = [1, *map(add, binom[1:], binom)]
            p = (m - 1) * p + col[m - 1]  # P_m[s], the terms j = 0 and j = s
            acc.append(2 * p + c)
            col.append(sum(binom[s - t] * accs[t][m] for t in range(s + 1)))
        self._p[s] = p

    def ensure(self, n: int) -> None:
        """Bring rows 0..n to the current order, one column after another."""
        n = integer(n, "n", 0)
        with self._lock:
            # rows below the length of the top column hold every order
            if len(self._cols[self.order]) > n:
                return
            fact = self._fact
            for m in range(len(fact), n + 1):
                fact.append(fact[-1] * m)
            egf: dict = {}
            for s in range(self.order + 1):
                if len(self._cols[s]) <= n:
                    self._extend(s, n, egf)

    def raise_order(self, order: int) -> None:
        """Raise the order to at least ``order``; ``ensure`` fills rows in."""
        order = integer(order, "order", 0)
        with self._lock:
            for _ in range(self.order, order):
                self._cols.append([])
                self._accs.append([])
                self._p.append(0)
            self.order = max(self.order, order)

    def row(self, n: int) -> tuple:
        n = integer(n, "n", 0)
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
    n_max, order = integer(n_max, "n_max", 0), integer(order, "order", 0)
    cache = series_cache(order)
    cache.ensure(n_max)  # one build for every row
    out = []
    for n in range(n_max + 1):
        nf = factorial(n)
        coeffs = tuple(Fraction(int(c), nf) for c in cache.row(n)[: order + 1])
        out.append(TruncatedSeries(n=n, order=order, coeffs=coeffs))
    return out


def stirling2(r: int, j: int) -> int:
    """Stirling number of the second kind S(r, j)."""
    # checked in front of the cache, where (3, 1.0) would find the entry of (3, 1)
    return _stirling2(integer(r, "r", 0), integer(j, "j", 0))


@cache
def _stirling2(r: int, j: int) -> int:
    if r == j:
        return 1
    if j == 0 or j > r:
        return 0
    return j * _stirling2(r - 1, j) + _stirling2(r - 1, j - 1)


def moments_from_factorial(series: TruncatedSeries, r: int) -> Fraction:
    """Raw moment E[X_n^r] from factorial moments (Stirling transform).

    ``f_j = j! * coeffs[j]`` and ``E[X^r] = sum_j S(r, j) f_j``.
    """
    r = integer(r, "r", 0, series.order)  # the series holds orders 0..series.order
    return Fraction(_stirling_transform(series.coeffs, r))


def _stirling_transform(coeffs, r: int):
    # sum_j S(r, j) * j! * coeffs[j]: exact over Fractions and over the
    # n!-scaled integer rows alike
    return sum(_stirling2(r, j) * factorial(j) * coeffs[j] for j in range(r + 1))


# -----------------------------------------------------------------------
# Exact route (authoritative)
# -----------------------------------------------------------------------

def raw_moment(n: int, r: int, /) -> Fraction:
    """Exact E[X_n^r] by direct summation over the PGF coefficients."""
    # checked in front of the cache, where 5.0 would find the entry of 5
    return _raw_moment(integer(n, "n", 0), integer(r, "r", 0))


@cache
def _raw_moment(n: int, r: int, /) -> Fraction:
    offset, coeffs = scaled_pgf(n)
    total = sum(c * (offset + i) ** r for i, c in enumerate(coeffs))
    return Fraction(total, factorial(n))


def central_moment(n: int, r: int) -> Fraction:
    """Exact E[(X_n - c_n)^r] via the binomial expansion over raw moments."""
    n, r = integer(n, "n", 0), integer(r, "r", 1)
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
    n_max, r = integer(n_max, "n_max", 0), integer(r, "r", 1 if kind == "central" else 0)
    cache = series_cache(r)
    cache.ensure(n_max)  # one build for every row
    values: dict[int, Fraction] = {}
    for n in range(n_max + 1):
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
    limit = min(CROSS_CHECK_UPTO, n_max)
    exact = raw_moment if kind == "raw" else central_moment
    for n in range(1 if kind == "central" else 0, limit + 1):
        if values[n] != exact(n, r):
            raise CrossCheckError(
                f"series and exact-PGF moments disagree at n={n}, r={r}"
            )
    return MomentTable(order=r, kind=kind, values=values)
