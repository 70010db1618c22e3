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
stored coefficient is a non-negative integer.  Truncation is harmless for
the retained orders: the first M+1 coefficients of a truncated product
equal those of the full product.

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

from ._intops import big, big_gcd
from .errors import CrossCheckError
from .pgf import scaled_pgf

DEFAULT_ORDER = 10


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

    Rows hold the integer vectors n! * [w^r] g_n(1+w) for r = 0..order, as
    immutable tuples.
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self._rows: list[tuple] = []
        self._lock = threading.RLock()

    def _mul_add(self, acc: list, a, b, weight: int = 1) -> list:
        """acc += weight * a * b over the kept orders 0..order; returns acc."""
        M = self.order
        for i in range(M + 1):
            ai = a[i]
            if not ai:
                continue
            wai = weight * ai if weight != 1 else ai
            for j in range(M + 1 - i):
                acc[i + j] += wai * b[j]
        return acc

    def _build_next(self) -> None:
        n = len(self._rows)
        M = self.order
        if n <= 1:
            self._rows.append((big(1),) + (big(0),) * M)
            return
        rows = self._rows
        acc = [big(0)] * (M + 1)
        # pivots k and n+1-k give the same product; the middle one of an
        # odd n stands alone
        for k in range(1, (n + 1) // 2 + 1):
            w = comb(n - 1, k - 1) * (1 if 2 * k == n + 1 else 2)
            self._mul_add(acc, rows[k - 1], rows[n - k], w)
        binom_row = [big(comb(n - 1, j)) for j in range(M + 1)]
        row = self._mul_add([big(0)] * (M + 1), acc, binom_row)
        if row[0] != factorial(n):  # n! * g_n(1)
            raise CrossCheckError(f"series row at n={n} does not total n!")
        self._rows.append(tuple(row))

    def ensure(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                self._build_next()

    def row(self, n: int) -> tuple:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.ensure(n)
        return self._rows[n]

    def series(self, n: int) -> TruncatedSeries:
        row = self.row(n)
        nf = factorial(n)
        return TruncatedSeries(
            n=n,
            order=self.order,
            coeffs=tuple(Fraction(int(c), nf) for c in row),
        )


_shared_series_caches = cache(SeriesCache)


def series_cache(order: int = DEFAULT_ORDER) -> SeriesCache:
    """The shared table of one truncation order; ``series_cache()`` and
    ``series_cache(10)`` are the same object."""
    return _shared_series_caches(order)


def factorial_series(n_max: int, order: int = DEFAULT_ORDER) -> list[TruncatedSeries]:
    """Truncated expansions of g_n(1+w) for n = 0..n_max."""
    cache = series_cache(order)
    cache.ensure(n_max)
    return [cache.series(n) for n in range(n_max + 1)]


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


def moment_table(
    n_max: int,
    r: int,
    kind: str = "central",
    order: int | None = None,
    cross_check_upto: int = 12,
) -> MomentTable:
    """Moments of order r for every n = 0..n_max, via the series route.

    ``kind`` selects raw moments E[X_n^r] or central moments about the
    mean.  The first ``cross_check_upto`` entries are verified against the
    exact-PGF route; disagreement raises :class:`CrossCheckError` (it would
    mean one of the two recurrence implementations is wrong).
    """
    if kind not in ("raw", "central"):
        raise ValueError(f"unknown moment kind {kind!r}")
    if r < 0 or (kind == "central" and r < 1):
        raise ValueError("invalid moment order")
    cache = series_cache(DEFAULT_ORDER if order is None else order)
    if r > cache.order:
        raise ValueError(f"order {r} exceeds series truncation {cache.order}")
    cache.ensure(n_max)
    values: dict[int, Fraction] = {}
    for n in range(n_max + 1):
        row = cache.row(n)
        nf = factorial(n)
        if kind == "raw":
            num, den = int(_stirling_transform(row, r)), nf
        else:
            raws = [int(_stirling_transform(row, j)) for j in range(r + 1)]
            nf_pow = [1]
            for _ in range(r):
                nf_pow.append(nf_pow[-1] * nf)
            num = sum(
                comb(r, j) * (-raws[1]) ** (r - j) * raws[j] * nf_pow[j]
                for j in range(r + 1)
            )
            den = nf_pow[r] * nf
        g = big_gcd(num, den)
        values[n] = Fraction(num // g, den // g)
    table = MomentTable(order=r, kind=kind, values=values)
    limit = min(cross_check_upto, n_max)
    exact = raw_moment if kind == "raw" else central_moment
    for n in range(1 if kind == "central" else 0, limit + 1):
        if table.values[n] != exact(n, r):
            raise CrossCheckError(
                f"series and exact-PGF moments disagree at n={n}, r={r}"
            )
    return table
