"""Exact probability generating functions of the comparison count.

``g_n(t) = sum_k Pr(X_n = k) t^k`` satisfies the product-form recurrence

    g_n(t) = t^(n-1)/n * sum_{k=1}^{n} g_{k-1}(t) * g_{n-k}(t),

with g_0 = g_1 = 1: the random pivot is the k-th smallest with probability
1/n, partitioning costs n-1 comparisons, and the two sides are independent.

Working with Fraction-coefficient polynomials directly is hopeless at
n = 130 (billions of rational operations), so the builder tracks the
integer-scaled polynomials G_n = n! * g_n.  Multiplying the recurrence by
n! gives the pure-integer form

    G_n(t) = t^(n-1) * sum_{k=1}^{n} C(n-1, k-1) G_{k-1}(t) G_{n-k}(t),

and each integer polynomial product is carried out by Kronecker
substitution: coefficients are packed into fixed-width slots of one huge
integer, multiplied once (GMP-fast when gmpy2 is installed), and unpacked.
Every accumulated slot value of step n is bounded by n! (the coefficients
of G_n are non-negative and sum to exactly n!), so step n packs the rows it
reads at the width n! needs, and drops the packed copies when it is done.
The table stores only each row's offset and coefficients.

Coefficients grow like n!, so memory for the full table up to n is
O(n^4 log n) bits: about 15 MB of coefficient bytes at n = 130 (28 MB as
Python ints and tuples), and roughly (N/130)^4 as much at n = N.  The
packed copies live only while their step runs: about 30 MB more during the
step to n = 130.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Mapping, Union

from ._intops import big_mul
from ._ranges import integer
from .errors import CrossCheckError


@dataclass(frozen=True)
class DistPoly:
    """Exact distribution of the comparison count for lists of length n.

    ``probs[i]`` is Pr(X_n = min_k + i); the support is the contiguous
    integer range [min_k, max_k] and the probabilities sum to exactly 1.
    """

    n: int
    min_k: int
    probs: tuple[Fraction, ...]

    @property
    def max_k(self) -> int:
        return self.min_k + len(self.probs) - 1

    def prob(self, k: int) -> Fraction:
        if self.min_k <= k <= self.max_k:
            return self.probs[k - self.min_k]
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        for i, p in enumerate(self.probs):
            yield self.min_k + i, p


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """One int holding each coefficient in a ``width``-byte slot, lowest first."""
    slots = (c.to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(b"".join(slots), "little")


def _unpack(value: int, count: int, width: int) -> list[int]:
    raw = value.to_bytes(count * width, "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(count)
    ]


class PgfCache:
    """Bottom-up memo table of exact PGFs.

    The table is built iteratively (no recursion) and stores each row once,
    as the offset and immutable coefficient tuple of n! * g_n.  Each step
    packs the rows it reads at the slot width its own n! needs.  The build
    exploits the k <-> n+1-k symmetry of the recurrence, halving the number
    of polynomial products.  One table may be used from several threads: a
    lock serialises its growth.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._rows: list[tuple[int, tuple[int, ...]]] = []

    def _build_next(self) -> None:
        n = len(self._rows)
        if n <= 1:
            self._rows.append((0, (1,)))
            return
        offs = [off for off, _ in self._rows]
        lens = [len(c) for _, c in self._rows]
        pair_off = [offs[k - 1] + offs[n - k] for k in range(1, n + 1)]
        base = min(pair_off)
        span = (
            max(
                pair_off[k - 1] + lens[k - 1] + lens[n - k] - 1
                for k in range(1, n + 1)
            )
            - base
        )
        # A slot must hold any accumulated coefficient of G_n; all of them
        # are bounded by n! (non-negative, total mass n!).
        width = (factorial(n).bit_length() + 9) // 8
        packed = [_pack(c, width) for _, c in self._rows]
        acc = 0
        # pivots k and n+1-k give the same product; the middle one of
        # an odd n stands alone
        for k in range(1, (n + 1) // 2 + 1):
            w = comb(n - 1, k - 1) * (1 if 2 * k == n + 1 else 2)
            prod = big_mul(packed[k - 1], packed[n - k])
            acc += w * (prod << ((pair_off[k - 1] - base) * width * 8))
        unpacked = _unpack(acc, span, width)
        while unpacked and unpacked[-1] == 0:
            unpacked.pop()
        coeffs = tuple(unpacked)
        # total mass n! * g_n(1) = n!; also guards slot overflow
        if sum(coeffs) != factorial(n):
            raise CrossCheckError(f"PGF mass at n={n} is not n!")
        self._rows.append((base + n - 1, coeffs))

    def scaled(self, n: int) -> tuple[int, tuple[int, ...]]:
        """Offset and integer coefficients of n! * g_n (the stored tuple)."""
        n = integer(n, "n")
        if n < 0:
            raise ValueError("n must be non-negative")
        with self._lock:
            while len(self._rows) <= n:
                self._build_next()
        return self._rows[n]

    def get(self, n: int) -> DistPoly:
        offset, coeffs = self.scaled(n)
        nf = factorial(n)
        return DistPoly(
            n=n, min_k=offset, probs=tuple(Fraction(c, nf) for c in coeffs)
        )


_default_cache = PgfCache()


def pgf(n: int) -> DistPoly:
    """Exact distribution of the comparison count on random length-n input.

    Memoized bottom-up: requesting n forces g_0 .. g_{n-1} as well.  The
    shared table stores integer coefficients only, and each call builds its
    Fraction probabilities afresh; see the module docstring for the memory
    cost.
    """
    return _default_cache.get(n)


def scaled_pgf(n: int) -> tuple[int, tuple[int, ...]]:
    """Offset and coefficients of the integer polynomial n! * g_n."""
    return _default_cache.scaled(n)


CoeffTable = Union[DistPoly, Mapping[int, Fraction]]


def _as_table(x: CoeffTable) -> dict[int, Fraction]:
    if isinstance(x, DistPoly):
        return {k: p for k, p in x.items() if p}
    return {int(k): Fraction(v) for k, v in x.items()}


def convolve(a: CoeffTable, b: CoeffTable) -> dict[int, Fraction]:
    """Exact product of two coefficient tables.

    Degrees add and total mass multiplies; convolving with {0: 1} is the
    identity.  This is the reference implementation for small tables; the
    cache builder above uses the packed-integer route instead.  It stays in
    the package as the reference the tests check ``PgfCache`` against.
    """
    ta, tb = _as_table(a), _as_table(b)
    out: dict[int, Fraction] = {}
    for ka, pa in ta.items():
        if not pa:
            continue
        for kb, pb in tb.items():
            if not pb:
                continue
            key = ka + kb
            cur = out.get(key)
            out[key] = pa * pb if cur is None else cur + pa * pb
    return dict(sorted(out.items()))
