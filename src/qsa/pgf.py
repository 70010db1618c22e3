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
Every packed slot value is bounded by n! (the coefficients of G_n are
non-negative and sum to exactly n!), so the slot width follows the largest
n requested so far; the table is re-packed only when that width grows.

Coefficients grow like n!, so memory for the full table up to n is
O(n^4 log n) bits: about 40 MB at n = 130, and roughly (N/130)^4 as much
at n = N.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Mapping, Union

from ._intops import big_mul
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


class PgfCache:
    """Bottom-up memo table of exact PGFs.

    The table is built iteratively (no recursion) and each published
    polynomial is an immutable tuple.  The build exploits the k <-> n+1-k
    symmetry of the recurrence, halving the number of polynomial products.
    One table may be used from several threads: a lock serialises its growth.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._offsets: list[int] = []
        self._coeffs: list[tuple[int, ...]] = []
        self._packed: list[int] = []
        self._dists: dict[int, DistPoly] = {}
        self._slot_bytes = 0

    def _pack(self, coeffs: tuple[int, ...]) -> int:
        slots = (c.to_bytes(self._slot_bytes, "little") for c in coeffs)
        return int.from_bytes(b"".join(slots), "little")

    def _unpack(self, value: int, count: int) -> list[int]:
        sb = self._slot_bytes
        raw = value.to_bytes(count * sb, "little")
        return [
            int.from_bytes(raw[i * sb : (i + 1) * sb], "little") for i in range(count)
        ]

    def _build_next(self) -> None:
        n = len(self._coeffs)
        if n <= 1:
            offset, coeffs, packed = 0, (1,), 1
        else:
            offs = self._offsets
            lens = [len(c) for c in self._coeffs]
            pair_off = [offs[k - 1] + offs[n - k] for k in range(1, n + 1)]
            base = min(pair_off)
            span = (
                max(
                    pair_off[k - 1] + lens[k - 1] + lens[n - k] - 1
                    for k in range(1, n + 1)
                )
                - base
            )
            slot_bits = self._slot_bytes * 8
            acc = 0
            # pivots k and n+1-k give the same product; the middle one of
            # an odd n stands alone
            for k in range(1, (n + 1) // 2 + 1):
                w = comb(n - 1, k - 1) * (1 if 2 * k == n + 1 else 2)
                prod = big_mul(self._packed[k - 1], self._packed[n - k])
                acc += w * (prod << ((pair_off[k - 1] - base) * slot_bits))
            unpacked = self._unpack(acc, span)
            while unpacked and unpacked[-1] == 0:
                unpacked.pop()
            offset, coeffs = base + n - 1, tuple(unpacked)
            # total mass n! * g_n(1) = n!; also guards slot overflow
            if sum(coeffs) != factorial(n):
                raise CrossCheckError(f"PGF mass at n={n} is not n!")
            # no slot overflowed, so acc is already G_n in packed form
            packed = acc
        self._offsets.append(offset)
        self._coeffs.append(coeffs)
        self._packed.append(packed)

    def _ensure(self, n: int) -> None:
        with self._lock:
            if n < len(self._coeffs):
                return
            # A slot must hold any accumulated coefficient of G_0..G_n, all
            # of which are bounded by n! (non-negative, total mass n!).
            slot_bytes = (factorial(n).bit_length() + 9) // 8
            if slot_bytes != self._slot_bytes:
                self._slot_bytes = slot_bytes
                self._packed = [self._pack(c) for c in self._coeffs]
            while len(self._coeffs) <= n:
                self._build_next()

    def scaled(self, n: int) -> tuple[int, tuple[int, ...]]:
        """Offset and integer coefficients of n! * g_n (the stored tuple)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._ensure(n)
        return self._offsets[n], self._coeffs[n]

    def get(self, n: int) -> DistPoly:
        if n < 0:
            raise ValueError("n must be non-negative")
        self._ensure(n)
        with self._lock:
            dist = self._dists.get(n)
            if dist is None:
                nf = factorial(n)
                offset, coeffs = self._offsets[n], self._coeffs[n]
                dist = DistPoly(
                    n=n,
                    min_k=offset,
                    probs=tuple(Fraction(c, nf) for c in coeffs),
                )
                self._dists[n] = dist
        return dist


_default_cache = PgfCache()


def pgf(n: int) -> DistPoly:
    """Exact distribution of the comparison count on random length-n input.

    Memoized bottom-up: requesting n forces g_0 .. g_{n-1} as well.  The
    shared table's slot width follows the largest n requested; see the
    module docstring for the memory cost.
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
