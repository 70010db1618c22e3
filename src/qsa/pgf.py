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

Slot widths follow each product, not the step.  Let 2^e_m be the largest
power of two dividing every coefficient of G_m, H_m = G_m / 2^e_m and
s_m = H_m(1) = m! / 2^e_m.  The coefficients are non-negative, so every
coefficient of H_a * H_b is at most s_a * s_b <= a! b!, and the pair (a, b)
is multiplied in slots of the byte width of s_a * s_b.  A build packs each
row once, at the width of its own s_m, and moves a row into its pair's
wider slots, and a product into the n!-width slots of the step's
accumulator, by one bytearray slice copy per byte column.  The product,
weighted by C(n-1, k-1) * 2^(e_a + e_b), is added there: every accumulated
slot value of step n is bounded by n! (the coefficients of G_n are
non-negative and sum to exactly n!).  The table stores only each row's
offset and coefficients.

Coefficients grow like n!, so memory for the full table up to n is
O(n^4 log n) bits: about 15 MB of coefficient bytes at n = 130 (28 MB as
Python ints and tuples), and roughly (N/130)^4 as much at n = N.  The
packed rows live only while their build runs: about 20 MB at n = 130, and
no step makes an n!-width copy of every row (30 MB at n = 130).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import or_
from typing import Iterable, Iterator, Mapping, Union

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


def _pack(coeffs: Iterable[int], width: int) -> int:
    """One int holding each coefficient in a ``width``-byte slot, lowest first."""
    slots = (c.to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(b"".join(slots), "little")


def _unpack(value: int, count: int, width: int) -> list[int]:
    raw = value.to_bytes(count * width, "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(count)
    ]


def _byte_width(bound: int) -> int:
    """Bytes of a slot that holds every value from 0 to ``bound``."""
    return (bound.bit_length() + 7) // 8


def _step_width(n: int) -> int:
    """Slot width of step n's accumulator: every coefficient of G_n is <= n!."""
    return (factorial(n).bit_length() + 9) // 8


def _widen(value: int, count: int, u: int, v: int) -> int:
    """``count`` slots of ``u`` bytes moved into slots of ``v >= u`` bytes.

    One C-level slice assignment per byte column: the j-th byte of every
    slot at once.
    """
    if u == v:
        return value
    raw = value.to_bytes(count * u, "little")
    out = bytearray(count * v)
    for j in range(u):
        out[j::v] = raw[j::u]
    return int.from_bytes(out, "little")


def _reduced_row(m: int, coeffs: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Shift e, mass s, slot width and packed form of H_m = G_m / 2^e.

    2^e is the largest power of two dividing every coefficient of G_m: the
    lowest set bit of their bitwise OR, to which a zero coefficient adds
    nothing.  The row is checked first, since a coefficient that is negative
    or wider than the mass cannot be packed.
    """
    if min(coeffs) < 0 or sum(coeffs) != factorial(m):
        raise CrossCheckError(
            f"stored PGF row {m} has a negative coefficient or a mass other than {m}!"
        )
    bits = reduce(or_, coeffs)
    shift = (bits & -bits).bit_length() - 1
    mass = factorial(m) >> shift
    width = _byte_width(mass)
    return shift, mass, width, _pack((c >> shift for c in coeffs), width)


class PgfCache:
    """Bottom-up memo table of exact PGFs.

    The table is built iteratively (no recursion) and stores each row once,
    as the offset and immutable coefficient tuple of n! * g_n.  A build packs
    each row it reads once, at the row's own width, and keeps the packed
    forms only until it returns.  The build exploits the k <-> n+1-k
    symmetry of the recurrence, halving the number of polynomial products.
    One table may be used from several threads: a lock serialises its
    growth.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._rows: list[tuple[int, tuple[int, ...]]] = []

    def _build_next(self, reduced: list[tuple[int, int, int, int]]) -> None:
        """Append G_n; ``reduced`` holds this build's ``_reduced_row`` forms."""
        n = len(self._rows)
        if n <= 1:
            self._rows.append((0, (1,)))
            return
        for m in range(len(reduced), n):
            reduced.append(_reduced_row(m, self._rows[m][1]))
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
        width = _step_width(n)
        acc = 0
        # pivots k and n+1-k give the same product; the middle one of
        # an odd n stands alone
        for k in range(1, (n + 1) // 2 + 1):
            a, b = k - 1, n - k
            shift_a, mass_a, width_a, packed_a = reduced[a]
            shift_b, mass_b, width_b, packed_b = reduced[b]
            # H_a * H_b has non-negative coefficients summing to s_a * s_b,
            # so slots of that width hold it, and s_a * s_b <= a! b! < n!
            pair = _byte_width(mass_a * mass_b)
            prod = big_mul(
                _widen(packed_a, lens[a], width_a, pair),
                _widen(packed_b, lens[b], width_b, pair),
            )
            w = comb(n - 1, k - 1) * (1 if 2 * k == n + 1 else 2)
            wide = _widen(prod, lens[a] + lens[b] - 1, pair, width)
            # G_a G_b = 2^(e_a + e_b) H_a H_b, and the weighted coefficients
            # stay below n!, so the extra shift stays inside each slot
            shift = (pair_off[k - 1] - base) * width * 8 + shift_a + shift_b
            acc += (w * wide) << shift
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
        n = integer(n, "n", 0)
        with self._lock:
            reduced: list[tuple[int, int, int, int]] = []
            while len(self._rows) <= n:
                self._build_next(reduced)
        return self._rows[n]

    def get(self, n: int) -> DistPoly:
        n = integer(n, "n", 0)
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
