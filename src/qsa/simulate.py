"""Independent ground truth: comparison-counting sorts and enumeration.

Nothing in this module touches the generating-function machinery; it is
the oracle the analytic side is checked against.  Three tools:

* a comparison-counting randomized quicksort (partition tests ``x < p``,
  so ties go right; every partition of an s-element sublist costs exactly
  s - 1 comparisons);
* a comparison-counting selection sort, whose count is n(n-1)/2 always;
* an exhaustive enumerator that recurses over every pivot-rank choice with
  probability 1/len each, on explicit rank lists, and returns the exact
  comparison-count distribution.  Deliberately unmemoized, top-down, and
  dict-based - the polar opposite of the bottom-up packed-integer PGF
  builder - at the price of exponential blowup, hence the small-n guard.

Comparison counts depend only on relative order, so the enumerator works
on the ranks 0..n-1 directly; running the sorts on arbitrary orderable
keys (duplicates included) is supported.

The random stream is defined by ``getrandbits`` alone: an index below s is
``getrandbits(s.bit_length())``, redrawn while it is >= s.  That is the rule
of CPython's ``Random._randbelow``, so shuffles and pivots consume exactly
what ``rng.shuffle`` and ``rng.randrange`` would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._ranges import EXHAUSTIVE_LIMIT, integer

#: Largest n a simulation accepts (one sort of 10**6 keys: 2.5 s, 74 MB peak).
MAX_SIM_N = 10**6


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: ``trials`` sorts of random length-``n`` permutations."""

    n: int
    trials: int
    seed: int

    def __post_init__(self):
        try:
            n, trials = integer(self.n, "n"), integer(self.trials, "trials")
        except ValueError:
            raise ValueError(
                f"n and trials must be integers, got n={self.n!r}, trials={self.trials!r}"
            ) from None
        if n < 0:
            raise ValueError("n must be non-negative")
        if n > MAX_SIM_N:
            raise ValueError(f"simulations are limited to n <= {MAX_SIM_N}, got {n}")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "trials", trials)


@dataclass(frozen=True)
class EmpiricalStats:
    trials: int
    mean: float
    variance: float  # unbiased sample variance
    skewness: float  # standardized third central moment
    min_count: int
    max_count: int


def quicksort_count(items: Sequence, rng: random.Random) -> tuple[list, int]:
    """Sort a copy of ``items``; return (sorted list, comparison count).

    The pivot index is drawn uniformly from the current sublist via ``rng``.
    Keys strictly below the pivot go left, everything else right.
    """
    out: list = []
    return out, _quicksort(list(items), rng.getrandbits, out)


def _quicksort(seg: list, getrandbits, out: list | None = None) -> int:
    """Comparison count of sorting ``seg``, which is consumed.

    Sublists are sorted left first, one pivot draw each (see the module
    docstring), and the two comprehensions keep the partition stable.  The
    sorted keys are appended to ``out`` when it is a list; otherwise
    sublists shorter than 2 are never pushed.  The explicit stack keeps
    adversarial pivot sequences from exhausting the interpreter stack.
    """
    count = 0
    stack = [seg]
    pop, push = stack.pop, stack.append
    while stack:
        seg = pop()
        s = len(seg)
        if s < 2:
            if out is not None:  # a pivot or a short sublist
                out += seg
            continue
        count += s - 1
        k = s.bit_length()
        r = getrandbits(k)
        while r >= s:
            r = getrandbits(k)
        pivot = seg[r]
        if s == 2:
            if out is not None:
                other = seg[1 - r]
                out += (other, pivot) if other < pivot else (pivot, other)
            continue
        seg[r] = seg[-1]
        seg.pop()
        lows = [x for x in seg if x < pivot]
        highs = [x for x in seg if not x < pivot]
        if out is None:
            if len(highs) > 1:
                push(highs)
            if len(lows) > 1:
                push(lows)
        elif len(lows) > 1:
            stack += (highs, [pivot], lows)
        else:  # lows would come next: emit it and the pivot now
            out += (*lows, pivot)
            push(highs)
    return count


def selection_sort_count(items: Sequence) -> tuple[list, int]:
    """Repeated minimum selection; always exactly n(n-1)/2 comparisons."""
    a = list(items)
    n = len(a)
    count = 0
    for i in range(n - 1):
        champ = i
        for j in range(i + 1, n):
            count += 1
            if a[j] < a[champ]:
                champ = j
        a[i], a[champ] = a[champ], a[i]
    return a, count


def _rank_list_distribution(ranks: tuple[int, ...]) -> dict[int, Fraction]:
    length = len(ranks)
    if length <= 1:
        return {0: Fraction(1)}
    weight = Fraction(1, length)
    total: dict[int, Fraction] = {}
    for pivot in ranks:
        left = tuple(x for x in ranks if x < pivot)
        right = tuple(x for x in ranks if x > pivot)
        dist_l = _rank_list_distribution(left)
        dist_r = _rank_list_distribution(right)
        for ka, pa in dist_l.items():
            for kb, pb in dist_r.items():
                key = ka + kb + length - 1
                cur = total.get(key)
                add = weight * pa * pb
                total[key] = add if cur is None else cur + add
    return total


def exhaustive_distribution(n: int) -> dict[int, Fraction]:
    """Exact comparison-count distribution by full pivot-tree enumeration.

    Branches over all n pivot ranks with probability 1/n each and convolves
    the sublist distributions.  Exponential in n (the tree has ~3^n nodes),
    so arguments above 12 are rejected; n = 12 already takes on the order
    of a minute.
    """
    n = integer(n, "n", 0)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_LIMIT}"
        )
    return dict(sorted(_rank_list_distribution(tuple(range(n))).items()))


def monte_carlo(cfg: SimConfig) -> EmpiricalStats:
    """Seeded Monte Carlo over uniform random permutations.

    Aggregation uses exact integer power sums, so the statistics are
    independent of trial order (parallel or serial accumulation would agree
    bit for bit) and reproducible per seed.
    """
    getrandbits = random.Random(cfg.seed).getrandbits
    s1 = s2 = s3 = 0
    lo, hi = None, None
    base = list(range(cfg.n))
    for _ in range(cfg.trials):
        perm = base[:]
        # Durstenfeld's shuffle with the pivot draw: the stream of rng.shuffle
        for i in range(cfg.n - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            perm[i], perm[j] = perm[j], perm[i]
        c = _quicksort(perm, getrandbits)
        s1 += c
        s2 += c * c
        s3 += c * c * c
        if lo is None or c < lo:
            lo = c
        if hi is None or c > hi:
            hi = c
    t = cfg.trials
    mean = Fraction(s1, t)
    cm2 = Fraction(s2, t) - mean**2
    cm3 = Fraction(s3, t) - 3 * mean * Fraction(s2, t) + 2 * mean**3
    variance = Fraction(0) if t < 2 else (s2 - Fraction(s1 * s1, t)) / (t - 1)
    skewness = 0.0 if cm2 == 0 else float(cm3) / float(cm2) ** 1.5
    return EmpiricalStats(
        trials=t,
        mean=float(mean),
        variance=float(variance),
        skewness=skewness,
        min_count=lo,
        max_count=hi,
    )
