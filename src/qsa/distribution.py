"""Scaled comparison-count distribution, density export, and tail queries.

With exact closed forms for the mean c_n and variance m_2(n), the centered
and scaled variable

    Z_n = (X_n - c_n) / sqrt(m_2(n))

approaches its limiting shape slowly (the scaled third moment converges
like O(1/ln n)), but a moderate surrogate such as Z_130 already carries
the limit's shape well.  Tail queries for very large n therefore map the
requested threshold through c_n, m_2(n) of the target size onto the
surrogate's z-scale and read the surrogate's tail mass there.  c_n and
m_2(n) come from ``fitting.evaluate_asymptotic``, which owns the
exact-or-enclosure rule: the exact closed forms up to n = 4000
(``numeric._PREFIX_LIMIT``), above it Euler-Maclaurin enclosures of H_1(n)
and H_2(n) whose rigorous error bound lies below 10^-(precision + 15), so no
10^4-digit harmonic fraction is ever built.

Probability masses stay exact Fractions end to end; only the z-coordinates
(which involve a square root) are high-precision floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import factorial
from typing import Union

# The package's modules come before mpmath.  Without a bytecode cache each is
# compiled from source as it is imported, and compiling fitting.py takes about
# 2 MB for a moment; loaded first, that peak does not stack on mpmath's 4 MB,
# and a cold `qsa tail` or `qsa density` peaks about 1 MB lower.
from ._ranges import integer
from .errors import CrossCheckError
from .fitting import evaluate_asymptotic, known_central_moment, known_mean
from .moments import central_moment, raw_moment
from .numeric import check_precision
from .pgf import scaled_pgf

from mpmath import mp, mpf

DEFAULT_SURROGATE = 130

#: The most bins export_density builds; 10^5 bins already take seconds and
#: about 100 MB.
MAX_DENSITY_BINS = 10**6

NumberLike = Union[int, Fraction]


@dataclass(frozen=True)
class ScaledDistribution:
    """Atoms of Z_n: exact masses at z = (k - c_n)/sqrt(m_2(n))."""

    n: int
    mean: Fraction  # c_n, in comparison-count space
    variance: Fraction  # m_2(n), exactly
    sigma: mpf
    min_k: int
    masses: tuple[Fraction, ...]  # masses[i] = Pr(X_n = min_k + i)
    cumulative: tuple[Fraction, ...]  # inclusive prefix sums of masses
    zs: tuple[mpf, ...]

    @property
    def max_k(self) -> int:
        return self.min_k + len(self.masses) - 1

    def points(self):
        return tuple(zip(self.zs, self.masses))


@dataclass(frozen=True)
class TailEstimate:
    """Pr(X > threshold) estimated through a scaled surrogate."""

    probability: mpf
    z_cut: mpf
    saturated: bool  # threshold fell outside the surrogate's support
    exact: Fraction | None = None  # set when no float rounding was involved


@dataclass(frozen=True)
class DensityBin:
    z_left: mpf
    z_right: mpf
    mass: Fraction


def scale(n: int, precision: int = 50) -> ScaledDistribution:
    """Exact scaled distribution Z_n = (X_n - c_n)/sqrt(m_2(n)).

    Requires n >= 3: the comparison count is deterministic for n <= 2
    (m_2(2) = 0), so there is nothing to scale by.  Before any square root
    is taken, the PGF mass is cross-checked against the closed forms: total
    mass 1, first moment c_n, and second central moment m_2(n), all as
    exact rationals.
    """
    n = integer(n, "n")  # in front of the cache, where 5.0 would find 5
    if n < 3:
        raise ValueError("scaling requires n >= 3 (zero variance below)")
    return _scale(n, check_precision(precision))


@cache
def _scale(n: int, precision: int) -> ScaledDistribution:
    offset, coeffs = scaled_pgf(n)
    nf = factorial(n)
    mean = known_mean().evaluate(n)
    variance = known_central_moment(2).evaluate(n)

    if sum(coeffs) != nf:
        raise CrossCheckError(f"PGF mass at n={n} does not total 1")
    if raw_moment(n, 1) != mean:
        raise CrossCheckError(f"PGF mean at n={n} disagrees with closed form")
    if central_moment(n, 2) != variance:
        raise CrossCheckError(f"PGF variance at n={n} disagrees with closed form")

    masses = tuple(Fraction(c, nf) for c in coeffs)
    cumulative = tuple(Fraction(c, nf) for c in accumulate(coeffs))
    with mp.workdps(precision + 10):
        sigma = mp.sqrt(mpf(variance.numerator) / mpf(variance.denominator))
        mean_mp = mpf(mean.numerator) / mpf(mean.denominator)
        zs = tuple((mpf(offset + i) - mean_mp) / sigma for i in range(len(coeffs)))
    return ScaledDistribution(
        n=n,
        mean=mean,
        variance=variance,
        sigma=sigma,
        min_k=offset,
        masses=masses,
        cumulative=cumulative,
        zs=zs,
    )


def tail_probability(
    n_large: int,
    threshold: NumberLike,
    surrogate_n: int = DEFAULT_SURROGATE,
    precision: int = 50,
) -> TailEstimate:
    """Pr(X_{n_large} > threshold) via the scaled surrogate Z_{surrogate_n}.

    The threshold maps to z = (threshold - c_n)/sqrt(m_2(n)) with the
    closed forms of the target size at the working precision of
    ``precision + 10`` digits, from ``fitting.evaluate_asymptotic``: exact
    for n_large <= 4000, enclosed above.  The surrogate's mass above that
    cut is returned, splitting the straddled inter-atom gap by linear CDF
    interpolation (which keeps the result monotone in the threshold).  A
    cut below the surrogate's support returns probability 1, above it 0,
    both flagged ``saturated``.  When the surrogate equals the target the
    answer is the exact tail sum.
    """
    n_large = integer(n_large, "n_large")
    if n_large < 3:
        raise ValueError("tail queries require n_large >= 3 (zero variance below)")
    precision = check_precision(precision)
    threshold = Fraction(threshold)
    sur = scale(surrogate_n, precision)
    mean_t = evaluate_asymptotic(known_mean(), n_large, precision)
    var_t = evaluate_asymptotic(known_central_moment(2), n_large, precision)
    with mp.workdps(precision + 10):
        sigma_t = mp.sqrt(var_t)
        z_cut = (mpf(threshold.numerator) / mpf(threshold.denominator) - mean_t) / sigma_t
        if n_large == sur.n:
            # no rescaling: work in exact comparison-count space
            k_cut = threshold
        else:
            mean_s = mpf(sur.mean.numerator) / mpf(sur.mean.denominator)
            k_cut = mean_s + z_cut * sur.sigma

        if k_cut < sur.min_k:
            return TailEstimate(mpf(1), +z_cut, True, Fraction(1))
        if k_cut >= sur.max_k:
            return TailEstimate(mpf(0), +z_cut, k_cut > sur.max_k, Fraction(0))
        # the cut is positive, so int() is floor; the support is contiguous
        idx = int(k_cut) - sur.min_k
        left = sur.cumulative[idx]
        right = sur.cumulative[idx + 1]
        frac = k_cut - (sur.min_k + idx)
        if isinstance(k_cut, Fraction):
            tail = 1 - (left + (right - left) * frac)
            prob = mpf(tail.numerator) / mpf(tail.denominator)
            return TailEstimate(+prob, +z_cut, False, tail)
        left_mp = mpf(left.numerator) / mpf(left.denominator)
        right_mp = mpf(right.numerator) / mpf(right.denominator)
        prob = 1 - (left_mp + (right_mp - left_mp) * frac)
        return TailEstimate(+prob, +z_cut, False, None)


def export_density(
    n: int, bin_width, precision: int = 50
) -> list[DensityBin]:
    """Histogram of Z_n mass over equal-width z bins.

    Bins start at the lowest atom; the final bin absorbs the top edge.
    Masses are exact Fractions and sum to exactly 1.
    """
    precision = check_precision(precision)
    dist = scale(n, precision)
    with mp.workdps(precision + 10):
        width = mpf(str(bin_width)) if not isinstance(bin_width, Fraction) else mpf(
            bin_width.numerator
        ) / mpf(bin_width.denominator)
        if not width > 0:
            raise ValueError("bin width must be positive")
        z_min, z_max = dist.zs[0], dist.zs[-1]
        n_bins = max(1, int(mp.ceil((z_max - z_min) / width)))
        if n_bins > MAX_DENSITY_BINS:
            raise ValueError(
                f"bin width {mp.nstr(width, 3)} asks for {mp.nstr(mpf(n_bins), 3)} "
                f"bins, more than MAX_DENSITY_BINS = {MAX_DENSITY_BINS}"
            )
        masses = [Fraction(0)] * n_bins
        for z, mass in zip(dist.zs, dist.masses):
            idx = int(mp.floor((z - z_min) / width))
            idx = max(0, min(idx, n_bins - 1))
            masses[idx] += mass
        return [
            DensityBin(
                z_left=+(z_min + i * width),
                z_right=+(z_min + (i + 1) * width),
                mass=masses[i],
            )
            for i in range(n_bins)
        ]
