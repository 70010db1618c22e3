"""Closed-form discovery for moment sequences by undetermined coefficients.

The moments of the comparison count admit exact closed forms as rational
polynomial combinations of n and the generalized harmonic numbers
H_1(n)..H_r(n).  This module rediscovers them the data-driven way: build a
monomial template, solve for the coefficients on a training window of
exact moment values, and confirm the candidate on a disjoint (much larger)
testing window with *exactly zero* residuals.  The fits involve no
floating point: a "verified" report means every train and test equation
holds in rational arithmetic.  (``evaluate_asymptotic`` evaluates a closed
form at real precision: exactly up to n = 4000, above it from Euler-Maclaurin
enclosures of the harmonic numbers; this is the one place that rule lives.)

Template grading: a monomial is n^a * prod_m H_m(n)^(b_m); the escalation
ladder bounds the n-exponent by d and the weighted harmonic degree
sum(m * b_m) by d, raising d until the fit verifies.  (Pure total degree
either explodes the basis or misses the n^4 H_2(n)^2 - type terms that the
fourth moment already needs.)

The train system is solved modulo several word-sized primes with rational
reconstruction rather than by Fraction-valued Gaussian elimination: the
matrix entries are harmonic monomial values whose denominators grow like
lcm(1..n)^d, which makes exact elimination hopeless for the 200-600
monomial bases of the 6th-8th moments.  The modular route changes nothing
about the contract - a candidate only becomes "verified" after the exact
residual check - while "refuted"/"underdetermined" verdicts require two
independent primes to agree.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import isqrt, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._ranges import integer
from .errors import FitSolverError, GuessError, InsufficientDataError
from .moments import moment_table
from .numeric import _PREFIX_LIMIT, check_precision, harmonic, harmonic_enclosure

if TYPE_CHECKING:
    from mpmath import mpf

VERIFIED = "verified"
REFUTED = "refuted"
UNDETERMINED = "underdetermined"

#: A fit's train system has at least SLACK more equations than monomials.
SLACK = 5
#: guess_moment's own test windows hold at least TEST_POINTS points and reach
#: at least n = TEST_FLOOR.
TEST_POINTS = 150
TEST_FLOOR = 306

_MAX_PRIMES = 32

# The train system is solved on rows packed into _SLOT_BITS-bit slots, modulo
# primes below 2^_PRIME_BITS.
_SLOT_BITS = 64
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_PRIME_BITS = 25

#: The most monomials a fit takes.  A slot starts below p and gains less than
#: p^2 per pivot, so it stays below 2^64 for fewer than 2^(64 - 2*25) = 2^14
#: pivots: p - 1 + k(p - 1)^2 < 2^64 for k < 2^14 and p < 2^25.
MAX_TEMPLATE_SIZE = 2 ** (_SLOT_BITS - 2 * _PRIME_BITS) - 1

#: The largest moment order guess_moment fits.  Order 9's d = 9 template has
#: 970 monomials (603 at order 8) and needs exact moment data to n = 1125.
MAX_FIT_ORDER = 8


@dataclass(frozen=True)
class Monomial:
    """n^n_power * prod H_m(n)^e over the positive-exponent pairs (m, e)."""

    n_power: int
    h_powers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = ((integer(m, "m", 1), integer(e, "e", 0)) for m, e in self.h_powers)
        object.__setattr__(self, "n_power", integer(self.n_power, "n_power", 0))
        object.__setattr__(self, "h_powers", tuple(sorted(p for p in pairs if p[1])))

    @property
    def weight(self) -> int:
        """Weighted harmonic degree sum(m * e)."""
        return sum(m * e for m, e in self.h_powers)

    def sort_key(self, max_m: int) -> tuple[int, ...]:
        exps = dict(self.h_powers)
        return (self.n_power, *(exps.get(m, 0) for m in range(1, max_m + 1)))

    def __str__(self) -> str:
        parts = []
        if self.n_power == 1:
            parts.append("n")
        elif self.n_power:
            parts.append(f"n^{self.n_power}")
        for m, e in self.h_powers:
            parts.append(f"H{m}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"


def _max_m(monomials: Iterable[Monomial]) -> int:
    best = 0
    for mono in monomials:
        for m, _ in mono.h_powers:
            best = max(best, m)
    return best


class HarmonicExpr:
    """Exact rational combination of harmonic monomials.

    Immutable; supports +, -, * and integer powers so closed forms can be
    written down the way they are usually printed, e.g.

        N, H2 = HarmonicExpr.variable(), HarmonicExpr.harmonic(2)
        expr = 7*N**2 + 13*N - 4*(N + 1)**2 * H2 - ...
    """

    __slots__ = ("_terms", "_den", "_top", "_groups", "_orders")

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        clean = {m: Fraction(c) for m, c in terms.items() if c}
        self._terms = clean
        parts: dict[tuple[tuple[int, int], ...], dict[int, Fraction]] = {}
        for mono, coeff in clean.items():
            parts.setdefault(mono.h_powers, {})[mono.n_power] = coeff
        # every coefficient over one denominator D; w the top harmonic weight
        self._den = den = lcm(*(c.denominator for c in clean.values()))
        self._top = top = max((m.weight for m in clean), default=0)
        self._groups = [  # (harmonic part, w - its weight, numerators over D, top power first)
            (
                h_powers,
                top - sum(m * e for m, e in h_powers),
                [int(poly.get(a, 0) * den) for a in range(max(poly), -1, -1)],
            )
            for h_powers, poly in parts.items()
        ]
        self._orders = {m for h_powers in parts for m, _ in h_powers}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "HarmonicExpr":
        return cls({})

    @classmethod
    def constant(cls, value) -> "HarmonicExpr":
        return cls({Monomial(0): Fraction(value)})

    @classmethod
    def variable(cls) -> "HarmonicExpr":
        return cls({Monomial(1): Fraction(1)})

    @classmethod
    def harmonic(cls, m: int) -> "HarmonicExpr":
        return cls({Monomial(0, ((m, 1),)): Fraction(1)})

    # -- views -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def max_n_power(self) -> int:
        return max((m.n_power for m in self._terms), default=0)

    def top_terms(self) -> dict[Monomial, Fraction]:
        """Terms carrying the highest power of n."""
        deg = self.max_n_power()
        return {m: c for m, c in self._terms.items() if m.n_power == deg}

    def canonical_terms(self) -> list[tuple[Monomial, Fraction]]:
        mm = _max_m(self._terms)
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key(mm))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "HarmonicExpr":
        if isinstance(other, HarmonicExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return HarmonicExpr.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return HarmonicExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return HarmonicExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return HarmonicExpr({m: c * q for m, c in self._terms.items()})
        if not isinstance(other, HarmonicExpr):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                exps: dict[int, int] = dict(ma.h_powers)
                for m, e in mb.h_powers:
                    exps[m] = exps.get(m, 0) + e
                key = Monomial(ma.n_power + mb.n_power, tuple(exps.items()))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return HarmonicExpr(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        result = HarmonicExpr.constant(1)
        for _ in range(integer(exponent, "exponent", 0)):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HarmonicExpr.constant(other)
        if not isinstance(other, HarmonicExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash as one
        if self._terms.keys() <= {Monomial(0)}:
            return hash(self._terms.get(Monomial(0), Fraction(0)))
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.canonical_terms():
            parts.append(f"({coeff})*{mono}" if str(mono) != "1" else f"({coeff})")
        return " + ".join(parts)

    __repr__ = __str__

    # -- evaluation / serialization ---------------------------------------

    def evaluate(self, n: int) -> Fraction:
        """Exact value at integer n >= 1: the integer of ``_scaled`` over D * L^w."""
        n = integer(n, "n", 1)
        ell = lcm(*range(n // 2 + 1, n + 1))  # = lcm(1..n): k <= n/2 divides one of them
        powers = list(accumulate(repeat(ell, self._top), mul, initial=1))
        return Fraction(self._scaled(n, powers), self._den * powers[-1])

    def _scaled(self, n: int, powers: Sequence[int]) -> int:
        """The integer D * L^w * expr(n), given ``powers`` = L^0..L^w, L = lcm(1..n).

        Every H_m(n) is an integer A_m over L^m.  A harmonic group of weight
        v is then its integer polynomial in n times prod A_m^e, over D * L^v;
        times L^(w - v), each group is an integer over D * L^w.
        """
        num = {}  # A_m
        for m in self._orders:
            h = harmonic(m, n)
            num[m] = h.numerator * (powers[m] // h.denominator)
        total = 0
        for h_powers, gap, nums in self._groups:
            poly = 0
            for c in nums:  # Horner, from n^top down
                poly = poly * n + c
            for m, e in h_powers:
                poly *= num[m] ** e
            total += poly * powers[gap]
        return total

    def evaluate_real(self, n: int, h: Mapping[int, mpf]) -> mpf:
        """Value at n in the current mpmath precision, with H_m(n) taken as ``h[m]``."""
        from mpmath import mpf  # here, so that exact fits never load mpmath

        nn = mpf(n)
        total = mpf(0)
        for mono, coeff in self._terms.items():
            val = mpf(coeff.numerator) / mpf(coeff.denominator) * nn**mono.n_power
            for m, e in mono.h_powers:
                val *= h[m] ** e
            total += val
        return total

    def to_json(self) -> list[dict]:
        return [
            {
                "n_pow": mono.n_power,
                "h_pows": [[m, e] for m, e in mono.h_powers],
                "coeff": {"num": str(c.numerator), "den": str(c.denominator)},
            }
            for mono, c in self.canonical_terms()
        ]

    @classmethod
    def from_json(cls, data: Sequence[Mapping]) -> "HarmonicExpr":
        """The expression ``to_json`` wrote; a malformed term raises a ``ValueError`` naming it."""
        terms = {}
        for item in data:
            try:
                mono = Monomial(item["n_pow"], item["h_pows"])
                # decimal strings, as to_json writes them; str() keeps 1.5 from truncating to 1
                num, den = (int(str(item["coeff"][k])) for k in ("num", "den"))
                if not den:
                    raise ValueError("the denominator is 0")
            except ValueError as exc:
                raise ValueError(f"term {item!r}: {exc}") from None
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
        return cls(terms)


# Digits beyond the working precision to which closed forms are evaluated
# above _PREFIX_LIMIT before rounding; precision 100 asks H_m(n) for 115 digits.
_GUARD = 5


def evaluate_asymptotic(expr: HarmonicExpr, n: int, precision: int = 50) -> mpf:
    """``expr`` at n as an mpf of ``precision + 10`` significant digits.

    Up to n = 4000 (``numeric._PREFIX_LIMIT``) this is the exact value
    ``expr.evaluate(n)``, rounded once.  Above it every H_m(n) comes from
    :func:`~qsa.numeric.harmonic_enclosure` to within 10^-(precision + 15),
    the expression is evaluated at that many digits and then rounded, so no
    harmonic fraction of n digits is ever built.  The five guard digits
    absorb how the expression amplifies the H_m errors (m_2(n) multiplies
    its H_2 error by about 4n^2 against a value near 0.42 n^2): the tests
    check c_n, m_2(n) and m_6(n) to within 10^-precision of the exact
    value, relative, on both sides of n = 4000.
    """
    from mpmath import mp, mpf  # here, so that exact fits never load mpmath

    n, precision = integer(n, "n", 1), check_precision(precision)
    if n <= _PREFIX_LIMIT:
        exact = expr.evaluate(n)
        with mp.workdps(precision + 10):
            return mpf(exact.numerator) / mpf(exact.denominator)
    digits = precision + 10 + _GUARD
    with mp.workdps(digits):
        orders = {m for mono in expr.terms for m, _ in mono.h_powers}
        h = {m: harmonic_enclosure(m, n, digits)[0] for m in orders}
        value = expr.evaluate_real(n, h)
    with mp.workdps(precision + 10):
        return +value


# -----------------------------------------------------------------------
# Templates
# -----------------------------------------------------------------------


def _h_vectors(m: int, max_m: int, budget: int):
    if m > max_m:
        yield ()
        return
    for rest in _h_vectors(m + 1, max_m, budget):
        yield rest
    for e in range(1, budget // m + 1):
        for rest in _h_vectors(m + 1, max_m, budget - m * e):
            yield ((m, e),) + rest


def template(r: int, n_degree_bound: int, h_weight_bound: int) -> list[Monomial]:
    """All monomials n^a * prod H_m^(b_m) with a <= n_degree_bound,
    sum(m*b_m) <= h_weight_bound, and m <= r, in canonical order."""
    r = integer(r, "r", 0)
    n_degree_bound = integer(n_degree_bound, "n_degree_bound", 0)
    h_weight_bound = integer(h_weight_bound, "h_weight_bound", 0)
    monos = [
        Monomial(a, h)
        for a in range(n_degree_bound + 1)
        for h in _h_vectors(1, r, h_weight_bound)
    ]
    monos.sort(key=lambda mono: mono.sort_key(r))
    return monos


# -----------------------------------------------------------------------
# Fit reports
# -----------------------------------------------------------------------


@dataclass
class FitReport:
    """Outcome of one template fit.

    ``status`` is "verified" exactly when every test residual is the zero
    rational.  ``expr`` is None when the training system itself was
    inconsistent or rank-deficient.
    """

    expr: HarmonicExpr | None
    train_range: tuple[int, int]
    test_range: tuple[int, int]
    residuals: tuple[Fraction, ...] = ()
    status: str = REFUTED
    degree: int | None = None

    def __post_init__(self):
        if self.status == VERIFIED and any(self.residuals):
            raise ValueError("verified report with nonzero residual")


def _window(window: tuple[int, int]) -> tuple[int, int]:
    """The inclusive interval lo..hi of n, checked to hold integers 1 <= lo <= hi."""
    try:
        lo, hi = (integer(end, "window") for end in window)
    except (TypeError, ValueError):
        raise ValueError(f"a fit window holds two integers (lo, hi): {window}") from None
    if not 1 <= lo <= hi:
        raise ValueError(f"a fit window is an interval (lo, hi), 1 <= lo <= hi: {window}")
    return lo, hi


# -----------------------------------------------------------------------
# Modular linear algebra
# -----------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fresh_prime(rng: random.Random, used: set[int]) -> int:
    # 25-bit primes (_PRIME_BITS) are small enough for the 64-bit slots of
    # _solve_mod_p (see MAX_TEMPLATE_SIZE) and far above every denominator
    # prime factor (<= n_max).
    while True:
        c = rng.randrange(1 << (_PRIME_BITS - 1), 1 << _PRIME_BITS) | 1
        if c not in used and _is_prime(c):
            used.add(c)
            return c


def _matrix_mod_p(
    monomials: Sequence[Monomial], points: Sequence[int], p: int
) -> list[array]:
    """Columns of the train matrix mod p, one per monomial, one entry per point.

    Each monomial's column is its parent's (the monomial with one factor of
    n or H_m less) times that factor, pointwise; parents are memoised.
    """
    n_top = max(points)
    inv = [0] + [pow(i, p - 2, p) for i in range(1, n_top + 1)]
    factors: dict[int, list[int]] = {0: [n % p for n in points]}
    for m in range(1, _max_m(monomials) + 1):
        prefix = [0] * (n_top + 1)
        acc = 0
        for i in range(1, n_top + 1):
            acc = (acc + pow(inv[i], m, p)) % p
            prefix[i] = acc
        factors[m] = [prefix[n] for n in points]
    memo = {Monomial(0): array("Q", [1]) * len(points)}

    def column(mono: Monomial) -> array:
        col = memo.get(mono)
        if col is None:
            if mono.n_power:
                parent, m = Monomial(mono.n_power - 1, mono.h_powers), 0
            else:
                *rest, (m, e) = mono.h_powers
                parent = Monomial(0, (*rest, (m, e - 1)))
            products = zip(column(parent), factors[m])
            col = memo[mono] = array("Q", [u * v % p for u, v in products])
        return col

    return [column(mono) for mono in monomials]


def _rhs_mod_p(data, points: Sequence[int], p: int) -> list[int] | None:
    """The data at ``points`` mod p; None if p divides a denominator."""
    vals = []
    for n in points:
        q = data[n]
        den = q.denominator % p
        if den == 0:
            return None
        vals.append(q.numerator % p * pow(den, p - 2, p) % p)
    return vals


def _pack(values: Iterable[int]) -> int:
    """One int holding ``values`` in 64-bit slots, the first value lowest."""
    slots = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(packed: int, count: int) -> array:
    slots = array("Q", packed.to_bytes(count * _SLOT_BITS // 8, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _solve_mod_p(columns: Sequence[Sequence[int]], b: Sequence[int], p: int):
    """Gaussian elimination of [A|b] over GF(p) on packed rows.

    A is given by its columns; they and b hold residues in 0..p-1.  Each row
    is one int of 64-bit slots, the lowest slot holding the column being
    eliminated.  Entries stay non-negative and unreduced: the pivot row is
    reduced and scaled to a leading 1 (P), and a row x whose lowest slot is
    f mod p becomes (x + (p - f) * P) >> 64, which zeroes that slot mod p
    and shifts it out.  A slot starts below p and gains less than p^2 per
    pivot, so no slot carries into the next while the template has at most
    MAX_TEMPLATE_SIZE columns.

    Returns ("unique", x), ("inconsistent", None) or ("deficient", None).
    """
    cols = len(columns)
    rows = [_pack(row) for row in zip(*columns, b)]
    pivots: list[int] = []  # packed reduced pivot rows, from their pivot on
    for col in range(cols):
        for i, x in enumerate(rows):
            if (x & _SLOT_MASK) % p:
                break
        else:  # no pivot in this column: drop it from every row
            rows = [x >> _SLOT_BITS for x in rows]
            continue
        slots = _unpack(rows.pop(i), cols + 1 - col)
        inv = pow(slots[0] % p, p - 2, p)
        P = _pack([v * inv % p for v in slots])
        pivots.append(P)
        rows = [
            (x + (p - f) * P) >> _SLOT_BITS if (f := (x & _SLOT_MASK) % p)
            else x >> _SLOT_BITS
            for x in rows
        ]
    # every column is gone, so a remaining row is 0 = its right-hand side
    if any(x % p for x in rows):
        return "inconsistent", None
    if len(pivots) < cols:
        return "deficient", None
    x: list[int] = []  # x[col + 1:], built from the last column back
    for col in reversed(range(cols)):
        pivot = _unpack(pivots[col], cols + 1 - col)
        x.insert(0, (pivot[-1] - sum(map(mul, pivot[1:-1], x))) % p)
    return "unique", x


def _crt_combine(a: int, m: int, b: int, p: int) -> int:
    diff = (b - a) % p
    return (a + m * (diff * pow(m % p, p - 2, p) % p)) % (m * p)


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    num, den = r1, s1
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    if den > bound or abs(num) > bound:
        return None
    frac = Fraction(num, den)  # reduces; verify it still matches a mod m
    if frac.denominator > bound or (frac.numerator - a * frac.denominator) % m:
        return None
    return frac


# -----------------------------------------------------------------------
# Fitting
# -----------------------------------------------------------------------


def _agrees(expr: HarmonicExpr, data: Mapping[int, Fraction], points: Iterable[int]) -> bool:
    """Whether ``expr.evaluate(n) == data[n]`` at every point, in integers.

    The integer D * L^w * expr(n) of ``HarmonicExpr._scaled`` is compared
    with the value by one cross-multiplication; no Fraction is built, and
    L = lcm(1..n) grows from point to point.
    """
    ell, upto = 1, 1  # ell = lcm(1..upto)
    for n in sorted(points):
        while upto < n:
            upto += 1
            ell = lcm(ell, upto)
        powers = list(accumulate(repeat(ell, expr._top), mul, initial=1))  # L^0..L^w
        value = data[n]
        scaled = expr._scaled(n, powers)
        if scaled * value.denominator != value.numerator * expr._den * powers[-1]:
            return False
    return True


def fit(
    data: Mapping[int, Fraction],
    monomials: Sequence[Monomial],
    train: tuple[int, int],
    test: tuple[int, int],
) -> FitReport:
    """Solve for template coefficients on ``train``, confirm on ``test``.

    ``data`` maps n to the exact sequence value.  Each window is an inclusive
    interval ``(lo, hi)`` of n with 1 <= lo <= hi, so ``(1, 20)`` is n = 1..20.
    The windows must share no point, or the test would re-check training
    equations.  The train system must be overdetermined by at least
    :data:`SLACK` equations.  The returned report is "verified" only if the
    reconstructed rational coefficients reproduce every train *and* test
    value exactly.
    """
    monos = list(monomials)
    if not monos:
        raise ValueError("empty template")
    if len(monos) > MAX_TEMPLATE_SIZE:
        raise FitSolverError(
            f"{len(monos)} monomials exceed MAX_TEMPLATE_SIZE = "
            f"{MAX_TEMPLATE_SIZE}, the most the 64-bit slots of the modular "
            f"solve can eliminate without a carry"
        )
    train, test = _window(train), _window(test)
    lo, hi = max(train[0], test[0]), min(train[1], test[1])
    if lo <= hi:
        raise ValueError(
            f"train and test windows must be disjoint, but share {hi - lo + 1} "
            f"point(s) in n = {lo}..{hi}"
        )
    train_pts, test_pts = range(train[0], train[1] + 1), range(test[0], test[1] + 1)
    if len(train_pts) < len(monos) + SLACK:
        raise InsufficientDataError(
            f"need at least {len(monos) + SLACK} training points for "
            f"{len(monos)} monomials (slack {SLACK}), got {len(train_pts)}"
        )
    for n in (*train_pts, *test_pts):
        if n not in data:
            raise InsufficientDataError(f"data does not cover n={n}")

    rng = random.Random(0x5EED)
    used: set[int] = set()
    verdicts: dict[str, int] = {}
    modulus = 0
    n_unique = 0
    combined: list[int] = []
    for _ in range(_MAX_PRIMES):
        p = _fresh_prime(rng, used)
        b = _rhs_mod_p(data, train_pts, p)
        if b is None:  # the data has no value mod p: this prime tells nothing
            continue
        status, vec = _solve_mod_p(_matrix_mod_p(monos, train_pts, p), b, p)
        if status != "unique":
            verdicts[status] = verdicts.get(status, 0) + 1
            # two independent primes must agree before declaring a verdict
            if verdicts[status] >= 2:
                final = REFUTED if status == "inconsistent" else UNDETERMINED
                return FitReport(
                    expr=None, train_range=train, test_range=test, status=final
                )
            continue
        n_unique += 1
        if modulus == 0:
            modulus, combined = p, vec
        else:
            combined = [
                _crt_combine(a, modulus, bp, p) for a, bp in zip(combined, vec)
            ]
            modulus *= p
        if n_unique < 2:
            continue
        coeffs = [_rational_reconstruct(a, modulus) for a in combined]
        if any(c is None for c in coeffs):
            continue
        expr = HarmonicExpr(
            {mono: c for mono, c in zip(monos, coeffs) if c}
        )
        if _agrees(expr, data, train_pts):
            if _agrees(expr, data, test_pts):
                residuals = (Fraction(0),) * len(test_pts)
            else:
                residuals = tuple(data[n] - expr.evaluate(n) for n in test_pts)
            status = VERIFIED if not any(residuals) else REFUTED
            return FitReport(
                expr=expr,
                train_range=train,
                test_range=test,
                residuals=residuals,
                status=status,
            )
        # reconstruction premature: keep accumulating primes
    raise FitSolverError(
        f"no stable solution after {_MAX_PRIMES} primes "
        f"({len(monos)} monomials, train {train})"
    )


# -----------------------------------------------------------------------
# Escalating guesser
# -----------------------------------------------------------------------


def check_fit_order(r: int) -> None:
    """Refuse a moment order above :data:`MAX_FIT_ORDER` with a ``ValueError``.

    ``guess_moment`` and the ``limits`` command serve the same orders, and
    both refuse a higher one before any data is built or any form derived.
    """
    r = integer(r, "r")
    if r > MAX_FIT_ORDER:
        raise ValueError(
            f"moment order {r} exceeds MAX_FIT_ORDER = {MAX_FIT_ORDER}: fitting "
            f"order 9 needs a 970-monomial template and exact moment data to "
            f"n = 1125"
        )


def guess_moment(
    r: int,
    *,
    data: Mapping[int, Fraction] | None = None,
    train: tuple[int, int] | None = None,
    test: tuple[int, int] | None = None,
) -> FitReport:
    """Escalate template bounds d = 1..r until a fit verifies.

    Order 1 targets the mean comparison count c_n; orders r >= 2 target the
    central moments about the mean.  By default each template gets its own
    windows: :data:`SLACK` more training points than monomials, then at least
    :data:`TEST_POINTS` test points and at least through :data:`TEST_FLOOR`.
    ``train`` and ``test`` (given together) fix both windows for every
    template instead; each is an inclusive interval ``(lo, hi)``, as in
    :func:`fit`.  Every window is known before the first fit, so
    without ``data`` one :func:`~qsa.moments.moment_table` call builds the
    data through the end of the last template's windows.  Orders above
    :data:`MAX_FIT_ORDER` are rejected before any data is built.
    """
    r = integer(r, "r", 1)
    check_fit_order(r)
    if (train is None) != (test is None):
        raise ValueError("train and test windows must be given together")
    if train is not None:
        train, test = _window(train), _window(test)
    ladder = []
    for d in range(1, r + 1):
        monos = template(r, d, d)
        if train is None:
            train_end = len(monos) + SLACK
            test_end = max(TEST_FLOOR, train_end + TEST_POINTS)
            ladder.append((d, monos, ((1, train_end), (train_end + 1, test_end))))
        else:
            ladder.append((d, monos, (train, test)))
    if data is None:
        top = max(hi for _, hi in ladder[-1][2])
        data = moment_table(top, r, kind="raw" if r == 1 else "central").values
    for d, monos, windows in ladder:
        report = fit(data, monos, *windows)
        report.degree = d
        if report.status == VERIFIED:
            return report
    raise GuessError(
        f"no verified closed form for moment order {r}; largest template "
        f"tried had n-degree <= {r}, harmonic weight <= {r} "
        f"({len(ladder[-1][1])} monomials)"
    )


# -----------------------------------------------------------------------
# Reference closed forms (independent transcriptions used as cross-checks)
# -----------------------------------------------------------------------


def known_mean() -> HarmonicExpr:
    """The classical closed form of the mean: 2(n+1)H_1(n) - 4n."""
    N = HarmonicExpr.variable()
    H1 = HarmonicExpr.harmonic(1)
    return 2 * (N + 1) * H1 - 4 * N


def known_central_moment(r: int) -> HarmonicExpr:
    """Tabulated closed forms of the central moments for r = 2..6.

    These transcriptions are kept independent of the fitting machinery so
    that fitted output can be compared against them term by term.
    """
    r = integer(r, "r")
    if r not in _KNOWN_BUILDERS:
        raise ValueError(f"no tabulated closed form for order {r}")
    return _KNOWN_BUILDERS[r]()


def _known_variance() -> HarmonicExpr:
    N = HarmonicExpr.variable()
    H1, H2 = (HarmonicExpr.harmonic(m) for m in (1, 2))
    return N * (7 * N + 13) - 2 * (N + 1) * H1 - 4 * (N + 1) ** 2 * H2


def _known_m3() -> HarmonicExpr:
    N = HarmonicExpr.variable()
    H1, H2, H3 = (HarmonicExpr.harmonic(m) for m in (1, 2, 3))
    return (
        -N * (19 * N**2 + 81 * N + 104)
        + H1 * (14 * N + 14)
        + 12 * (N + 1) ** 2 * H2
        + 16 * (N + 1) ** 3 * H3
    )


def _known_m4() -> HarmonicExpr:
    N = HarmonicExpr.variable()
    H1, H2, H3, H4 = (HarmonicExpr.harmonic(m) for m in (1, 2, 3, 4))
    return (
        Fraction(1, 9) * N * (2260 * N**3 + 9658 * N**2 + 15497 * N + 11357)
        - 2 * (N + 1) * (42 * N**2 + 78 * N + 77) * H1
        + 12 * (N + 1) ** 2 * H1**2
        + (-4 * (42 * N**2 + 78 * N + 31) * (N + 1) ** 2 + 48 * (N + 1) ** 3 * H1)
        * H2
        + 48 * (N + 1) ** 4 * H2**2
        - 96 * (N + 1) ** 3 * H3
        - 96 * (N + 1) ** 4 * H4
    )


def _known_m5() -> HarmonicExpr:
    N = HarmonicExpr.variable()
    H1, H2, H3, H4, H5 = (HarmonicExpr.harmonic(m) for m in (1, 2, 3, 4, 5))
    return (
        -Fraction(1, 108)
        * N
        * (
            229621 * N**4
            + 1422035 * N**3
            + 3401325 * N**2
            + 3915865 * N
            + 2217794
        )
        + 2 * (N + 1) * (190 * N**3 + 1300 * N**2 + 1950 * N + 1171) * H1
        - 280 * (N + 1) ** 2 * H1**2
        + (
            20 * (38 * N**3 + 204 * N**2 + 286 * N + 91) * (N + 1) ** 2
            - 800 * (N + 1) ** 3 * H1
        )
        * H2
        - 480 * (N + 1) ** 4 * H2**2
        + (
            80 * (14 * N**2 + 26 * N + 17) * (N + 1) ** 3
            - 320 * (N + 1) ** 4 * H1
            - 640 * (N + 1) ** 5 * H2
        )
        * H3
        + 960 * (N + 1) ** 4 * H4
        + 768 * (N + 1) ** 5 * H5
    )


def _known_m6() -> HarmonicExpr:
    N = HarmonicExpr.variable()
    H1, H2, H3, H4, H5, H6 = (HarmonicExpr.harmonic(m) for m in range(1, 7))
    return (
        Fraction(1, 2700)
        * N
        * (
            74250517 * N**5
            + 523547007 * N**4
            + 1579578725 * N**3
            + 2571768745 * N**2
            + 2342670258 * N
            + 1133389148
        )
        - Fraction(2, 3)
        * (N + 1)
        * (11300 * N**4 + 56270 * N**3 + 135760 * N**2 + 145510 * N + 68427)
        * H1
        + 20 * (63 * N**2 + 117 * N + 329) * (N + 1) ** 2 * H1**2
        - 120 * (N + 1) ** 3 * H1**3
        + (
            -Fraction(4, 3)
            * (11300 * N**4 + 51710 * N**3 + 101830 * N**2 + 93640 * N + 26013)
            * (N + 1) ** 2
            + 240 * (21 * N**2 + 39 * N + 68) * (N + 1) ** 3 * H1
            - 720 * (N + 1) ** 4 * H1**2
        )
        * H2
        + (240 * (21 * N**2 + 39 * N + 37) * (N + 1) ** 4 - 1440 * (N + 1) ** 5 * H1)
        * H2**2
        - 960 * (N + 1) ** 6 * H2**3
        + (
            -160 * (38 * N**3 + 225 * N**2 + 325 * N + 159) * (N + 1) ** 3
            + 7360 * (N + 1) ** 4 * H1
            + 9600 * (N + 1) ** 5 * H2
        )
        * H3
        + 2560 * (N + 1) ** 6 * H3**2
        + (
            -480 * (21 * N**2 + 39 * N + 37) * (N + 1) ** 4
            + 2880 * (N + 1) ** 5 * H1
            + 5760 * (N + 1) ** 6 * H2
        )
        * H4
        - 11520 * (N + 1) ** 5 * H5
        - 7680 * (N + 1) ** 6 * H6
    )


_KNOWN_BUILDERS = {
    2: _known_variance,
    3: _known_m3,
    4: _known_m4,
    5: _known_m5,
    6: _known_m6,
}
