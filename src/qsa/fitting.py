"""Closed-form discovery for moment sequences by undetermined coefficients.

The moments of the comparison count admit exact closed forms as rational
polynomial combinations of n and the generalized harmonic numbers
H_1(n)..H_r(n).  This module rediscovers them the data-driven way: build a
monomial template, solve for the coefficients on a training window of
exact moment values, and confirm the candidate on a disjoint (much larger)
testing window with *exactly zero* residuals.  Nothing here is
floating-point: a "verified" report means every train and test equation
holds in rational arithmetic.

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
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

from .errors import FitSolverError, GuessError, InsufficientDataError
from .moments import DEFAULT_ORDER, moment_table
from .numeric import harmonic

VERIFIED = "verified"
REFUTED = "refuted"
UNDETERMINED = "underdetermined"

DEFAULT_SLACK = 5
DEFAULT_TEST_POINTS = 150
DEFAULT_TEST_FLOOR = 306

_MAX_PRIMES = 32


@dataclass(frozen=True)
class Monomial:
    """n^n_power * prod H_m(n)^e over the positive-exponent pairs (m, e)."""

    n_power: int
    h_powers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_power < 0:
            raise ValueError("n_power must be non-negative")
        pairs = tuple(sorted((int(m), int(e)) for m, e in self.h_powers if e))
        if any(m < 1 or e < 0 for m, e in pairs):
            raise ValueError("harmonic powers need m >= 1 and e >= 0")
        object.__setattr__(self, "h_powers", pairs)

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

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        clean = {m: Fraction(c) for m, c in terms.items() if c}
        self._terms = clean

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
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = HarmonicExpr.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HarmonicExpr.constant(other)
        if not isinstance(other, HarmonicExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
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
        """Exact value at integer n >= 1 using exact harmonic numbers."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("harmonic expressions are evaluated at integer n >= 1")
        total = Fraction(0)
        powers: dict[tuple[int, int], Fraction] = {}
        for mono, coeff in self._terms.items():
            val = coeff * Fraction(n) ** mono.n_power
            for m, e in mono.h_powers:
                key = (m, e)
                p = powers.get(key)
                if p is None:
                    p = powers[key] = harmonic(m, n) ** e
                val *= p
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
        terms = {}
        for item in data:
            mono = Monomial(
                int(item["n_pow"]),
                tuple((int(m), int(e)) for m, e in item["h_pows"]),
            )
            coeff = Fraction(int(item["coeff"]["num"]), int(item["coeff"]["den"]))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return cls(terms)


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
    if r < 0 or n_degree_bound < 0 or h_weight_bound < 0:
        raise ValueError("template bounds must be non-negative")
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


RangeLike = Union[tuple[int, int], range, Sequence[int]]


def _as_points(rng: RangeLike) -> list[int]:
    if isinstance(rng, tuple) and len(rng) == 2:
        a, b = rng
        points = list(range(int(a), int(b) + 1))
    elif isinstance(rng, range):
        points = list(rng)
    else:
        points = [int(x) for x in rng]
    if not points or min(points) < 1:
        raise ValueError("fit ranges must contain integers >= 1")
    return points


def _span(points: Sequence[int]) -> tuple[int, int]:
    return (min(points), max(points))


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
    # 24-25 bit primes keep int64 elimination overflow-safe (p^2 < 2^50)
    # while staying far above every denominator prime factor (<= n_max).
    while True:
        c = rng.randrange(1 << 24, 1 << 25) | 1
        if c not in used and _is_prime(c):
            used.add(c)
            return c


def _matrix_mod_p(
    monomials: Sequence[Monomial], points: Sequence[int], p: int
) -> np.ndarray:
    import numpy as np  # only fits need numpy; keep it out of other imports

    n_top = max(points)
    inv = [0] * (n_top + 1)
    for i in range(1, n_top + 1):
        inv[i] = pow(i, p - 2, p)
    pts = np.asarray(points, dtype=np.int64)
    h_mod: dict[int, np.ndarray] = {}
    for m in range(1, _max_m(monomials) + 1):
        prefix = [0] * (n_top + 1)
        acc = 0
        for i in range(1, n_top + 1):
            acc = (acc + pow(inv[i], m, p)) % p
            prefix[i] = acc
        h_mod[m] = np.asarray(prefix, dtype=np.int64)[pts]
    n_mod = pts % p
    cols = []
    for mono in monomials:
        col = np.ones(len(points), dtype=np.int64)
        for _ in range(mono.n_power):
            col = col * n_mod % p
        for m, e in mono.h_powers:
            hm = h_mod[m]
            for _ in range(e):
                col = col * hm % p
        cols.append(col)
    return np.stack(cols, axis=1)


def _rhs_mod_p(data, points: Sequence[int], p: int) -> list[int]:
    vals = []
    for n in points:
        q = data[n]
        den = q.denominator % p
        if den == 0:
            raise FitSolverError(f"prime {p} divides a data denominator at n={n}")
        vals.append(q.numerator % p * pow(den, p - 2, p) % p)
    return vals


def _solve_mod_p(A: np.ndarray, b: Sequence[int], p: int):
    """Gaussian elimination of [A|b] over GF(p).

    Returns ("unique", x), ("inconsistent", None) or ("deficient", None).
    """
    import numpy as np

    rows, cols = A.shape
    b_col = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    M = np.concatenate([A, b_col], axis=1) % p
    row = 0
    pivots = 0
    for col in range(cols):
        nz = np.flatnonzero(M[row:, col])
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            M[[row, pr]] = M[[pr, row]]
        inv = pow(int(M[row, col]), p - 2, p)
        M[row] = M[row] * inv % p
        below = M[row + 1 :]
        if below.size:
            M[row + 1 :] = (below - np.outer(below[:, col], M[row])) % p
        pivots += 1
        row += 1
        if row == rows:
            break
    tail = M[row:]
    if tail.size and bool(
        ((tail[:, :cols] == 0).all(axis=1) & (tail[:, cols] != 0)).any()
    ):
        return "inconsistent", None
    if pivots < cols:
        return "deficient", None
    x = np.zeros(cols, dtype=np.int64)
    for i in reversed(range(cols)):
        x[i] = (int(M[i, cols]) - int(M[i, i + 1 : cols] @ x[i + 1 :])) % p
    return "unique", [int(v) for v in x]


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


def fit(
    data: Mapping[int, Fraction],
    monomials: Sequence[Monomial],
    train: RangeLike,
    test: RangeLike,
    slack: int = DEFAULT_SLACK,
) -> FitReport:
    """Solve for template coefficients on ``train``, confirm on ``test``.

    ``data`` maps n to the exact sequence value.  The train system must be
    overdetermined by at least ``slack`` equations.  The returned report is
    "verified" only if the reconstructed rational coefficients reproduce
    every train *and* test value exactly.
    """
    monos = list(monomials)
    if not monos:
        raise ValueError("empty template")
    train_pts = _as_points(train)
    test_pts = _as_points(test)
    if len(train_pts) < len(monos) + slack:
        raise InsufficientDataError(
            f"need at least {len(monos) + slack} training points for "
            f"{len(monos)} monomials (slack {slack}), got {len(train_pts)}"
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
        A = _matrix_mod_p(monos, train_pts, p)
        b = _rhs_mod_p(data, train_pts, p)
        status, vec = _solve_mod_p(A, b, p)
        if status != "unique":
            verdicts[status] = verdicts.get(status, 0) + 1
            # two independent primes must agree before declaring a verdict
            if verdicts[status] >= 2:
                final = REFUTED if status == "inconsistent" else UNDETERMINED
                return FitReport(
                    expr=None,
                    train_range=_span(train_pts),
                    test_range=_span(test_pts),
                    status=final,
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
        if all(expr.evaluate(n) == data[n] for n in train_pts):
            residuals = tuple(data[n] - expr.evaluate(n) for n in test_pts)
            status = VERIFIED if not any(residuals) else REFUTED
            return FitReport(
                expr=expr,
                train_range=_span(train_pts),
                test_range=_span(test_pts),
                residuals=residuals,
                status=status,
            )
        # reconstruction premature: keep accumulating primes
    raise FitSolverError(
        f"no stable solution after {_MAX_PRIMES} primes "
        f"({len(monos)} monomials, train {_span(train_pts)})"
    )


# -----------------------------------------------------------------------
# Escalating guesser
# -----------------------------------------------------------------------

# Not functools.cache: the longest table built so far answers every shorter
# request, so one growing entry per order is kept.
_data_cache: dict[tuple[int, str], tuple[int, Mapping[int, Fraction]]] = {}
_data_lock = threading.Lock()


def _moment_data(r: int, n_max: int) -> Mapping[int, Fraction]:
    kind = "raw" if r == 1 else "central"
    key = (r, kind)
    with _data_lock:
        hit = _data_cache.get(key)
        if hit is not None and hit[0] >= n_max:
            return hit[1]
    values = moment_table(n_max, r, kind=kind).values
    with _data_lock:
        _data_cache[key] = (n_max, values)
    return values


def guess_moment(
    r: int,
    n_max_data: int | None = None,
    *,
    slack: int = DEFAULT_SLACK,
    test_points: int = DEFAULT_TEST_POINTS,
    test_floor: int = DEFAULT_TEST_FLOOR,
    data: Mapping[int, Fraction] | None = None,
    train: RangeLike | None = None,
    test: RangeLike | None = None,
) -> FitReport:
    """Escalate template bounds d = 1..r until a fit verifies.

    Order 1 targets the mean comparison count c_n; orders r >= 2 target the
    central moments about the mean.  Moment data is generated on demand via
    the truncated-series route (and cached); ``n_max_data`` caps how far it
    may be generated, raising :class:`InsufficientDataError` when the cap
    makes a template unfittable.  By default each template gets its own
    windows: ``slack`` more training points than monomials, then at least
    ``test_points`` test points and at least through ``test_floor``.
    ``train`` and ``test`` (given together) fix both windows for every
    template instead, and ``n_max_data`` is then unused.  Orders above
    ``moments.DEFAULT_ORDER`` are rejected before any data is built.
    """
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if r > DEFAULT_ORDER:
        raise ValueError(f"order {r} exceeds series truncation {DEFAULT_ORDER}")
    if (train is None) != (test is None):
        raise ValueError("train and test windows must be given together")
    last_size = 0
    for d in range(1, r + 1):
        monos = template(r, d, d)
        last_size = len(monos)
        if train is not None:
            windows = (train, test)
            top = max(_as_points(train) + _as_points(test))
        else:
            train_end = len(monos) + slack
            top = max(test_floor, train_end + test_points)
            if n_max_data is not None:
                if n_max_data < train_end + 1:
                    raise InsufficientDataError(
                        f"template d={d} needs data through n={train_end + 1}, "
                        f"but n_max_data={n_max_data}"
                    )
                top = min(top, n_max_data)
            windows = ((1, train_end), (train_end + 1, top))
        table = data if data is not None else _moment_data(r, top)
        report = fit(table, monos, *windows, slack=slack)
        report.degree = d
        if report.status == VERIFIED:
            return report
    raise GuessError(
        f"no verified closed form for moment order {r}; largest template "
        f"tried had n-degree <= {r}, harmonic weight <= {r} "
        f"({last_size} monomials)"
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
