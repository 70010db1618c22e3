"""The benchmark's workloads: cold ``qsa`` commands made from a seed, and the
checks of their outputs against ``reference``.

A workload is one round of commands.  The seed picks only inputs that do
not change the amount of work (bin widths, thresholds, RNG seeds, window
ends within a few points), so rounds made from different seeds cost the
same.  Each check raises ``Mismatch`` on the first wrong value; a command
that exited non-zero is passed to the check as ``None`` and not checked.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt
from typing import Callable, Optional

from mpmath import mp, mpf

import reference

# exact-distribution: one cold pgf build of this size takes about a second.
PGF_N = 50
MOMENT_R = 4
BIN_WIDTHS = ("0.05", "0.1", "0.125", "0.2", "0.25")

# closed-forms: the limits command fits orders 3..4.  The layer replay fits
# orders 1..6, which need moment data through n = 365.
LIMIT_ORDERS = (3, 4)
REPLAY_ORDERS = (3, 6)
WINDOW_ENDS = (140, 150)  # range of the guess test window's end and of moments-table's nmax
TABLE_RMAX = 6
SMALL_N = 12  # moments-table rows checked against the convolved distribution
FAILING_LIMIT = ["limits", "--r", "3", "--precision", "30"]

# large-n-tails: two target sizes, a threshold in each tail of each.
SURROGATE = 40
TAIL_SIZES = (10_000, 30_000)

# simulation
SIM_N = 1000
SIM_TRIALS = 200
ORACLE_N = 11
SELECT_N = 1000
SELECT_TRIALS = 3


class Mismatch(Exception):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Workload:
    commands: list[list[str]]
    check: Callable[[list[Optional[str]]], None]
    inputs: dict


# -----------------------------------------------------------------------
# Checks shared by several workloads
# -----------------------------------------------------------------------


def check_distribution(coeffs, n: int) -> dict[int, Fraction]:
    """Check rows [k, num, den] of a printed distribution of X_n; return it."""
    dist = {int(k): Fraction(int(num), int(den)) for k, num, den in coeffs}
    expect(len(dist) == len(coeffs), f"n={n}: repeated support point")
    expect(all(p > 0 for p in dist.values()), f"n={n}: non-positive probability")
    expect(sum(dist.values()) == 1, f"n={n}: mass is not exactly 1")
    top = n * (n - 1) // 2
    expect(min(dist) == reference.min_comparisons(n), f"n={n}: bottom of support is {min(dist)}")
    expect(max(dist) == top, f"n={n}: top of support is {max(dist)}")
    nf = factorial(n)
    expect(dist[top] == Fraction(2 ** (n - 1), nf), f"n={n}: wrong Pr(max)")
    g2 = sum(p * nf * 2**k for k, p in dist.items())
    expect(g2 == reference.scaled_pgf_at(2, n)[n], f"n={n}: n! g_n(2) disagrees with the recurrence")
    return dist


def close(value: mpf, target: mpf, tol) -> bool:
    return abs(value - target) <= tol


def check_simulate(text: str, inputs: dict) -> None:
    out = json.loads(text)
    n, trials = inputs["sim_n"], inputs["sim_trials"]
    expect((out["n"], out["trials"], out["seed"]) == (n, trials, inputs["sim_seed"]), "simulate echoes wrong inputs")
    c, v = reference.mean(n), reference.variance(n)
    se = sqrt(v / trials)
    expect(abs(out["mean"] - float(c)) <= 5 * se, f"simulate mean {out['mean']} is over 5 SE from {float(c)}")
    expect(reference.min_comparisons(n) <= out["min"] <= out["mean"] <= out["max"] <= n * (n - 1) // 2,
           "simulate min/max outside the support")


# -----------------------------------------------------------------------
# Workloads
# -----------------------------------------------------------------------


def exact_distribution(seed: int) -> Workload:
    n = PGF_N
    width = random.Random(seed).choice(BIN_WIDTHS)
    commands = [
        ["pgf", "--n", str(n), "--format", "json"],
        ["density", "--n", str(n), "--bin", width],
        ["moment", "--n", str(n), "--r", str(MOMENT_R)],
    ]

    def check(out):
        if out[0] is not None:
            payload = json.loads(out[0])
            expect(payload["n"] == n, "pgf echoes wrong n")
            dist = check_distribution(payload["coeffs"], n)
        else:
            dist = reference.distribution(n)
        mean_k = sum(k * p for k, p in dist.items())
        expect(mean_k == reference.mean(n), "pgf mean disagrees with 2(n+1)H_n - 4n")
        central = reference.moments(dist, MOMENT_R)
        expect(central[2] == reference.variance(n), "pgf variance disagrees with the classical form")
        if out[2] is not None:
            m = json.loads(out[2])
            expect(Fraction(int(m["num"]), int(m["den"])) == central[MOMENT_R],
                   f"moment r={MOMENT_R} differs from the distribution's")
        if out[1] is not None:
            check_density(out[1], n, Fraction(width), dist)

    return Workload(commands, check, {"n": n, "width": width, "r": MOMENT_R})


def check_density(text: str, n: int, width: Fraction, dist) -> None:
    rows = [line.split(",") for line in text.split()]
    expect(all(len(r) == 3 for r in rows), "density rows need three columns")
    expect(all(rows[i][1] == rows[i + 1][0] for i in range(len(rows) - 1)), "density bins are not contiguous")
    with mp.workdps(30):
        left = [mpf(r[0]) for r in rows]
        right = [mpf(r[1]) for r in rows]
        # z is printed with 12 significant digits
        expect(all(close(b - a, mpf(width.numerator) / width.denominator, 1e-10) for a, b in zip(left, right)),
               "density bin width differs from --bin")
        z_lo, z_hi = reference.z_score(n, min(dist)), reference.z_score(n, max(dist))
        expect(close(left[0], z_lo, 1e-10), "first bin does not start at the lowest atom")
        expect(left[-1] - 1e-10 <= z_hi <= right[-1] + 1e-10, "last bin does not hold the highest atom")
    mass = [Fraction(r[2]) for r in rows]
    expect(all(m >= 0 for m in mass), "negative density mass")
    # each mass is printed with 17 significant digits, so within 1e-16 of itself
    expect(abs(sum(mass) - 1) <= Fraction(1, 10**16), f"density masses sum to {float(sum(mass))}")


def closed_forms(seed: int) -> Workload:
    rng = random.Random(seed)
    precision = rng.randint(50, 60)
    test_end = rng.randint(*WINDOW_ENDS)
    nmax = rng.randint(*WINDOW_ENDS)
    lo, hi = LIMIT_ORDERS
    commands = [
        ["limits", "--r", f"{lo}..{hi}", "--precision", str(precision)],
        ["guess", "--r", "1", "--train", "1..9", "--test", f"10..{test_end}"],
        ["moments-table", "--nmax", str(nmax), "--rmax", str(TABLE_RMAX)],
        FAILING_LIMIT,
    ]

    def check(out):
        with mp.workdps(90):
            check_round(out, fixed_point_limits())

    def check_round(out, limits):
        if out[0] is not None:
            lines = [json.loads(line) for line in out[0].splitlines()]
            expect([d["r"] for d in lines] == list(range(lo, hi + 1)), "limits prints the wrong orders")
            for d in lines:
                expect(close(mpf(d["value"]), limits[d["r"]], mpf("1e-40")),
                       f"limit r={d['r']} is over 1e-40 from the fixed-point value")
        if out[1] is not None:
            check_guess_mean(out[1], test_end)
        if out[2] is not None:
            check_moments_table(out[2], nmax)
        if out[3] is not None:
            (d,) = [json.loads(line) for line in out[3].splitlines()]
            expect(d["r"] == 3 and close(mpf(d["value"]), limits[3], mpf("1e-28")),
                   "precision-30 limit is over 1e-28 from the fixed-point value")

    return Workload(commands, check, {"precision": precision, "test_end": test_end, "nmax": nmax})


@lru_cache(maxsize=None)
def fixed_point_limits() -> dict[int, mpf]:
    return reference.fixed_point_limits(REPLAY_ORDERS[1])


def check_guess_mean(text: str, test_end: int) -> None:
    out = json.loads(text)
    expect(out["status"] == "verified" and out["degree"] == 1, "guess --r 1 did not verify at degree 1")
    expect((out["train"], out["test"]) == ("1..9", f"10..{test_end}"), "guess echoes wrong windows")
    terms = {
        (t["n_pow"], tuple(map(tuple, t["h_pows"]))): Fraction(int(t["coeff"]["num"]), int(t["coeff"]["den"]))
        for t in out["expr"]
    }
    # 2(n+1)H_1 - 4n = 2 n H_1 + 2 H_1 - 4 n
    expect(terms == {(1, ((1, 1),)): 2, (0, ((1, 1),)): 2, (1, ()): -4}, "guess --r 1 is not 2(n+1)H_n - 4n")


def check_moments_table(text: str, nmax: int) -> None:
    rows = {}
    for line in text.split():
        n, r, num, den = map(int, line.split(","))
        rows[n, r] = Fraction(num, den)
    expect(len(rows) == nmax * TABLE_RMAX == len(text.split()), "moments-table has missing or repeated rows")
    _, variances = reference.classical_tables(nmax)
    for n in range(1, nmax + 1):
        expect(rows[n, 1] == 0, f"central moment r=1 at n={n} is not 0")
        expect(rows[n, 2] == variances[n], f"variance at n={n} disagrees with the classical form")
    for n in range(1, SMALL_N + 1):
        central = reference.moments(reference.convolved_distribution(n), TABLE_RMAX)
        for r in range(3, TABLE_RMAX + 1):
            expect(rows[n, r] == central[r], f"moment r={r} at n={n} disagrees with the convolved distribution")


def large_n_tails(seed: int) -> Workload:
    rng = random.Random(seed)
    queries = []
    for size in TAIL_SIZES:
        n = size + rng.randrange(200)
        c, sd = reference.mean_and_sd(n)
        queries.append((n, int(c - rng.uniform(0.5, 2.0) * sd)))
        queries.append((n, int(c + rng.uniform(0.5, 3.0) * sd)))
    c, sd = reference.mean_and_sd(SURROGATE)
    exact_x = int(c + rng.uniform(-1.5, 2.0) * sd)
    queries.append((SURROGATE, exact_x))
    commands = [["tail", "--n", str(n), "--x", str(x), "--surrogate", str(SURROGATE)] for n, x in queries]

    def check(out):
        with mp.workdps(60):
            check_tails(out)

    def check_tails(out):
        probs = {}
        for (n, x), text in zip(queries, out):
            if text is None:
                continue
            d = json.loads(text)
            expect((d["n"], d["threshold"], d["surrogate"]) == (n, x, SURROGATE), "tail echoes wrong inputs")
            p = mpf(d["probability"])
            expect(0 <= p <= 1, f"tail probability {p} outside [0, 1]")
            z = reference.z_score(n, x)
            expect(close(mpf(d["z"]), z, abs(z) * mpf("1e-16")), f"tail z at n={n}, x={x} differs from (x - c_n)/sd")
            probs[n, x] = p
        for (n, x_lo), (_, x_hi) in zip(queries[0:-1:2], queries[1:-1:2]):
            if (n, x_lo) in probs and (n, x_hi) in probs:
                expect(probs[n, x_lo] >= probs[n, x_hi], f"tail at n={n} increases with x")
        if (SURROGATE, exact_x) in probs:
            dist = reference.distribution(SURROGATE)
            tail = sum(p for k, p in dist.items() if k > exact_x)
            exact = mpf(tail.numerator) / tail.denominator
            expect(close(probs[SURROGATE, exact_x], exact, exact * mpf("1e-48")),
                   f"tail at n={SURROGATE} differs from the exact tail sum")

    return Workload(commands, check, {"queries": queries, "surrogate": SURROGATE})


def simulation(seed: int) -> dict:
    """Inputs of the simulate command that closes every round and of the
    simulator calls in the layer replay."""
    rng = random.Random(seed)
    sim_seed, select_seed = rng.randrange(2**31), rng.randrange(2**31)
    return {"sim_n": SIM_N, "sim_trials": SIM_TRIALS, "sim_seed": sim_seed,
            "oracle_n": ORACLE_N, "select_n": SELECT_N, "select_trials": SELECT_TRIALS, "select_seed": select_seed}


def check_oracle(rows) -> None:
    """Check rows [k, num, den] of the exhaustive distribution of X_ORACLE_N."""
    expect({k: Fraction(a, b) for k, a, b in rows} == reference.convolved_distribution(ORACLE_N)
           and len(rows) == len(reference.convolved_distribution(ORACLE_N)),
           "oracle differs from the convolved distribution")


def check_selection(counts: list[int]) -> None:
    expect(counts == [SELECT_N * (SELECT_N - 1) // 2] * SELECT_TRIALS,
           "selection sort did not make n(n-1)/2 comparisons")


def simulate_command(inputs: dict) -> list[str]:
    return ["simulate", "--n", str(inputs["sim_n"]), "--trials", str(inputs["sim_trials"]),
            "--seed", str(inputs["sim_seed"])]


def combine(*parts: Workload) -> Workload:
    """One round of each part's commands in turn, each checked by its part."""

    def check(out):
        start = 0
        for part in parts:
            part.check(out[start:start + len(part.commands)])
            start += len(part.commands)

    inputs = {k: v for part in parts for k, v in part.inputs.items()}
    return Workload([c for part in parts for c in part.commands], check, inputs)


def distribution(seed: int) -> Workload:
    return combine(exact_distribution(seed), large_n_tails(seed))


WORKLOADS = {
    "distribution": distribution,
    "closed-forms": closed_forms,
}


def check_replay(results: dict, seed: int) -> None:
    """Check the values the in-process layer replay (layers.py) returns."""
    n = PGF_N
    expect(int(results["g2"]) == reference.scaled_pgf_at(2, n)[n], "scaled_pgf disagrees with the recurrence at t=2")
    expect(Fraction(results["density_mass"]) == 1, "density masses do not sum to exactly 1")
    expect(results["verified"], "a fit did not reproduce its own data")
    expect([Fraction(v) for v in results["fits_at_400"]] == [reference.mean(400), reference.variance(400)],
           "fitted mean or variance differs from the classical form at n=400")
    with mp.workdps(90):
        limits = fixed_point_limits()
        for r, value in results["limits"].items():
            expect(close(mpf(value), limits[int(r)], mpf("1e-40")), f"limit r={r} is over 1e-40 from the fixed-point value")
        probs = [mpf(p) for _, _, p in results["tails"]]
    expect(all(0 <= p <= 1 for p in probs), "tail probability outside [0, 1]")
    expect(all(a >= b for a, b in zip(probs[0:-1:2], probs[1:-1:2])), "tail increases with x")
    check_simulate(json.dumps(results["simulate"]), simulation(seed))
    check_oracle(results["oracle"])
    check_selection(results["selection"])
