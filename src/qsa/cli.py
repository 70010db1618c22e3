"""Command-line front end.

One subcommand per analysis surface, machine-readable output only (CSV or
JSON, selected with --format where both are defined), deterministic for a
fixed flag set and seed.  ``--out FILE`` redirects output to a file.

Config precedence is flags > environment (QSA_NMAX, QSA_NMAX_GUESS,
QSA_PRECISION, QSA_SURROGATE) > built-in defaults.  Every ``--precision``
accepts 30..100 significant digits (``numeric.PRECISION_RANGE``).  Exit
codes: 2 for usage errors, 1 for computation failures (guess exhaustion,
stability-gate trips), 0 otherwise.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import click
from mpmath import mp, mpf, nstr

from .asymptotics import scaled_moment_limit
from .distribution import export_density, tail_probability
from .errors import QsaError
from .fitting import guess_moment
from .moments import central_moment, moment_table, raw_moment
from .numeric import PRECISION_RANGE, check_zeta_order
from .pgf import pgf as exact_pgf
from .simulate import (
    EXHAUSTIVE_LIMIT,
    SimConfig,
    exhaustive_distribution,
    monte_carlo,
    selection_sort_count,
)

_FORMAT = click.Choice(["csv", "json"])


class _RangeParam(click.ParamType):
    """Inclusive integer range ``A..B`` (a bare integer means A..A)."""

    name = "A..B"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        text = str(value)
        try:
            if ".." in text:
                lo_s, hi_s = text.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(text)
        except ValueError:
            self.fail(f"expected A..B or a single integer, got {text!r}", param, ctx)
        if hi < lo:
            self.fail(f"empty range {text!r}", param, ctx)
        return (lo, hi)


RANGE = _RangeParam()


def _domain_errors(fn):
    # computation failures exit 1; click handles usage errors with exit 2
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (QsaError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _write(text: str, out) -> None:
    if out is None:
        click.echo(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _out_option(fn):
    return click.option(
        "--out", type=click.Path(dir_okay=False, writable=True), default=None,
        help="Write output to a file instead of stdout.",
    )(fn)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def high_real_str(x, digits: int) -> str:
    """Deterministic decimal rendering with ``digits`` significant digits."""
    with mp.workdps(digits + 5):
        return nstr(x, digits, strip_zeros=False)


_precision_option = click.option(
    "--precision", type=click.IntRange(*PRECISION_RANGE), default=50,
    show_default=True, envvar="QSA_PRECISION",
)


@click.group()
def cli():
    """Exact analysis of Quicksort's comparison count."""


# -----------------------------------------------------------------------
# Distributions
# -----------------------------------------------------------------------


def _csv(rows) -> str:
    return "\n".join(",".join(map(str, row)) for row in rows)


def _write_dist(n: int, items, fmt: str, out) -> None:
    # rows k,num,den over the support points of positive mass
    rows = [[k, str(p.numerator), str(p.denominator)] for k, p in items if p]
    _write(_csv(rows) if fmt == "csv" else _json_dumps({"n": n, "coeffs": rows}), out)


@cli.command(name="pgf")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
@_out_option
@_domain_errors
def pgf_cmd(n, fmt, out):
    """Exact distribution of the comparison count (rows k,num,den)."""
    _write_dist(n, exact_pgf(n).items(), fmt, out)


@cli.command()
@click.option("--n", type=click.IntRange(min=0, max=EXHAUSTIVE_LIMIT), required=True)
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
@_out_option
@_domain_errors
def oracle(n, fmt, out):
    """Exact distribution by exhaustive pivot enumeration (rows k,num,den)."""
    _write_dist(n, exhaustive_distribution(n).items(), fmt, out)


# -----------------------------------------------------------------------
# Moments
# -----------------------------------------------------------------------


@cli.command()
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--r", type=click.IntRange(min=0), required=True)
@click.option("--kind", type=click.Choice(["raw", "central"]), default="central",
              show_default=True)
@click.option("--format", "fmt", type=_FORMAT, default="json", show_default=True)
@_out_option
@_domain_errors
def moment(n, r, kind, fmt, out):
    """One exact moment of the comparison count (exact-PGF route)."""
    value = raw_moment(n, r) if kind == "raw" else central_moment(n, r)
    if fmt == "csv":
        _write(f"{n},{r},{value.numerator},{value.denominator}", out)
    else:
        payload = {
            "n": n,
            "r": r,
            "kind": kind,
            "num": str(value.numerator),
            "den": str(value.denominator),
        }
        _write(_json_dumps(payload), out)


@cli.command(name="moments-table")
@click.option("--nmax", type=click.IntRange(min=1), default=130, show_default=True,
              envvar="QSA_NMAX")
@click.option("--rmax", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--kind", type=click.Choice(["raw", "central"]), default="central",
              show_default=True)
@click.option("--source", type=click.Choice(["series", "exact"]), default="series",
              show_default=True,
              help="Truncated-series route (fast) or exact-PGF route (authoritative).")
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
@_out_option
@_domain_errors
def moments_table(nmax, rmax, kind, source, fmt, out):
    """Moment table, one row n,r,num,den per (n, r).

    The series route truncates the expansions at order rmax.
    """
    r_lo = 1 if kind == "central" else 0
    rows = []
    if source == "series":
        for r in range(r_lo, rmax + 1):
            table = moment_table(nmax, r, kind=kind)
            for n in range(r_lo, nmax + 1):
                rows.append((n, r, table.values[n]))
        rows.sort()
    else:
        exact = raw_moment if kind == "raw" else central_moment
        for n in range(r_lo, nmax + 1):
            for r in range(r_lo, rmax + 1):
                rows.append((n, r, exact(n, r)))
    table = [[n, r, str(v.numerator), str(v.denominator)] for n, r, v in rows]
    if fmt == "csv":
        _write(_csv(table), out)
    else:
        payload = {"kind": kind, "nmax": nmax, "rmax": rmax, "moments": table}
        _write(_json_dumps(payload), out)


# -----------------------------------------------------------------------
# Closed forms and limits
# -----------------------------------------------------------------------


@cli.command()
@click.option("--r", type=click.IntRange(min=1), required=True)
@click.option("--nmax", type=click.IntRange(min=2), default=None,
              envvar="QSA_NMAX_GUESS",
              help="Cap on generated moment data for the automatic windows "
              "(default: as much as needed).")
@click.option("--train", type=RANGE, default=None,
              help="Explicit training range A..B (default: automatic).")
@click.option("--test", type=RANGE, default=None,
              help="Explicit testing range C..D (default: automatic).")
@_out_option
@_domain_errors
def guess(r, nmax, train, test, out):
    """Rediscover the closed form of a moment by undetermined coefficients."""
    if (train is None) != (test is None):
        raise click.UsageError("--train and --test must be given together")
    report = guess_moment(r, n_max_data=nmax, train=train, test=test)
    payload = {
        "r": r,
        "status": report.status,
        "degree": report.degree,
        "train": f"{report.train_range[0]}..{report.train_range[1]}",
        "test": f"{report.test_range[0]}..{report.test_range[1]}",
        "expr": report.expr.to_json() if report.expr is not None else None,
    }
    _write(_json_dumps(payload), out)


@cli.command()
@click.option("--r", "r_range", type=RANGE, required=True,
              help="Scaled moment order(s), e.g. 3 or 3..8.")
@_precision_option
@_out_option
@_domain_errors
def limits(r_range, precision, out):
    """Limiting scaled moments from freshly fitted closed forms.

    One JSON object per line.  Orders 7 and 8 need moment data up to
    n = 758 and take a few minutes on first use; orders above 8 have no
    embedded zeta constant and fail at once.
    """
    lo, hi = r_range
    if lo < 2:
        raise click.UsageError("scaled moments require r >= 2")
    # m_r's top terms carry H_r, so fail before fitting anything
    check_zeta_order(hi)
    base = guess_moment(2)
    lines = []
    for r in range(lo, hi + 1):
        rep = base if r == 2 else guess_moment(r)
        val = scaled_moment_limit(r, rep.expr, base.expr, precision)
        lines.append(
            json.dumps(
                {
                    "r": r,
                    "value": high_real_str(val.value, precision),
                    "stable_digits": val.stability,
                }
            )
        )
    _write("\n".join(lines), out)


# -----------------------------------------------------------------------
# Scaled distribution
# -----------------------------------------------------------------------


@cli.command()
@click.option("--n", type=click.IntRange(min=3), default=130, show_default=True)
@click.option("--bin", "bin_width", type=str, default="0.1", show_default=True)
@_precision_option
@_out_option
@_domain_errors
def density(n, bin_width, precision, out):
    """Histogram of the scaled distribution Z_n (rows z_left,z_right,mass)."""
    if float(Fraction(bin_width)) <= 0:
        raise click.UsageError("--bin must be positive")
    bins = export_density(n, Fraction(bin_width), precision)
    with mp.workdps(precision + 5):
        rows = [
            "{},{},{}".format(
                high_real_str(b.z_left, 12),
                high_real_str(b.z_right, 12),
                high_real_str(mpf(b.mass.numerator) / mpf(b.mass.denominator), 17),
            )
            for b in bins
        ]
    _write("\n".join(rows), out)


@cli.command()
@click.option("--n", type=click.IntRange(min=3), required=True)
@click.option("--x", type=int, required=True, help="Comparison-count threshold.")
@click.option("--surrogate", type=click.IntRange(min=3), default=130,
              show_default=True, envvar="QSA_SURROGATE")
@_precision_option
@_out_option
@_domain_errors
def tail(n, x, surrogate, precision, out):
    """Pr(comparisons > x) for length n, via the scaled surrogate."""
    est = tail_probability(n, x, surrogate_n=surrogate, precision=precision)
    payload = {
        "n": n,
        "threshold": x,
        "surrogate": surrogate,
        "z": high_real_str(est.z_cut, min(precision, 17)),
        "probability": high_real_str(est.probability, precision),
        "saturated": est.saturated,
    }
    _write(_json_dumps(payload), out)


# -----------------------------------------------------------------------
# Simulation
# -----------------------------------------------------------------------


@cli.command(name="simulate")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=10000,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_out_option
@_domain_errors
def simulate_cmd(n, trials, seed, out):
    """Monte Carlo comparison counts over random permutations."""
    stats = monte_carlo(SimConfig(n=n, trials=trials, seed=seed))
    payload = {
        "n": n,
        "trials": stats.trials,
        "seed": seed,
        "mean": stats.mean,
        "variance": stats.variance,
        "skewness": stats.skewness,
        "min": stats.min_count,
        "max": stats.max_count,
    }
    _write(_json_dumps(payload), out)


@cli.command(name="selection-count")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_out_option
@_domain_errors
def selection_count(n, trials, seed, out):
    """Selection-sort comparison counts (always n(n-1)/2) on random inputs."""
    import random as _random

    rng = _random.Random(seed)
    counts = []
    for _ in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        _, c = selection_sort_count(perm)
        counts.append(c)
    formula = n * (n - 1) // 2
    payload = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "counts": counts,
        "formula": formula,
        "all_match": all(c == formula for c in counts),
    }
    _write(_json_dumps(payload), out)


def main():
    cli(prog_name="qsa")


if __name__ == "__main__":
    main()
