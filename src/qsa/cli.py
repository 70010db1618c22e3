"""Command-line front end.

One subcommand per analysis surface, machine-readable output only (CSV or
JSON, selected with --format where both are defined), deterministic for a
fixed flag set and seed.  ``--out FILE`` redirects output to a file: an
existing writable one, or a new one in an existing, writable directory.

Config precedence is flags > environment (QSA_NMAX, QSA_PRECISION,
QSA_SURROGATE) > built-in defaults.  Every ``--precision`` accepts 30..100
significant digits (``numeric.PRECISION_RANGE``).  Exit codes: 2 for usage
errors, 1 for computation failures (guess exhaustion, stability-gate trips),
0 otherwise.

Every command starts in a fresh process, so start-up is part of its cost.
Importing this module loads click, the exception types and the exact-PGF
layer, and nothing else of the package; each command imports the layers it
runs in its body.  ``pgf``, ``moment``, ``moments-table``, ``guess``,
``oracle`` and ``simulate`` never load mpmath, and no command loads numpy.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import click

from ._ranges import EXHAUSTIVE_LIMIT, PRECISION_RANGE
from .errors import QsaError
from .pgf import pgf as exact_pgf

_FORMAT = click.Choice(["csv", "json"])


class _RangeParam(click.ParamType):
    """Inclusive range ``A..B`` of positive integers (a bare integer means A..A).

    Both uses, fit windows of n and moment orders, start at 1 or above.
    """

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
        if lo < 1:
            self.fail(f"range {text!r} must start at 1 or above", param, ctx)
        return (lo, hi)


RANGE = _RangeParam()


class _PositiveFractionParam(click.ParamType):
    """A positive exact rational, written as a decimal or as p/q."""

    name = "text"  # the metavar --help has always shown

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"expected a decimal or p/q, got {value!r}", param, ctx)
        if number <= 0:
            self.fail(f"must be positive, got {value!r}", param, ctx)
        return number


def _check_out_dir(ctx, param, value):
    # click.Path checks an existing file; a file still to be made needs a
    # directory it can be made in (writing an existing file does not)
    if value is not None and not os.path.exists(value):
        folder = os.path.dirname(os.path.abspath(value))
        if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
            raise click.BadParameter(
                f"directory {folder!r} does not exist or is not writable"
            )
    return value


def _command(name=None):
    """Register a command that returns its output, with ``--out`` as its last option.

    The text goes to ``--out`` or stdout.  Computation failures, and a failed
    write of ``--out``, exit 1; click handles usage errors with exit 2.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(*args, out, **kwargs):
            try:
                text = fn(*args, **kwargs)
                if out is None:
                    click.echo(text)
                else:
                    with open(out, "w", encoding="utf-8") as fh:
                        fh.write(text + "\n")
            except (QsaError, ValueError, OSError) as exc:
                raise click.ClickException(str(exc)) from exc

        command = cli.command(name=name)(run)
        command.params.append(click.Option(
            ["--out"], type=click.Path(dir_okay=False, writable=True), default=None,
            callback=_check_out_dir, help="Write output to a file instead of stdout.",
        ))
        return command

    return register


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def high_real_str(x, digits: int) -> str:
    """Deterministic decimal rendering with ``digits`` significant digits."""
    from mpmath import mp, nstr

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


def _dist_text(n: int, items, fmt: str) -> str:
    # rows k,num,den over the support points of positive mass
    rows = [[k, str(p.numerator), str(p.denominator)] for k, p in items if p]
    return _csv(rows) if fmt == "csv" else _json_dumps({"n": n, "coeffs": rows})


@_command(name="pgf")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
def pgf_cmd(n, fmt):
    """Exact distribution of the comparison count (rows k,num,den)."""
    return _dist_text(n, exact_pgf(n).items(), fmt)


@_command()
@click.option("--n", type=click.IntRange(min=0, max=EXHAUSTIVE_LIMIT), required=True)
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
def oracle(n, fmt):
    """Exact distribution by exhaustive pivot enumeration (rows k,num,den)."""
    from .simulate import exhaustive_distribution

    return _dist_text(n, exhaustive_distribution(n).items(), fmt)


# -----------------------------------------------------------------------
# Moments
# -----------------------------------------------------------------------


@_command()
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--r", type=click.IntRange(min=0), required=True)
@click.option("--kind", type=click.Choice(["raw", "central"]), default="central",
              show_default=True)
@click.option("--format", "fmt", type=_FORMAT, default="json", show_default=True)
def moment(n, r, kind, fmt):
    """One exact moment of the comparison count (exact-PGF route)."""
    if kind == "central" and r < 1:
        raise click.UsageError("central moments require r >= 1")
    from .moments import central_moment, raw_moment

    value = raw_moment(n, r) if kind == "raw" else central_moment(n, r)
    if fmt == "csv":
        return f"{n},{r},{value.numerator},{value.denominator}"
    payload = {
        "n": n,
        "r": r,
        "kind": kind,
        "num": str(value.numerator),
        "den": str(value.denominator),
    }
    return _json_dumps(payload)


@_command(name="moments-table")
@click.option("--nmax", type=click.IntRange(min=1), default=130, show_default=True,
              envvar="QSA_NMAX")
@click.option("--rmax", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--kind", type=click.Choice(["raw", "central"]), default="central",
              show_default=True)
@click.option("--source", type=click.Choice(["series", "exact"]), default="series",
              show_default=True,
              help="Truncated-series route (fast) or exact-PGF route (authoritative).")
@click.option("--format", "fmt", type=_FORMAT, default="csv", show_default=True)
def moments_table(nmax, rmax, kind, source, fmt):
    """Moment table, one row n,r,num,den per (n, r).

    The series route truncates the expansions at order rmax.
    """
    from .moments import central_moment, moment_table, raw_moment

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
        return _csv(table)
    return _json_dumps({"kind": kind, "nmax": nmax, "rmax": rmax, "moments": table})


# -----------------------------------------------------------------------
# Closed forms and limits
# -----------------------------------------------------------------------


@_command()
@click.option("--r", type=click.IntRange(min=1), required=True)
@click.option("--train", type=RANGE, default=None,
              help="Explicit training range A..B (default: automatic).")
@click.option("--test", type=RANGE, default=None,
              help="Explicit testing range C..D (default: automatic).")
def guess(r, train, test):
    """Rediscover the closed form of a moment by undetermined coefficients."""
    if (train is None) != (test is None):
        raise click.UsageError("--train and --test must be given together")
    from .fitting import guess_moment

    report = guess_moment(r, train=train, test=test)
    payload = {
        "r": r,
        "status": report.status,
        "degree": report.degree,
        "train": f"{report.train_range[0]}..{report.train_range[1]}",
        "test": f"{report.test_range[0]}..{report.test_range[1]}",
        "expr": report.expr.to_json() if report.expr is not None else None,
    }
    return _json_dumps(payload)


@_command()
@click.option("--r", "r_range", type=RANGE, required=True,
              help="Scaled moment order(s), e.g. 3 or 3..8.")
@_precision_option
def limits(r_range, precision):
    """Limiting scaled moments from closed forms derived from the generating function.

    One JSON object per line.  The forms are proved for every n
    (``qsa.derive``), not fitted; ``--r 3..8`` derives them in well under a
    second.  Orders above ``fitting.MAX_FIT_ORDER`` (8) fail at once, as
    ``guess`` does.
    """
    lo, hi = r_range
    if lo < 2:
        raise click.UsageError("scaled moments require r >= 2")
    from .fitting import check_fit_order

    check_fit_order(hi)
    from .derive import derived_moment

    forms = {r: derived_moment(r) for r in (2, *range(lo, hi + 1))}
    # mpmath arrives after the exact work, so its memory does not stack on it
    from .asymptotics import scaled_moment_limit

    lines = []
    for r in range(lo, hi + 1):
        val = scaled_moment_limit(r, forms[r], forms[2], precision)
        lines.append(
            json.dumps(
                {
                    "r": r,
                    "value": high_real_str(val.value, precision),
                    "stable_digits": val.stability,
                }
            )
        )
    return "\n".join(lines)


# -----------------------------------------------------------------------
# Scaled distribution
# -----------------------------------------------------------------------


@_command()
@click.option("--n", type=click.IntRange(min=3), default=130, show_default=True)
@click.option("--bin", "bin_width", type=_PositiveFractionParam(), default="0.1",
              show_default=True)
@_precision_option
def density(n, bin_width, precision):
    """Histogram of the scaled distribution Z_n (rows z_left,z_right,mass)."""
    # distribution before mpmath: see the note on its imports
    from .distribution import export_density
    from mpmath import mp, mpf

    bins = export_density(n, bin_width, precision)
    with mp.workdps(precision + 5):
        rows = [
            "{},{},{}".format(
                high_real_str(b.z_left, 12),
                high_real_str(b.z_right, 12),
                high_real_str(mpf(b.mass.numerator) / mpf(b.mass.denominator), 17),
            )
            for b in bins
        ]
    return "\n".join(rows)


@_command()
@click.option("--n", type=click.IntRange(min=3), required=True)
@click.option("--x", type=int, required=True, help="Comparison-count threshold.")
@click.option("--surrogate", type=click.IntRange(min=3), default=130,
              show_default=True, envvar="QSA_SURROGATE")
@_precision_option
def tail(n, x, surrogate, precision):
    """Pr(comparisons > x) for length n, via the scaled surrogate."""
    from .distribution import tail_probability

    est = tail_probability(n, x, surrogate_n=surrogate, precision=precision)
    payload = {
        "n": n,
        "threshold": x,
        "surrogate": surrogate,
        "z": high_real_str(est.z_cut, min(precision, 17)),
        "probability": high_real_str(est.probability, precision),
        "saturated": est.saturated,
    }
    return _json_dumps(payload)


# -----------------------------------------------------------------------
# Simulation
# -----------------------------------------------------------------------


@_command(name="simulate")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=10000,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def simulate_cmd(n, trials, seed):
    """Monte Carlo comparison counts over random permutations."""
    from .simulate import SimConfig, monte_carlo

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
    return _json_dumps(payload)


@_command(name="selection-count")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def selection_count(n, trials, seed):
    """Selection-sort comparison counts (always n(n-1)/2) on random inputs."""
    import random as _random

    from .simulate import selection_sort_count

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
    return _json_dumps(payload)


def main():
    cli(prog_name="qsa")


if __name__ == "__main__":
    main()
