"""In-process replay of every qsa layer, for the benchmark's traced run.

    python3 bench/layers.py --seed N --spans 0|1

Calls the public functions of each module on the inputs that the workloads
make from ``--seed``, in an order that leaves each measured call as cold or as
warm as its metric says (README.md).  With ``--spans 1`` each call runs inside
a span (id, name, parent, start, end) kept in memory; with ``--spans 0`` the
same calls run bare, which gives the untraced time to compare with.  The last
stdout line is JSON: spans, counters, the number of calls, the total time and
the results that ``workloads.check_replay`` judges.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# guess_moment(6) escalates to degree 6, whose data window ends at n = 365
SERIES_TOP = 365


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.calls = 0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, call: bool = True):
        self.calls += call
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._t0}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0


def replay(seed: int, tracer: Tracer) -> tuple[dict, dict]:
    pgf, moments, fitting, numeric, asymptotics, distribution, simulate = (
        importlib.import_module(f"qsa.{m}")
        for m in ("pgf", "moments", "fitting", "numeric", "asymptotics", "distribution", "simulate")
    )
    from click.testing import CliRunner

    from qsa.cli import cli

    span = tracer.span
    exact = workloads.exact_distribution(seed).inputs
    closed = workloads.closed_forms(seed).inputs
    tails = workloads.large_n_tails(seed).inputs
    sim = workloads.simulation(seed)
    results: dict = {}
    counters = dict.fromkeys(("fitting.monomials_tried", "numeric.harmonic_bits", "cli.output_bytes"), 0)

    with span("exact-distribution", call=False):
        n = exact["n"]
        with span("pgf.build"):
            offset, coeffs = pgf.scaled_pgf(n)
        results["g2"] = str(sum(c << (offset + i) for i, c in enumerate(coeffs)))
        counters["pgf.table_mb"] = sum(
            (c.bit_length() + 7) // 8 for m in range(n + 1) for c in pgf.scaled_pgf(m)[1]
        ) / 1e6
        with span("pgf.dist"):
            pgf.pgf(n)
        with span("moments.exact"):
            moments.central_moment(n, exact["r"])
        with span("distribution.scale"):
            distribution.scale(n)
        with span("distribution.density"):
            bins = distribution.export_density(n, Fraction(exact["width"]))
        results["density_mass"] = str(sum(b.mass for b in bins))

    with span("closed-forms", call=False):
        with span("moments.series"):
            moments.series_cache(moments.DEFAULT_ORDER).ensure(SERIES_TOP)
        lo, hi = workloads.REPLAY_ORDERS
        tables, reports = {}, {}
        for r in range(1, hi + 1):
            with span("moments.table"):
                tables[r] = moments.moment_table(SERIES_TOP, r, kind="raw" if r == 1 else "central").values
        for r in range(1, hi + 1):
            with span("fitting.fit"):
                reports[r] = fitting.guess_moment(r, data=tables[r])
            counters["fitting.monomials_tried"] += sum(
                len(fitting.template(r, d, d)) for d in range(1, reports[r].degree + 1)
            )
        verified = True
        for r, rep in reports.items():
            with span("fitting.verify"):
                verified &= all(
                    rep.expr.evaluate(m) == tables[r][m]
                    for m in range(rep.train_range[0], rep.test_range[1] + 1)
                )
        results["verified"] = verified
        results["fits_at_400"] = [str(reports[r].expr.evaluate(400)) for r in (1, 2)]
        results["limits"] = {}
        for r in range(lo, hi + 1):
            with span("asymptotics.limit"):
                value = asymptotics.scaled_moment_limit(r, reports[r].expr, reports[2].expr, closed["precision"])
            results["limits"][r] = mpmath.nstr(value.value, closed["precision"])

    with span("large-n-tails", call=False):
        queries = tails["queries"]
        for m in (1, 2):
            for size in sorted({q[0] for q in queries}):
                with span("numeric.harmonic"):
                    h = numeric.harmonic(m, size)
                counters["numeric.harmonic_bits"] += h.numerator.bit_length() + h.denominator.bit_length()
        distribution.scale(tails["surrogate"])
        results["tails"] = []
        for size, x in queries:
            with span("distribution.tail"):
                est = distribution.tail_probability(size, x, surrogate_n=tails["surrogate"])
            results["tails"].append([size, x, str(est.probability)])

    with span("simulation", call=False):
        with span("simulate.monte_carlo"):
            stats = simulate.monte_carlo(simulate.SimConfig(sim["sim_n"], sim["sim_trials"], sim["sim_seed"]))
        counters["simulate.comparisons"] = round(stats.mean * stats.trials)
        results["simulate"] = {"n": sim["sim_n"], "trials": stats.trials, "seed": sim["sim_seed"],
                               "mean": stats.mean, "min": stats.min_count, "max": stats.max_count}
        with span("simulate.oracle"):
            oracle = simulate.exhaustive_distribution(sim["oracle_n"])
        results["oracle"] = [[k, p.numerator, p.denominator] for k, p in oracle.items()]
        rng = random.Random(sim["select_seed"])
        counts = []
        with span("simulate.selection"):
            for _ in range(sim["select_trials"]):
                perm = list(range(sim["select_n"]))
                rng.shuffle(perm)
                counts.append(simulate.selection_sort_count(perm)[1])
        results["selection"] = counts

    with span("cli", call=False):
        runner = CliRunner()
        for args in workloads.distribution(seed).commands:
            with span("cli.render"):
                out = runner.invoke(cli, args)
            if out.exit_code != 0:
                raise RuntimeError(f"qsa {' '.join(args)} exited {out.exit_code}: {out.output}")
            counters["cli.output_bytes"] += len(out.output.encode())
    return results, counters


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    tracer = Tracer(bool(args.spans))
    start = time.perf_counter()
    results, counters = replay(args.seed, tracer)
    total = time.perf_counter() - start
    print(json.dumps({"spans": tracer.spans, "counters": counters, "calls": tracer.calls,
                      "total_s": total, "results": results}))


if __name__ == "__main__":
    main()
