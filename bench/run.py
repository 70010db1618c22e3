"""Benchmark of cold ``qsa`` commands; see README.md in this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: each command starts a fresh interpreter with
the checkout's ``src`` on its path.  With ``--trace 0`` the commands of one
workload run one at a time, in as many whole rounds as fit in ``--seconds``,
and the run reports the end-to-end metrics.  With ``--trace 1`` it replays
every layer in-process (``layers.py``), once traced and once untraced, and
reports the per-layer metrics.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 150
SETUP_PROBES = 2  # per round
CLI_MAIN = "from qsa.cli import main; main()"


@dataclass
class Finished:
    argv: list[str]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    # the qsa defaults, not whatever QSA_* the caller's shell carries
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSA_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str]) -> Finished:
    """Run ``python argv`` to its end; wall time and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(argv, proc.returncode, out.read().decode(), err.read().decode(), wall,
                        usage.ru_maxrss / 1024)


def qsa(args: list[str]) -> Finished:
    return spawn(["-c", CLI_MAIN, *args])


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing qsa.cli."""
    done = spawn(["-c", "import qsa.cli"])
    if done.returncode != 0:
        raise SystemExit(f"cannot import qsa.cli from {SRC}:\n{done.stderr}")
    return done.wall_s


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_rounds(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Run whole rounds for about ``seconds`` and report means over them.

    A round is the workload's commands with simulate's command before each
    half, which spreads the ``sorts_per_s`` samples over the run.  The means
    use every sample: the machine's speed moves in spells, not in outliers
    that a median would drop (README.md, "Spread")."""
    workload = workloads.WORKLOADS[name](seed)
    sim_inputs = workloads.simulation(seed)
    simulate = workloads.simulate_command(sim_inputs)
    half = len(workload.commands) // 2
    commands = [simulate, *workload.commands[:half], simulate, *workload.commands[half:]]
    sims = (0, half + 1)
    timed = [i for i in range(len(commands)) if i not in sims]
    setup_walls: list[float] = []
    rounds: list[list[Finished]] = []

    setup_probe()  # writes the bytecode cache; not timed
    start = time.perf_counter()
    while True:
        setup_walls += [setup_probe() for _ in range(SETUP_PROBES)]
        done = [qsa(args) for args in commands]
        rounds.append(done)
        log(f"round {len(rounds)}: " + ", ".join(f"{d.argv[2]} {d.wall_s:.2f}s rc={d.returncode}" for d in done))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break  # another round would run past the measuring time

    correct = True
    for done in rounds:
        out = [d.stdout if d.returncode == 0 else None for d in done]
        try:
            workload.check([out[i] for i in timed])
            for i in sims:
                if out[i] is not None:
                    workloads.check_simulate(out[i], sim_inputs)
        except workloads.Mismatch as exc:
            log(f"MISMATCH: {exc}")
            correct = False
    every = [d for r in rounds for d in r]
    sim_walls = [r[i].wall_s for r in rounds for i in sims]
    result = {
        "correct": correct,
        "attempted": len(every),
        "failed": sum(d.returncode != 0 for d in every),
        "metrics": {
            "setup_s": metric(statistics.fmean(setup_walls), "s"),
            "wall_s": metric(statistics.fmean(sum(r[i].wall_s for i in timed) for r in rounds), "s"),
            "peak_rss_mb": metric(max(d.rss_mb for d in every), "MB"),
            "sorts_per_s": metric(workloads.SIM_TRIALS / statistics.fmean(sim_walls), "1/s"),
        },
    }
    detail = {
        "inputs": workload.inputs,
        "rounds": [[{"argv": d.argv[2:], "rc": d.returncode, "wall_s": d.wall_s, "rss_mb": d.rss_mb,
                     "stderr": d.stderr[-500:]} for d in r] for r in rounds],
        "setup_walls": setup_walls,
    }
    return result, detail


LAYER_SPANS = (
    "pgf.build", "pgf.dist", "moments.series", "moments.table", "moments.exact",
    "fitting.fit", "fitting.verify", "numeric.harmonic", "asymptotics.limit",
    "distribution.scale", "distribution.density", "distribution.tail",
    "simulate.monte_carlo", "simulate.oracle", "simulate.selection", "cli.render",
)
LAYER_COUNTERS = {
    "pgf.table_mb": "MB",
    "fitting.monomials_tried": "count",
    "numeric.harmonic_bits": "bit",
    "simulate.comparisons": "count",
    "cli.output_bytes": "B",
}


def run_traced(seed: int) -> tuple[dict, dict]:
    """Replay every layer traced and untraced, each in a fresh interpreter."""
    replays = {}
    for spans in ("1", "0") if seed % 2 else ("0", "1"):
        done = spawn([str(BENCH / "layers.py"), "--seed", str(seed), "--spans", spans])
        if done.returncode != 0:
            raise SystemExit(f"layer replay failed:\n{done.stderr}")
        replays[spans] = json.loads(done.stdout.splitlines()[-1])
    traced, untraced = replays["1"], replays["0"]

    correct = True
    try:
        workloads.check_replay(traced["results"], seed)
    except workloads.Mismatch as exc:
        log(f"MISMATCH: {exc}")
        correct = False

    spans = traced["spans"]
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    per_name: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        per_name[s["name"]] = per_name.get(s["name"], 0.0) + duration
        layer = s["name"].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + duration - children.get(s["id"], 0.0)
    overhead = traced["total_s"] / untraced["total_s"] - 1

    metrics = {f"{span}_s": metric(per_name[span], "s") for span in LAYER_SPANS}
    for counter, unit in LAYER_COUNTERS.items():
        metrics[counter] = metric(traced["counters"][counter], unit)
    metrics["trace.overhead_pct"] = metric(100 * overhead, "%")
    result = {"correct": correct, "attempted": traced["calls"], "failed": 0, "metrics": metrics}
    detail = {"spans": spans, "self_s": self_time, "total_s": {"traced": traced["total_s"],
              "untraced": untraced["total_s"]}, "counters": traced["counters"]}
    return result, detail


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qsa" / "cli.py").is_file():
        raise SystemExit(f"no qsa sources under {SRC}")
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        result, detail = run_traced(args.seed)
    else:
        result, detail = run_rounds(args.workload, args.seed, args.seconds)
    stem = f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"result": result, **detail}, indent=1, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
