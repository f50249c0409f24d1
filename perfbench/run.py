"""Benchmark of the uqsl2 engine: one workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it uses the
checkout's ``src``.  Each round runs the whole workload in a fresh worker
process (``worker.py``), so every round starts with the caches a fresh
process has, as each CLI call does.  Rounds run one after another, each a
closed loop with one caller, until S seconds have passed; a run is always
whole rounds.  Before each round, SETUP_PROBES workers only set up, so that
``setup_s`` is a median of many samples spread over the run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(``run_s`` a mean over rounds, the others medians); with ``--trace 1`` the
rounds run under the profiler and it holds the per-layer metrics instead.
Results and profiles are also written under ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "uqsl2")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify-wide", "nf-long-words", "bracket-grid")
SETUP_PROBES = 3
# a run must end within 180 s: no round starts once this much has passed
# plus the length of the previous round
RUN_CEILING_S = 150.0
ROUND_TIMEOUT_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be from 1 to 60")
    return args


def worker_env():
    env = dict(os.environ)
    # the worker puts the checkout's src first itself
    env.pop("PYTHONPATH", None)
    # fixed string hashing, so call counts and collections repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, kind, env):
    """Run one worker to its end and return its JSON result."""
    started = time.monotonic()
    try:
        # -S: site processing depends on what else is installed (a .pth file
        # may import whole packages), not on uqsl2, and it was the noisiest
        # part of set-up
        proc = subprocess.run(
            [sys.executable, "-S", WORKER, workload, str(seed), repr(started), kind],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{kind} worker for {workload} ran past {ROUND_TIMEOUT_S} s and was killed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{kind} worker for {workload} exited with status {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        fail(f"no package at {PACKAGE}; run from a checkout of the repository")
    # bytecode is compiled once here, not in the first round's set-up
    for d in (PACKAGE, HERE):
        if not compileall.compile_dir(d, quiet=1):
            fail(f"cannot compile {d}")
    env = worker_env()
    kind = "traced" if args.trace else "timed"

    setups = []
    rounds = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args.workload, args.seed, "setup", env)["setup_s"])
        rounds.append(spawn(args.workload, args.seed, kind, env))
        r = rounds[-1]
        elapsed = time.monotonic() - t0
        print(
            f"perfbench: {args.workload} seed {args.seed} round {len(rounds)}: "
            f"run {r['run_s']:.3f} s, setup {r['setup_s']:.4f} s, "
            f"rss {r['peak_rss_mb']:.1f} MB, failed {r['failed']}/{r['attempted']}",
            file=sys.stderr,
        )
        for p in r["problems"]:
            print(f"perfbench: PROBLEM: {p}", file=sys.stderr)
        if elapsed >= args.seconds or elapsed + (time.monotonic() - r0) > RUN_CEILING_S:
            break

    setups += [r["setup_s"] for r in rounds]
    if args.trace:
        metrics = trace_metrics(rounds)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # a mean, not a median: with three or four rounds a median is
            # one or two rounds' reading of a shared host's speed, which
            # swings by up to 30 % from one half minute to the next; the mean
            # takes in every second the run measured
            "run_s": {"value": statistics.fmean(r["run_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in rounds),
                "unit": "MB",
            },
        }
    result = {
        "correct": all(not r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)


def trace_metrics(rounds):
    """Per-layer metrics: counts from the first round (they repeat in every
    round of a seed; a round that differs is reported), times as medians."""
    first = rounds[0]["layers"]
    out = {}
    for name, (unit, _) in layers.METRICS.items():
        values = [r["layers"][name] for r in rounds]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = first[name]
            if any(v != value for v in values):
                print(f"perfbench: {name} differs between rounds: {values}", file=sys.stderr)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    main()
