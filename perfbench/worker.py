"""One round of one workload in a fresh process, so every round starts with
the caches a fresh ``uqsl2`` process has.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT {setup,timed,traced}

SPAWNED_AT is the ``time.monotonic()`` reading the parent took just before
starting this process (the clock is system-wide), so set-up time includes
interpreter start.  ``setup`` stops after set-up.  ``timed`` runs the
operations untraced; ``traced`` runs them under the profiler and adds the
per-layer metrics and writes the round's profile to
``perfbench/out/WORKLOAD-seedSEED.pstats``.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def main(argv):
    workload, seed, spawned_at, kind = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, SRC)
    import uqsl2

    pkg = os.path.realpath(os.path.dirname(uqsl2.__file__))
    if pkg != os.path.realpath(os.path.join(SRC, "uqsl2")):
        raise SystemExit(f"perfbench: imported uqsl2 from {pkg}, not from {SRC}")
    import workloads

    build, run, check = workloads.WORKLOADS[workload]
    inputs = build(seed)
    result = {"setup_s": time.monotonic() - spawned_at}
    if kind == "setup":
        print(json.dumps(result))
        return
    import layers

    tracer = layers.Tracer() if kind == "traced" else contextlib.nullcontext()
    with tracer:
        t0 = time.perf_counter()
        outputs = run(inputs)
        result["run_s"] = time.perf_counter() - t0
    # before the checks, which parse the outputs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"], result["failed"], result["problems"] = check(inputs, outputs)
    if kind == "traced":
        result["layers"] = tracer.metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.profile.dump_stats(os.path.join(OUT, f"{workload}-seed{seed}.pstats"))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
