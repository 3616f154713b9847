"""Run one workload of the metadata-runtime benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the same checkout; the benchmark
drives it only through its public API, on one thread, in virtual time.  A
run does a fixed amount of work: ``--seconds`` sets the number of rounds
through a per-workload constant (rounds per second of this benchmark's
reference host), so the work does not depend on how fast the host is at
the moment.  Setup is repeated :data:`SETUPS` times and ``setup_s`` is the
median.  Correctness checks run after the timed operations; the command
exits with 1 when one fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
same seed with spans around the public calls into each layer, prints the
per-layer metrics and writes the spans to ``.perfbench-out/``.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: Rounds per second of ``--seconds``; at 15 seconds every workload issues
#: at least 1000 elements, 1000 changes and 100 query cycles.
ROUNDS_PER_SECOND = {"pipeline": 6, "waves": 6, "churn": 80}
SETUPS = 11


def workload_class(name: str) -> type:
    """The workload ``name`` is class ``Name`` in module ``name``."""
    return getattr(importlib.import_module(name), name.capitalize())


def run(workload: str, seed: int, rounds: int, trace: bool,
        corrupt: str | None = None) -> tuple[dict, list[str], dict, float]:
    """Run one workload; returns the result, the correctness errors, the
    (attempted, failed) counts by kind and the timed phase in seconds."""
    from core import KINDS, REFERENCE_NS, Calibration, Ops, end_to_end
    from tracing import Tracer

    tracer = Tracer() if trace else None
    bench = workload_class(workload)(seed, rounds, tracer=tracer, corrupt=corrupt)
    setup_seconds = []
    calibration = Calibration()
    for repeat in range(SETUPS):
        if repeat:
            bench.teardown()
        factor = calibration.ns() / REFERENCE_NS
        start = time.perf_counter()
        bench.setup()
        setup_seconds.append((time.perf_counter() - start) / factor)
    # Everything built so far (the generated inputs, which a deployment would
    # not hold, and the program's setup) moves out of the collector's
    # generations, so that a full collection in the timed phase walks only
    # what the timed phase created and costs the same on every seed.
    gc.collect()
    gc.freeze()
    ops = Ops(tracer)
    if tracer is not None:
        tracer.attach(bench.system, bench.telemetry)
        stats = bench.lock_policy.aggregate_stats()
        acquired_before = stats.read_acquired + stats.write_acquired
        tracer.install()
        tracer.start_gc_watch()
    start = time.perf_counter()
    try:
        bench.run(ops)
    finally:
        timed = time.perf_counter() - start
        if tracer is not None:
            tracer.stop_gc_watch()
            tracer.uninstall()
    if tracer is not None:
        stats = bench.lock_policy.aggregate_stats()
        moved = stats.read_acquired + stats.write_acquired - acquired_before
        counted = sum(tracer.lock_acquires.values())
        if moved != counted:
            print(f"note: {counted} lock acquisitions counted, aggregate_stats() "
                  f"moved by {moved}", file=sys.stderr)
    gc.unfreeze()
    bench.final_check()
    if tracer is not None:
        spans = tracer.write(OUT / f"spans-{workload}.npz")
        print(f"{spans} spans written to {OUT / f'spans-{workload}.npz'}")
        metrics = tracer.per_layer(ops, bench)
        print(f"metadata share of operation time: {tracer.metadata_share():.3f}")
    else:
        metrics = end_to_end(ops, setup_seconds)
    counts = {kind: (ops.attempted[kind], ops.failed[kind]) for kind in KINDS}
    counts["query cycles"] = (ops.cycles, 0)
    result = {
        "correct": not bench.errors,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics,
    }
    bench.teardown()
    return result, bench.errors, counts, timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ROUNDS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's source {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    rounds = max(1, args.seconds * ROUNDS_PER_SECOND[args.workload])
    result, errors, counts, timed = run(args.workload, args.seed, rounds,
                                        bool(args.trace))
    for kind, (attempted, failed) in counts.items():
        print(f"{kind:>12}: {attempted:8d} attempted {failed:4d} failed")
    print(f"timed phase: {timed:.3f} s")
    for name, metric in result["metrics"].items():
        print(f"{name:>42}: {metric['value']:.6g} {metric['unit']}")
    for error in errors[:20]:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
