"""Smoke test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and requires zero
failed operations, a correct result and every metric named in
``BENCHMARK.json``.  Then, for every correctness check, it runs the
workload again with that check's reference value put off by one and
requires the check to report the mismatch.  Exits with 1 on the first
problem.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import run  # noqa: E402

#: Tiny sizes (rounds) and the correctness checks of each workload.
SIZES = {"pipeline": 1, "waves": 3, "churn": 8}
CHECKS = {
    "pipeline": ["join", "filter", "map", "cycle", "estimates"],
    "waves": ["dag", "read", "waves", "planned", "errors", "cycle", "filter", "map"],
    "churn": ["join", "cycle", "closure", "handlers", "registries"],
}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in config["end_to_end"]},
                1: {m["name"] for m in config["per_layer"]}}
    problems = []
    for workload, rounds in SIZES.items():
        start = time.perf_counter()
        for trace in (0, 1):
            result, errors, _, _ = run(workload, seed=7, rounds=rounds,
                                       trace=bool(trace))
            if not result["correct"] or result["failed"] or errors:
                problems.append(f"{workload} trace={trace}: {result['failed']} "
                                f"failed, errors {errors[:3]}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ expected[trace])} "
                                "missing or unexpected")
        for check in CHECKS[workload]:
            _, errors, _, _ = run(workload, seed=7, rounds=rounds, trace=False,
                                  corrupt=check)
            if not any(f": {check}:" in error for error in errors):
                problems.append(f"{workload}: check {check!r} did not fail on a "
                                f"corrupted reference (errors: {errors[:2]})")
        print(f"{workload}: {len(CHECKS[workload])} checks shown to fail, "
              f"{time.perf_counter() - start:.1f} s")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
