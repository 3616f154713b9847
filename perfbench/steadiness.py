"""Steadiness check: two sets of runs of one commit, alternating.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workloads pipeline waves]

Run ``i`` of each set uses seed ``i`` (1..runs); the two sets alternate
run by run (A, B, A, B, ...), so a slow stretch of the host lands on both.
Every run is ``run_seconds`` long, the length the bounds were set for.
For every workload and end-to-end metric it prints both sets' medians and
quartiles, each set's spread (interquartile range over median) and whether
the two medians differ by at most the metric's bound, in either direction,
with the bounds and run length read from ``BENCHMARK.json``.  It exits
with 1 when a run fails, a spread exceeds its bound (``setup_s`` excepted)
or two medians disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]

    metrics = config["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets: list[list[dict]] = [[], []]
        failed_shares: list[set] = [set(), set()]
        for seed in range(1, args.runs + 1):
            for which in (0, 1):
                result = run_once(workload, seed, seconds)
                sets[which].append(result["metrics"])
                failed_shares[which].add(result["failed"] / result["attempted"])
                ok &= result["correct"]
        print(f"\n{workload}: {args.runs} runs per set, {seconds} s each")
        print(f"{'metric':>18} {'median A':>12} {'median B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = summary([m[name]["value"] for m in sets[0]])
            b = summary([m[name]["value"] for m in sets[1]])
            spreads = [(q3 - q1) / median for q1, median, q3 in (a, b)]
            gap = abs(b[1] - a[1]) / a[1]
            steady = name == "setup_s" or max(spreads) <= bound
            agree = gap <= bound
            ok &= steady and agree
            verdict = ("ok" if steady and agree else
                       "SPREAD" if not steady else "MEDIANS DIFFER")
            print(f"{name:>18} {a[1]:12.5g} {b[1]:12.5g} {spreads[0]:9.3f} "
                  f"{spreads[1]:9.3f} {bound:6.2f}  {verdict} "
                  f"(gap {gap:.3f}; quartiles A {a[0]:.5g}..{a[2]:.5g}, "
                  f"B {b[0]:.5g}..{b[2]:.5g})")
        if failed_shares[0] != failed_shares[1] or len(failed_shares[0]) != 1:
            ok = False
            print(f"failed shares differ: {failed_shares}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
