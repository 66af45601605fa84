"""Check the benchmark against itself: two alternating sets of runs.

    python3 benchmarks/e2e/repeat.py --runs 5 [--workload count_warm ...]

Runs A1 B1 A2 B2 ... on the same checkout, every run with another seed, and
prints per workload and end-to-end metric both sets' medians and quartile
spreads, the spread of all runs together, and the gap between the medians.  Exits non-zero when a spread or a
gap exceeds the metric's bound in ``BENCHMARK.json`` (``setup_s`` is held to
the gap only, as the driver does).  If one does, lengthen or restructure the
workload; the bounds are not the thing to change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stdout}{completed.stderr}")
    result = json.loads(completed.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{completed.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, as the driver takes it."""
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 5)")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run takes the next")
    arguments = parser.parse_args(argv)
    if arguments.runs < 5:
        parser.error("--runs must be at least 5")

    status = 0
    print(f"{'workload':<15} {'metric':<15} {'median A':>10} {'median B':>10} "
          f"{'spread A':>9} {'spread B':>9} {'spread AB':>9} {'B worse by':>10} {'bound':>6}")
    for workload in arguments.workload:
        sets: List[List[Dict[str, float]]] = [[], []]
        for run in range(2 * arguments.runs):
            sets[run % 2].append(run_once(workload, arguments.seed + run, contract["run_seconds"]))
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([values[name] for values in runs] for runs in sets)
            medians = statistics.median(first), statistics.median(second)
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(first), spread(second), spread(first + second)
            over = worse > bound or (name != "setup_s" and max(spreads) > bound)
            status |= over
            print(f"{workload:<15} {name:<15} {medians[0]:>10.4g} {medians[1]:>10.4g} "
                  f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {spreads[2]:>9.2%} {worse:>+10.2%} "
                  f"{bound:>6.0%}{'  OVER' if over else ''}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
