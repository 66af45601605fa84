"""One run of one end-to-end workload; the last line of stdout is the result.

    python3 benchmarks/e2e/run.py --workload count_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics; ``--workload all`` runs every workload
in a fresh interpreter each.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
#: Set-up runs this often per untraced run; ``setup_s`` is the median.
SETUPS = 3
#: Calibration loops run before and again after every set-up.
SETUP_PROBES = 5
WARMUP_CYCLES = 1


def parse_arguments(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="labels, input order, op order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase; fixes the cycle count before timing "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --trace 1: write the spans here (JSON)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke mode: tiny inputs, two cycles, no schedule verifier")
    return parser.parse_args(argv)


def run_all(arguments: argparse.Namespace, names: Sequence[str]) -> int:
    status = 0
    for name in names:
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
                   "--trace", str(arguments.trace)] + (["--tiny"] if arguments.tiny else [])
        started = time.perf_counter()
        status |= subprocess.run(command).returncode
        print(f"# {name}: {time.perf_counter() - started:.1f} s wall", flush=True)
    return status


def run_workload(arguments: argparse.Namespace, contract: Dict[str, object]) -> int:
    from schedule import ScheduleError, class_latencies, probe, run_cycles, summarise, verify
    from trace import Tracer, null_span
    from workloads import WORKLOADS

    workload_class = WORKLOADS[arguments.workload]
    tiny, traced = arguments.tiny, bool(arguments.trace)
    cycles = 2 if tiny else workload_class.cycles_for(arguments.seconds)
    warmup = 1 if tiny else WARMUP_CYCLES
    tracer = Tracer() if traced else None
    workload = workload_class(arguments.seed, tiny, cycles)
    nulls: Dict[str, str] = {}
    idle = f"not exercised by {workload.name}"
    try:
        setups = []  # (seconds, calibration loops run around it) per set-up
        for _ in range(1 if traced or tiny else SETUPS):
            workload.close()
            before = [probe() for _ in range(SETUP_PROBES)]
            started = time.perf_counter()
            workload.setup(tracer.span if traced else null_span)
            seconds = time.perf_counter() - started
            setups.append((seconds, before + [probe() for _ in range(SETUP_PROBES)]))
        warm = run_cycles(workload.cycle_ops, warmup)
        gc.collect()
        gc.freeze()  # what set-up built is not garbage; keep the collector off it
        workload.begin_timed()
        started = time.perf_counter()
        samples = run_cycles(workload.cycle_ops, cycles, tracer, first_cycle=warmup)
        wall = time.perf_counter() - started
        problems = workload.finish()
        problems += [f"warm-up {sample.cls} failed" for sample in warm if not sample.ok]
        print(f"# {workload.name} seed={arguments.seed} cycles={cycles} ops={len(samples)} "
              f"timed={wall:.2f}s trace={arguments.trace}")
        # the fastest calibration loop of the run is the box at its best
        probes = [sample.probe_ns for sample in samples]
        quiet_ns = min(probes + [probe_ns for _, around in setups for probe_ns in around])
        print(f"# the box ran the timed phase at {quiet_ns / statistics.median(probes):.0%} "
              f"of its best speed")
        # one line per op class, cheapest first: what p50 and p90 are made of
        for cls, latencies in sorted(class_latencies(samples).items(),
                                     key=lambda item: statistics.median(item[1])):
            print(f"#   {cls:<22} n={len(latencies):<5} "
                  f"median={statistics.median(latencies):9.3f} ms  max={max(latencies):9.3f} ms")
        if not tiny:
            verify(samples, cycles, workload.min_class_ms)
        if traced:
            values: Dict[str, Optional[float]] = {}
            layer = workload.layer_metrics(tracer, samples)
            busy = [sum(s.ns for s in samples if s.traced is flag) for flag in (True, False)]
            ops = [sum(s.traced is flag for s in samples) for flag in (True, False)]
            layer["trace.overhead_pct"] = lambda: (
                (busy[0] / ops[0]) / (busy[1] / ops[1]) - 1.0
            ) * 100.0
            for metric in contract["per_layer"]:
                name = metric["name"]
                if name not in layer:
                    values[name], nulls[name] = None, idle
                    continue
                try:
                    values[name] = float(layer[name]())
                except Exception as error:  # a layer call that is gone or raises
                    values[name], nulls[name] = None, f"{type(error).__name__}: {error}"
        else:
            values = summarise(samples, quiet_ns)
            values["setup_s"] = statistics.median(
                seconds * quiet_ns / statistics.median(around) for seconds, around in setups
            )
            values["peak_rss_mb"] = workload.peak_rss_mb()
    except ScheduleError as error:
        print(f"schedule verifier: {error}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    failed = sum(not sample.ok for sample in samples)
    for problem in problems:
        print(f"WRONG: {problem}")
    metrics = {}
    for metric in contract["per_layer" if traced else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        if value is not None:
            print(f"{name:<40} {value:>14.6g} {unit}")
        elif nulls[name] != idle:
            print(f"{name:<40} {'null':>14} {unit}  ({nulls[name]})")
        # the result line carries numbers only; a null is a layer that did no work here
        metrics[name] = {"value": value if value is not None else 0.0, "unit": unit}
    if idle in nulls.values():
        print(f"# null, {idle}: " + " ".join(n for n, why in nulls.items() if why == idle))
    if arguments.out and traced:
        tracer.write(arguments.out, {"workload": workload.name, "seed": arguments.seed,
                                     "metrics": values, "nulls": nulls})
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = parse_arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if arguments.seconds is None:
        arguments.seconds = float(contract["run_seconds"])
    names = [workload["name"] for workload in contract["workloads"]]
    if arguments.workload == "all":
        return run_all(arguments, names)
    if arguments.workload not in names:
        print(f"unknown workload {arguments.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    return run_workload(arguments, contract)


if __name__ == "__main__":
    sys.exit(main())
