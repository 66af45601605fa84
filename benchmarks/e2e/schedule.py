"""Run a workload's cycles, summarise the samples, verify the schedule.

A workload is a fixed number of cycles of ``SLOTS`` operations; the count
comes from ``--seconds`` and a per-workload constant before timing starts,
never from the clock while timing.  Ordered by cost, the middle slots of a
cycle are one operation class and so are slots 9-10, which puts the pooled
p50 on "the typical operation" and p90 on "the heavy operation", not on the
edge between two classes; ``verify`` refuses a run where that did not hold.

The reference box is shared, and its cores run a fifth to a half slower for
seconds or minutes at a time.  Two things keep that out of the numbers.  A
short calibration loop (``probe``) runs beside every operation and tells how
fast the box was; and interference only ever adds time, so ``summarise``
reads the metrics off the quieter half of the cycles and scales them to the
best speed the box showed during the run.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from trace import Tracer, null_span

SLOTS = 10
MIN_CYCLES = 12
MIN_OPS = 120
MIN_CLASS_MS = 2.0
#: p50 and p90 must sit this many percentile points inside one class.
CLASS_WINDOW = 0.03


class Op:
    """One operation of a cycle.

    ``run(span)`` is timed; it opens its layer spans through ``span`` and
    returns whatever ``check`` (untimed: is the answer right?) needs.
    """

    __slots__ = ("cls", "run", "check")

    def __init__(
        self,
        cls: str,
        run: Callable[[Callable], object],
        check: Callable[[object], bool],
    ) -> None:
        self.cls = cls
        self.run = run
        self.check = check


class Sample(NamedTuple):
    cls: str
    ns: int
    cycle: int
    ok: bool
    traced: bool
    #: the calibration loop run right after the op
    probe_ns: int


def probe() -> int:
    """Nanoseconds one calibration loop took: about a millisecond of bytecode.

    The loop does the same work every time, so its time says how fast the
    box is running right now; the engine under test is not involved.
    """
    clock = time.perf_counter_ns
    started = clock()
    total = 0
    for value in range(20000):
        total += value * value
    return clock() - started


class ScheduleError(Exception):
    """The run broke a repeatability rule; no number may be printed."""


def run_cycles(
    cycle_ops: Callable[[int], Sequence[Op]],
    cycles: int,
    tracer: Optional[Tracer] = None,
    first_cycle: int = 0,
) -> List[Sample]:
    """Run ``cycles`` cycles on this thread; with a tracer, trace odd ones.

    Interleaving traced and untraced cycles lets one run report the tracing
    overhead free of drift between two separate runs.
    """
    samples: List[Sample] = []
    clock = time.perf_counter_ns
    for cycle in range(first_cycle, first_cycle + cycles):
        traced = tracer is not None and cycle % 2 == 1
        span = tracer.span if traced else null_span
        if traced:
            tracer.set_cycle(cycle)
        for op in cycle_ops(cycle):
            with span("op", cls=op.cls):
                started = clock()
                try:
                    value = op.run(span)
                    failed = False
                except Exception as error:  # a failed op is counted, not fatal
                    value, failed = error, True
                elapsed = clock() - started
            probe_ns = probe()
            ok = not failed and op.check(value)
            if not ok:
                print(f"FAILED {op.cls} cycle {cycle}: {value!r}"[:300], flush=True)
            samples.append(Sample(op.cls, elapsed, cycle, ok, traced, probe_ns))
    if tracer is not None:
        tracer.set_cycle(None)
    return samples


def class_latencies(samples: Sequence[Sample]) -> Dict[str, List[float]]:
    """Latencies in ms per op class."""
    by_class: Dict[str, List[float]] = {}
    for sample in samples:
        by_class.setdefault(sample.cls, []).append(sample.ns / 1e6)
    return by_class


def percentile(ordered: Sequence[float], quantile: float) -> float:
    return ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]


def summarise(samples: Sequence[Sample], quiet_ns: int) -> Dict[str, float]:
    """ops_per_s, latency_p50_ms and latency_p90_ms at the box's best speed.

    Interference from the box's other tenants only ever adds time, in bursts
    of milliseconds and in phases of seconds to minutes.  Against the
    bursts, the metrics are read off the quieter half of the cycles, those
    with the least busy time: throughput is their operations over their
    busy time, the percentiles are pooled over their samples.  Against the
    phases, which can outlast the run, every operation's time is first
    scaled to ``quiet_ns``, the fastest calibration loop of the run, which
    holds still within 4 % where the median loop moves by 40 %.  How slow
    the box was during an operation is read off two loops, the one right
    after the operation (it sees a phase that covers part of the run, but
    is a single reading of a millisecond) and the run's median loop (steady,
    but blind to such a phase), and taken as their geometric mean: over
    three sets of ten runs that was steadier than either alone.
    """
    typical_ns = statistics.median(sample.probe_ns for sample in samples)
    by_cycle: Dict[int, List[Sample]] = {}
    for sample in samples:
        by_cycle.setdefault(sample.cycle, []).append(sample)
    cycles = sorted(by_cycle.values(), key=lambda cycle: sum(sample.ns for sample in cycle))
    quiet = [
        sample.ns * quiet_ns / math.sqrt(sample.probe_ns * typical_ns)
        for cycle in cycles[: max(1, len(cycles) // 2)]
        for sample in cycle
    ]
    ordered = sorted(ns / 1e6 for ns in quiet)
    return {
        "ops_per_s": len(quiet) / (sum(quiet) / 1e9),
        "latency_p50_ms": percentile(ordered, 0.5),
        "latency_p90_ms": percentile(ordered, 0.9),
    }


def verify(samples: Sequence[Sample], cycles: int, min_class_ms: float) -> None:
    """Raise :class:`ScheduleError` unless the schedule kept its rules.

    The one-class rule is checked on the schedule, not sample by sample:
    ordered by median latency, the classes' shares of the ops must put p50
    and p90 at least ``CLASS_WINDOW`` inside one class.  Interference on
    the reference box slows a third of a run's samples by a third, and a
    check on single samples would fail runs for what the box did.
    """
    problems = []
    total = len(samples)
    if cycles < MIN_CYCLES:
        problems.append(f"{cycles} cycles < {MIN_CYCLES}")
    if total < MIN_OPS:
        problems.append(f"{total} timed ops < {MIN_OPS}")
    if total - int(0.9 * total) - 1 < 10:
        problems.append("fewer than 10 samples beyond p90")
    by_class = class_latencies(samples)
    medians = {cls: statistics.median(values) for cls, values in by_class.items()}
    for cls in sorted(cls for cls, median in medians.items() if median < min_class_ms):
        problems.append(f"class {cls} runs under {min_class_ms} ms")
    low = 0.0
    for cls in sorted(medians, key=medians.get):
        high = low + len(by_class[cls]) / total
        for quantile in (0.5, 0.9):
            if low <= quantile < high and not (
                low <= quantile - CLASS_WINDOW and quantile + CLASS_WINDOW <= high
            ):
                problems.append(f"p{int(quantile * 100)} sits at the edge of class {cls}")
        low = high
    if problems:
        raise ScheduleError("; ".join(problems))
