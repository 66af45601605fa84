"""The benchmark harness: run (query, dataset, algorithm) cells and compare them.

The paper reports, for every figure, runtimes of CLFTJ against LFTJ / YTD /
systems on a grid of queries and datasets.  :func:`run_grid` executes such a
grid through :class:`~repro.engine.QueryEngine` and returns flat records;
:func:`speedup_table` post-processes them into "speedup over baseline" rows,
which is the shape-level comparison this reproduction targets (absolute
Python runtimes are not comparable to the paper's C++ numbers).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.engine import QueryEngine
from repro.engine.results import ExecutionResult
from repro.query.atoms import ConjunctiveQuery
from repro.storage.database import Database
from repro.storage.relation import Relation


@dataclass
class BenchmarkCell:
    """One cell of a benchmark grid."""

    dataset: str
    database: Database
    query: ConjunctiveQuery
    algorithm: str
    mode: str = "count"
    engine_options: Dict[str, object] = field(default_factory=dict)
    run_options: Dict[str, object] = field(default_factory=dict)


def run_cell(cell: BenchmarkCell, engine: Optional[QueryEngine] = None) -> ExecutionResult:
    """Execute one cell and return its result (with dataset metadata attached).

    Pass ``engine`` to reuse an engine (and with it the database's plan and
    index caches) across cells; the cell's ``engine_options`` only apply when
    no engine is given.  The per-run plan-/index-cache counters the engine
    reports (``plan_cache_hits``, ``index_builds``, ...) stay in the result
    metadata, so grid records show exactly how much each layer amortised.
    """
    if engine is None:
        engine = QueryEngine(cell.database, **cell.engine_options)
    if cell.mode == "count":
        result = engine.count(cell.query, algorithm=cell.algorithm, **cell.run_options)
    elif cell.mode == "evaluate":
        result = engine.evaluate(cell.query, algorithm=cell.algorithm, **cell.run_options)
    else:
        raise ValueError(f"unknown mode {cell.mode!r}")
    result.metadata["dataset"] = cell.dataset
    result.metadata["mode"] = cell.mode
    return result


def run_grid(
    databases: Mapping[str, Database],
    queries: Sequence[ConjunctiveQuery],
    algorithms: Sequence[str],
    mode: str = "count",
    engine_options: Optional[Dict[str, object]] = None,
    run_options: Optional[Dict[str, object]] = None,
    engines: Optional[Mapping[str, QueryEngine]] = None,
) -> List[ExecutionResult]:
    """Run every (dataset, query, algorithm) combination and collect the results.

    One engine is built (or taken from ``engines``) per database and reused
    for every cell over that database, so grid runs exercise the plan and
    index caches exactly like a long-lived serving engine would — repeated
    and overlapping cells amortise planning and index construction, and each
    record carries the cache counters showing it.  Cells may use
    ``algorithm="auto"``; the records then carry the selector's choice under
    ``selected_algorithm``.
    """
    results: List[ExecutionResult] = []
    for dataset_name, database in databases.items():
        if engines is not None and dataset_name in engines:
            engine = engines[dataset_name]
        else:
            engine = QueryEngine(database, **dict(engine_options or {}))
        for query in queries:
            for algorithm in algorithms:
                cell = BenchmarkCell(
                    dataset=dataset_name,
                    database=database,
                    query=query,
                    algorithm=algorithm,
                    mode=mode,
                    engine_options=dict(engine_options or {}),
                    run_options=dict(run_options or {}),
                )
                results.append(run_cell(cell, engine=engine))
    return results


def consistency_check(results: Iterable[ExecutionResult]) -> None:
    """Assert that all algorithms agree on the answer of each (dataset, query) cell.

    Benchmarks call this so that a performance run doubles as a correctness
    run: if any algorithm disagrees on a count, the benchmark fails loudly.
    """
    grouped: Dict[Tuple[str, str], List[ExecutionResult]] = {}
    for result in results:
        key = (str(result.metadata.get("dataset")), result.query_name)
        grouped.setdefault(key, []).append(result)
    for (dataset, query_name), cell_results in grouped.items():
        counts = {result.count for result in cell_results}
        if len(counts) > 1:
            details = {result.algorithm: result.count for result in cell_results}
            raise AssertionError(
                f"algorithms disagree on {query_name!r} over {dataset!r}: {details}"
            )


def run_update_benchmark(
    workload,
    algorithm: str = "clftj",
    strategies: Sequence[str] = ("delta", "rebuild"),
) -> Dict[str, object]:
    """Replay an update stream under two index-maintenance strategies.

    ``workload`` is an :class:`~repro.bench.workloads.UpdateWorkload`.  Both
    strategies start from identical databases, warm up every cache with one
    execution per query, then replay the same batches:

    * ``"delta"`` — :meth:`Database.insert` / ``delete``: cached indexes are
      patched in place, plans survive, prepared warm caches invalidate
      selectively;
    * ``"rebuild"`` — the pre-update behaviour:
      ``add_relation(replace=True)`` with the accumulated tuples, dropping
      every index and plan for the relation on each batch.

    Per-step counts are asserted equal across strategies (a performance run
    doubles as a correctness run), and the returned report carries, per
    strategy: streaming wall time, full index builds, in-place patches,
    compactions, plan builds and adhesion-cache hits — the evidence that the
    delta path re-executes warm (0 full trie rebuilds) where the rebuild
    path pays for everything again.
    """
    results: Dict[str, Dict[str, object]] = {}
    step_counts: Dict[str, List[Tuple[int, ...]]] = {}
    for strategy in strategies:
        database = workload.make_database()
        engine = QueryEngine(database)
        prepared = [
            engine.prepare(query, algorithm=algorithm) for query in workload.queries
        ]
        for handle in prepared:  # warm-up: build indexes, plans, adhesion caches
            handle.count()
        current = set(database.relation(workload.relation_name).tuples)
        attributes = database.relation(workload.relation_name).attributes
        before = (
            database.index_builds,
            database.index_patches,
            database.index_compactions,
            database.plan_builds,
            database.dictionary.decodes,
        )
        cache_hits = 0
        counts: List[Tuple[int, ...]] = []
        started = time.perf_counter()
        for batch in workload.batches:
            if strategy == "delta":
                if batch.inserts:
                    database.insert(workload.relation_name, batch.inserts)
                if batch.deletes:
                    database.delete(workload.relation_name, batch.deletes)
            elif strategy == "rebuild":
                current |= set(batch.inserts)
                current -= set(batch.deletes)
                database.add_relation(
                    Relation(workload.relation_name, attributes, current),
                    replace=True,
                )
            else:
                raise ValueError(f"unknown update strategy {strategy!r}")
            step = []
            for handle in prepared:
                result = handle.count()
                step.append(result.count)
                cache_hits += result.counter.cache_hits
            counts.append(tuple(step))
        elapsed = time.perf_counter() - started
        results[strategy] = {
            "seconds": elapsed,
            "index_builds": database.index_builds - before[0],
            "index_patches": database.index_patches - before[1],
            "index_compactions": database.index_compactions - before[2],
            "plan_builds": database.plan_builds - before[3],
            "adhesion_cache_hits": cache_hits,
            # Count-only streaming must never decode dictionary codes
            # (a delta over the streaming phase, like every other counter).
            "decodes": database.dictionary.decodes - before[4],
        }
        step_counts[strategy] = counts

    first = strategies[0]
    for strategy in strategies[1:]:
        if step_counts[strategy] != step_counts[first]:
            raise AssertionError(
                f"update strategies disagree: {first}={step_counts[first]} "
                f"{strategy}={step_counts[strategy]}"
            )
    report: Dict[str, object] = {
        "algorithm": algorithm,
        "num_batches": len(workload.batches),
        "queries": [query.name for query in workload.queries],
        "final_counts": step_counts[first][-1] if step_counts[first] else (),
        "strategies": results,
    }
    if "delta" in results and "rebuild" in results:
        report["speedup"] = results["rebuild"]["seconds"] / max(
            results["delta"]["seconds"], 1e-9
        )
    return report


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.5 = p50, 0.95 = p95)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def run_parallel_benchmark(
    databases: Mapping[str, Database],
    queries: Sequence[ConjunctiveQuery],
    algorithm: str = "lftj",
    backend: str = "processes",
    workers: Optional[int] = None,
    rounds: int = 3,
    assert_speedup: Optional[float] = None,
    compile: Optional[bool] = None,
) -> Dict[str, object]:
    """Serial vs morsel-parallel cells over warm caches; counts cross-checked.

    ``compile`` is passed through to the engine for lftj/clftj cells:
    ``False`` pins the interpreted join loop (so parallel speedups are
    measured against the interpreter on both sides), ``None`` keeps the
    engine default.

    For every (dataset, query) cell the harness warms the shared index cache
    with one serial run, then measures best-of-``rounds`` wall times for the
    serial executor and for the morsel scheduler on a **persistent worker
    pool** (the first parallel round also pays the pool's one-time worker
    spawn, which best-of absorbs).

    Both counts are asserted identical — a performance run doubles as a
    correctness run.  Each cell records ``partition_skew_morsel`` (max/mean
    per-worker work), per-morsel p50/p95 task seconds, utilization,
    worker-busy max/mean, steal and split counts.

    ``assert_speedup`` (e.g. ``1.5``) raises when any cell's morsel speedup
    falls below the bar; callers gate it on ``cores >= 2`` — fork workers
    cannot beat serial execution on a single core, they can only prove the
    counts still agree.

    ``workers=None`` sizes the pool to the usable core count
    (:func:`repro.engine.pool.available_workers`).
    """
    from repro.engine.pool import available_workers

    cores = os.cpu_count() or 1
    effective_workers = workers if workers is not None else available_workers()
    cells: List[Dict[str, object]] = []
    for dataset_name, database in databases.items():
        engine = QueryEngine(database)
        for query in queries:
            warmup = engine.count(query, algorithm=algorithm, compile=compile)
            times = {"serial": float("inf"), "morsel": float("inf")}
            counts: Dict[str, Optional[int]] = {}
            morsel_meta: Dict[str, object] = {}
            for _ in range(max(rounds, 1)):
                started = time.perf_counter()
                counts["serial"] = engine.count(
                    query, algorithm=algorithm, compile=compile
                ).count
                times["serial"] = min(
                    times["serial"], time.perf_counter() - started
                )
                started = time.perf_counter()
                result = engine.count(
                    query,
                    algorithm=algorithm,
                    parallel=effective_workers,
                    parallel_backend=backend,
                    compile=compile,
                )
                times["morsel"] = min(
                    times["morsel"], time.perf_counter() - started
                )
                counts["morsel"] = result.count
                morsel_meta = result.metadata
            if not warmup.count == counts["serial"] == counts["morsel"]:
                raise AssertionError(
                    f"serial/parallel counts disagree on {query.name!r} over "
                    f"{dataset_name!r}: warmup={warmup.count} "
                    f"serial={counts['serial']} morsel={counts['morsel']}"
                )
            speedup = times["serial"] / max(times["morsel"], 1e-9)
            task_seconds = list(morsel_meta.get("task_seconds") or [])
            busy = list(morsel_meta.get("worker_busy_seconds") or [])
            cells.append(
                {
                    "dataset": dataset_name,
                    "query": query.name,
                    "count": counts["serial"],
                    "serial_seconds": times["serial"],
                    "parallel_seconds": times["morsel"],
                    "speedup": speedup,
                    "workers": morsel_meta.get("workers"),
                    "morsels": morsel_meta.get("morsels"),
                    "tasks_executed": morsel_meta.get("tasks_executed"),
                    "steals": morsel_meta.get("steals"),
                    "splits": morsel_meta.get("splits"),
                    "parallel_backend": morsel_meta.get("parallel_backend"),
                    "partition_source": morsel_meta.get("partition_source"),
                    "partition_bounds": morsel_meta.get("partition_bounds"),
                    "shard_results": morsel_meta.get("shard_results"),
                    "task_seconds_p50": _percentile(task_seconds, 0.5),
                    "task_seconds_p95": _percentile(task_seconds, 0.95),
                    "utilization": morsel_meta.get("utilization"),
                    "worker_busy_max": max(busy) if busy else 0.0,
                    "worker_busy_mean": (
                        sum(busy) / len(busy) if busy else 0.0
                    ),
                    "partition_skew_morsel": morsel_meta.get("partition_skew"),
                    "morsel_skew": morsel_meta.get("morsel_skew"),
                    # Fault-tolerance sanity: a healthy benchmark run should
                    # show zero restarts/retries; nonzero values flag a host
                    # where workers are being killed (OOM, cgroup limits).
                    "worker_restarts": morsel_meta.get("worker_restarts", 0),
                    "morsel_retries": morsel_meta.get("morsel_retries", 0),
                }
            )
            if assert_speedup is not None and speedup < assert_speedup:
                raise AssertionError(
                    f"morsel speedup below {assert_speedup}x on "
                    f"{query.name!r} over {dataset_name!r}: {speedup:.2f}x "
                    f"(serial {times['serial']:.4f}s vs morsel "
                    f"{times['morsel']:.4f}s)"
                )
        database.close_pools()
    return {
        "algorithm": algorithm,
        "backend": backend,
        "workers": effective_workers,
        "cores": cores,
        "rounds": rounds,
        "cells": cells,
    }


def speedup_table(
    results: Sequence[ExecutionResult],
    baseline: str = "lftj",
    metric: str = "elapsed_seconds",
) -> List[Dict[str, object]]:
    """Compute per-cell speedups of every algorithm relative to ``baseline``.

    ``metric`` may be ``elapsed_seconds`` (wall clock) or ``memory_accesses``
    (the abstract operation counts used for the paper's memory analysis).
    """
    def metric_value(result: ExecutionResult) -> float:
        if metric == "elapsed_seconds":
            return max(result.elapsed_seconds, 1e-9)
        if metric == "memory_accesses":
            return max(float(result.memory_accesses), 1.0)
        raise ValueError(f"unknown metric {metric!r}")

    grouped: Dict[Tuple[str, str], Dict[str, ExecutionResult]] = {}
    for result in results:
        key = (str(result.metadata.get("dataset")), result.query_name)
        grouped.setdefault(key, {})[result.algorithm] = result

    rows: List[Dict[str, object]] = []
    for (dataset, query_name), by_algorithm in sorted(grouped.items()):
        if baseline not in by_algorithm:
            continue
        base_value = metric_value(by_algorithm[baseline])
        row: Dict[str, object] = {
            "dataset": dataset,
            "query": query_name,
            "count": by_algorithm[baseline].count,
            f"{baseline}_{metric}": base_value,
        }
        for algorithm, result in sorted(by_algorithm.items()):
            if algorithm == baseline:
                continue
            row[f"speedup_{algorithm}"] = base_value / metric_value(result)
        rows.append(row)
    return rows
