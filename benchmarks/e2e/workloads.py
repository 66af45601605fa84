"""The five workloads, driven only through ``repro``'s public calls.

Each workload names the layer that does its work (see README.md for the
table): ``count_warm`` the compiled join loop and the adhesion cache,
``eval_rows`` the interpreted CLFTJ evaluation and the decode boundary,
``update_stream`` the LSM delta level, ``count_parallel`` the fork pool and
``serve_closed`` the HTTP front-end.  Sizes were calibrated on the 2-core
reference box so that a cycle of ten library operations takes 0.8-1.0 s.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import graphs
import oracle
from oracle import QUERY_TEXT
from schedule import MIN_CLASS_MS, MIN_CYCLES, SLOTS, Op, Sample, class_latencies
from trace import Tracer, span_ms

from repro import Database, QueryEngine, Relation, parse_query

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parents[1] / "src"
EDGE_ATTRIBUTES = ("src", "dst")

Layer = Dict[str, Callable[[], float]]


def result_counts(result) -> Dict[str, object]:
    """What one ``ExecutionResult`` says its layers did."""
    counter, metadata = result.counter, result.metadata
    return {
        "elapsed_ms": result.elapsed_seconds * 1e3,
        "memory_accesses": counter.memory_accesses,
        "cache_hits": counter.cache_hits,
        "cache_lookups": counter.cache_lookups,
        "cache_evictions": counter.cache_evictions,
        "compiled": bool(metadata.get("compiled")),
        "compiled_reason": metadata.get("compiled_reason") or metadata.get("mode_reason"),
        "parallel": {
            key: metadata[key]
            for key in ("utilization", "splits", "steals", "tasks_executed",
                        "morsels", "worker_restarts")
            if key in metadata
        },
    }


def execute(span, cls: str, call: Callable[[], object]):
    """One engine execution inside a ``core.exec`` span carrying its counts."""
    with span("core.exec", cls=cls) as record:
        result = call()
    if record is not None:
        record["counts"].update(result_counts(result))
    return result


def timed_ms(call: Callable[[], object]) -> float:
    started = time.perf_counter_ns()
    call()
    return (time.perf_counter_ns() - started) / 1e6


def median_ms(call: Callable[[], object], repeats: int = 3) -> float:
    return statistics.median(timed_ms(call) for _ in range(repeats))


def median_of(spans: Sequence[Dict[str, object]], count: Optional[str] = None) -> float:
    """Median duration of ``spans`` (or of one of their counts)."""
    if not spans:
        raise LookupError("no such span was recorded")
    if count is None:
        return statistics.median(span_ms(span) for span in spans)
    return statistics.median(span["counts"][count] for span in spans)


class Workload:
    """Set-up, the ops of each cycle, the checks after it, the layer metrics."""

    name = ""
    #: Seconds one cycle takes on the reference box; fixes the cycle count.
    cycle_seconds = 1.0
    min_class_ms = MIN_CLASS_MS
    #: ``core.count_ms`` or ``core.eval_ms``: what an execution span times.
    exec_metric = "core.count_ms"
    #: A cheap compiled count: timed cold after ``clear_compiled_cache()``.
    compile_probe: Callable[[], object]

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        self.seed = seed
        self.tiny = tiny
        self.cycles = cycles
        self.database: Optional[Database] = None
        self.ops: List[Op] = []

    @classmethod
    def cycles_for(cls, seconds: float) -> int:
        return max(MIN_CYCLES, round(seconds / cls.cycle_seconds))

    # ------------------------------------------------------------- lifecycle
    def setup(self, span) -> None:
        raise NotImplementedError

    def begin_timed(self) -> None:
        """Called after the warm-up cycles, before the first timed one."""

    def finish(self) -> List[str]:
        """Checks that need the whole run; returns what is wrong."""
        return []

    def close(self) -> None:
        if self.database is not None:
            self.database.close_pools()
            self.database = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --------------------------------------------------------------- helpers
    def cycle_ops(self, cycle: int) -> Sequence[Op]:
        """The ops of one cycle, in an order drawn from the seed."""
        return random.Random(self.seed * 100003 + cycle).sample(self.ops, len(self.ops))

    def load(self, span, edges, name: str = "skewed", **options) -> Database:
        with span("storage.load"):
            database = Database([Relation("E", EDGE_ATTRIBUTES, edges)], name=name, **options)
        with span("storage.index_build"):
            database.trie_index("E", (0, 1))
        return database

    def parse(self, span, key: str):
        with span("query.parse"):
            return parse_query(QUERY_TEXT[key], name=key)

    def prepare(self, span, engine: QueryEngine, key: str, algorithm: str, **options):
        query = self.parse(span, key)
        with span("engine.plan", query=key):
            return engine.prepare(query, algorithm=algorithm, **options)

    def count_op(self, cls: str, call: Callable[[], object], expected: int) -> Op:
        return Op(cls, lambda span: execute(span, cls, call), lambda r: r.count == expected)

    def run_cold(self, span) -> None:
        """Set-up ends with the first, cold run of every op class."""
        for op in {op.cls: op for op in self.ops}.values():
            with span("setup.cold", cls=op.cls):
                value = op.run(span)
            if not op.check(value):
                raise RuntimeError(f"{self.name}: cold {op.cls} returned a wrong answer")

    # ---------------------------------------------------------- layer metrics
    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        database = self.database
        executions = tracer.timed("core.exec")
        classes = sorted({span["counts"]["cls"] for span in executions})

        def per_cycle(count: str) -> float:
            sums: Dict[int, int] = {}
            for span in executions:
                sums[span["cycle"]] = sums.get(span["cycle"], 0) + span["counts"][count]
            return statistics.median(sums.values())

        def fallback_ratio() -> float:
            return sum(not span["counts"]["compiled"] for span in executions) / len(executions)

        def compile_ms() -> float:
            database.clear_compiled_cache()
            return timed_ms(self.compile_probe) - median_ms(self.compile_probe)

        layer: Layer = {
            "query.parse_ms": lambda: sum(map(span_ms, tracer.named("query.parse"))),
            "engine.plan_builds": lambda: database.plan_builds,
            "storage.load_s": lambda: sum(map(span_ms, tracer.named("storage.load"))) / 1e3,
            "storage.index_build_ms": lambda: sum(
                map(span_ms, tracer.named("storage.index_build"))
            ),
            "storage.index_builds": lambda: database.index_builds,
            "storage.memory_footprint_mb": lambda: database.memory_footprint() / 1e6,
            "engine.compiled_builds": lambda: database.compiled_builds,
            "engine.compiled_fallback_ratio": fallback_ratio,
            "engine.compile_ms": compile_ms,
            "core.memory_accesses": lambda: per_cycle("memory_accesses"),
            "core.cache_evictions": lambda: per_cycle("cache_evictions"),
        }
        for key in {span["counts"]["query"] for span in tracer.named("engine.plan")}:
            layer[f"engine.plan_ms.{key}"] = lambda key=key: sum(
                map(span_ms, tracer.named("engine.plan", query=key))
            )
        for cls in classes:
            layer[f"{self.exec_metric}.{cls}"] = lambda cls=cls: median_of(
                tracer.timed("core.exec", cls=cls), "elapsed_ms"
            )
        return layer


def class_latency(samples: Sequence[Sample], cls: str) -> float:
    return statistics.median(class_latencies(samples)[cls])


def hit_ratio(tracer: Tracer, cls: str) -> float:
    spans = tracer.timed("core.exec", cls=cls)
    return sum(s["counts"]["cache_hits"] for s in spans) / sum(
        s["counts"]["cache_lookups"] for s in spans
    )


# --------------------------------------------------------------------------
class CountWarm(Workload):
    """Serial counts over warm plan, index and compiled-driver caches."""

    name = "count_warm"
    cycle_seconds = 0.8

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        super().__init__(seed, tiny, cycles)
        nodes, edges, flat_nodes, flat_edges = (60, 200, 60, 150) if tiny else (680, 2720, 1000, 3000)
        self.edges = graphs.skewed(nodes, edges, seed)
        self.flat_edges = graphs.flat(flat_nodes, flat_edges, seed)
        self.expected = oracle.counts(self.edges, nodes)
        self.flat_expected = oracle.counts(self.flat_edges, flat_nodes)

    def setup(self, span) -> None:
        self.database = self.load(span, self.edges)
        self.flat_database = self.load(span, self.flat_edges, name="flat")
        engine, flat_engine = QueryEngine(self.database), QueryEngine(self.flat_database)
        tri = self.prepare(span, engine, "tri", "lftj")
        c4_lftj = self.prepare(span, engine, "c4", "lftj")
        p4_lftj = self.prepare(span, engine, "p4", "lftj")
        p4_warm = self.prepare(span, engine, "p4", "clftj")
        # a cache smaller than the working set, the paper's Figure 10
        p4_cap100 = self.prepare(span, engine, "p4", "clftj", cache_capacity=100)
        p4 = self.parse(span, "p4")
        expected, op = self.expected, self.count_op
        # ordered by cost; 5-7 (c4.lftj) carry p50 and 9-10 (p4.lftj) p90
        self.ops = [
            op("tri.lftj", tri.count, expected["tri"]),
            op("p4.clftj.warm", p4_warm.count, expected["p4"]),
            # engine.count fills a new adhesion cache per execution: the paper's regime
            op("p4.clftj.fresh", lambda: engine.count(p4, algorithm="clftj"), expected["p4"]),
            op("p4.clftj.fresh.flat", lambda: flat_engine.count(p4, algorithm="clftj"),
               self.flat_expected["p4"]),
            op("c4.lftj", c4_lftj.count, expected["c4"]),
            op("c4.lftj", c4_lftj.count, expected["c4"]),
            op("c4.lftj", c4_lftj.count, expected["c4"]),
            op("p4.clftj.cap100", p4_cap100.count, expected["p4"]),
            op("p4.lftj", p4_lftj.count, expected["p4"]),
            op("p4.lftj", p4_lftj.count, expected["p4"]),
        ]
        self.compile_probe = tri.count
        self.run_cold(span)

    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        layer = super().layer_metrics(tracer, samples)
        for short, cls in (("warm", "p4.clftj.warm"), ("fresh", "p4.clftj.fresh"),
                           ("cap100", "p4.clftj.cap100"), ("flat", "p4.clftj.fresh.flat")):
            layer[f"core.cache_hit_ratio.{short}"] = lambda cls=cls: hit_ratio(tracer, cls)
        layer["core.clftj_over_lftj.p4"] = lambda: (
            class_latency(samples, "p4.lftj") / class_latency(samples, "p4.clftj.fresh")
        )
        return layer


# --------------------------------------------------------------------------
class EvalRows(Workload):
    """Serial evaluation plus reading ``.rows``, which forces the decode."""

    name = "eval_rows"
    cycle_seconds = 0.9
    exec_metric = "core.eval_ms"

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        super().__init__(seed, tiny, cycles)
        nodes, edges = (50, 150) if tiny else (225, 690)
        self.edges = graphs.skewed(nodes, edges, seed)
        self.edge_set = set(self.edges)
        self.expected = oracle.counts(self.edges, nodes)
        self.checksums: Dict[str, int] = {}

    def eval_op(self, span, engine: QueryEngine, key: str, algorithm: str) -> Op:
        cls = f"{key}.{algorithm}"
        handle = self.prepare(span, engine, key, algorithm)

        def run(span):
            result = execute(span, cls, handle.evaluate)
            with span("storage.decode", cls=cls) as record:
                rows = result.rows
            if record is not None:
                record["counts"].update(rows=len(rows), decodes=result.metadata["decodes"])
            return result

        def check(result) -> bool:
            rows = result.rows
            sample = rows[:: max(1, len(rows) // 64)]
            names = [variable.name for variable in result.variable_order]
            checksum = sum(map(sum, sample))
            return (
                result.count == len(rows) == self.expected[key]
                and oracle.rows_are_answers(sample, oracle.atom_positions(key, names), self.edge_set)
                and self.checksums.setdefault(cls, checksum) == checksum
            )

        return Op(cls, run, check)

    def setup(self, span) -> None:
        self.database = self.load(span, self.edges)
        engine = QueryEngine(self.database)
        op = functools.partial(self.eval_op, span, engine)
        lol_lftj, lol_clftj = op("lol", "lftj"), op("lol", "clftj")
        # ordered by cost; 5-7 (lol.lftj, decode-bound) carry p50 and 9-10
        # (lol.clftj, interpreted join plus decode) p90
        self.ops = [
            op("tri", "lftj"), op("c4", "lftj"), op("p3", "lftj"), op("c4", "clftj"),
            lol_lftj, lol_lftj, lol_lftj, op("p3", "clftj"), lol_clftj, lol_clftj,
        ]
        tri = self.prepare(span, engine, "tri", "lftj")
        self.compile_probe = tri.count
        self.run_cold(span)

    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        layer = super().layer_metrics(tracer, samples)
        decodes = tracer.timed("storage.decode")
        rows = sum(span["counts"]["rows"] for span in decodes)
        traced_s = sum(sample.ns for sample in samples if sample.traced) / 1e9
        layer["storage.decode_ms_per_krow"] = lambda: sum(map(span_ms, decodes)) / rows * 1e3
        layer["storage.decodes"] = lambda: statistics.median(
            span["counts"]["decodes"] for span in decodes
        )
        layer["core.rows_per_s"] = lambda: rows / traced_s
        for key in ("c4", "p3", "lol"):
            layer[f"core.clftj_over_lftj.{key}"] = lambda key=key: (
                class_latency(samples, f"{key}.lftj") / class_latency(samples, f"{key}.clftj")
            )
        return layer


# --------------------------------------------------------------------------
class UpdateStream(Workload):
    """Each op moves edges in and out, then re-counts prepared queries.

    A step is light (re-count the cached path query), typical (re-count the
    triangle with CLFTJ and LFTJ) or heavy (re-count all four), so that p50
    and p90 sit on op classes and not on the noise tail of a single one.

    The database runs a small-scale LSM: ``compaction_floor=600`` under a
    base of 760 tuples, where the default 4096 would need 5200.  At the
    default scale a re-count over the resident delta level takes 150-400 ms,
    and 120 steps do not fit a run.  Edges move between the graph and a
    spare pool drawn from the same skewed graph, so the graph's size and
    skew hold still while it changes.
    """

    name = "update_stream"
    cycle_seconds = 0.85
    MOVED = 12
    #: Set-up streams this many heavy steps before the first cycle.
    SETUP_STEPS = 5
    #: Prepared handles as (query, algorithm); a step class re-counts some.
    HANDLES = {"p4.clftj.warm": ("p4", "clftj"), "tri.clftj": ("tri", "clftj"),
               "tri.lftj": ("tri", "lftj"), "p2.lftj": ("p2", "lftj")}
    COUNTED = {"step.path": ("p4.clftj.warm",), "step.tri": ("tri.clftj", "tri.lftj"),
               "step.all": tuple(HANDLES)}
    # ordered by cost; slots 4-8 (step.tri) carry p50 and 9-10 (step.all) p90
    KINDS = ("step.path",) * 3 + ("step.tri",) * 5 + ("step.all",) * 2

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        super().__init__(seed, tiny, cycles)
        nodes, base, spare = (60, 160, 60) if tiny else (195, 760, 250)
        self.floor = 96 if tiny else 600
        self.nodes = nodes
        universe = graphs.skewed(nodes, base + spare, seed)
        self.base, spare_edges = universe[:base], universe[base:]
        present = list(self.base)
        triangles = oracle.TriangleCounter(present)
        rng = random.Random(seed)
        self.setup_steps = 2 if tiny else self.SETUP_STEPS
        #: (inserted, deleted, expected counts afterwards) per step, set-up's first
        self.steps: List[Tuple[List, List, Dict[str, int]]] = []
        for _ in range(self.setup_steps + (2 + cycles) * SLOTS):
            inserted = [spare_edges.pop(rng.randrange(len(spare_edges))) for _ in range(self.MOVED)]
            deleted = [present.pop(rng.randrange(len(present))) for _ in range(self.MOVED)]
            present.extend(inserted)
            spare_edges.extend(deleted)
            for edge in inserted:
                triangles.insert(edge)
            for edge in deleted:
                triangles.delete(edge)
            walks = oracle.walks(present, nodes, 4)
            self.steps.append(
                (inserted, deleted, {"tri": triangles.count, "p2": walks[2], "p4": walks[4]})
            )

    def step_op(self, step: int, kind: str) -> Op:
        inserted, deleted, expected = self.steps[step]
        database = self.database
        counted = [(cls, self.handles[cls].count, expected[self.HANDLES[cls][0]])
                   for cls in self.COUNTED[kind]]

        def run(span):
            self.applied = step
            with span("storage.mutate") as record:
                before = database.index_compactions
                with span("storage.insert"):
                    database.insert("E", inserted)
                with span("storage.delete"):
                    database.delete("E", deleted)
                compactions = database.index_compactions - before
            if record is not None:
                record["counts"]["compactions"] = compactions
            return compactions, [execute(span, cls, count).count for cls, count, _ in counted]

        def check(value) -> bool:
            self.compacting_steps += value[0] > 0
            return value[1] == [wanted for _, _, wanted in counted]

        return Op(kind, run, check)

    def setup(self, span) -> None:
        self.database = self.load(span, self.base, compaction_floor=self.floor)
        engine = QueryEngine(self.database)
        self.handles = {cls: self.prepare(span, engine, key, algorithm)
                        for cls, (key, algorithm) in self.HANDLES.items()}
        self.compile_probe = self.handles["tri.lftj"].count
        self.compacting_steps = 0
        for step in range(self.setup_steps):
            self.ops = [self.step_op(step, "step.all")]
            self.run_cold(span)

    def cycle_ops(self, cycle: int) -> Sequence[Op]:
        kinds = random.Random(self.seed * 100003 + cycle).sample(self.KINDS, SLOTS)
        first = self.setup_steps + cycle * SLOTS
        return [self.step_op(first + slot, kind) for slot, kind in enumerate(kinds)]

    def begin_timed(self) -> None:
        self.compacting_steps = 0
        self.patches_before = self.database.index_patches
        self.compactions_before = self.database.index_compactions

    def finish(self) -> List[str]:
        problems = []
        steps = self.cycles * SLOTS
        if not self.tiny and not 3 <= self.compacting_steps < steps:
            problems.append(f"{self.compacting_steps} compactions in {steps} steps")
        self.patches = self.database.index_patches - self.patches_before
        self.compactions = self.database.index_compactions - self.compactions_before
        # the final counts against a database rebuilt from the final edge set
        edges = set(self.base)
        for inserted, deleted, _ in self.steps[: self.applied + 1]:
            edges.update(inserted)
            edges.difference_update(deleted)
        final = sorted(edges)
        rebuilt = QueryEngine(Database([Relation("E", EDGE_ATTRIBUTES, final)]))
        wanted = oracle.counts(final, self.nodes)
        for cls, (key, algorithm) in self.HANDLES.items():
            query = parse_query(QUERY_TEXT[key], name=key)
            answers = {"stream": self.handles[cls].count().count,
                       "rebuilt": rebuilt.count(query, algorithm=algorithm).count}
            problems += [f"{source} {cls} says {count}, not {wanted[key]}"
                         for source, count in answers.items() if count != wanted[key]]
        return problems

    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        layer = super().layer_metrics(tracer, samples)
        mutations = tracer.timed("storage.mutate")
        quiet = [s for s in mutations if not s["counts"]["compactions"]]
        compacting = [s for s in mutations if s["counts"]["compactions"]]

        def delta_read_slowdown() -> float:
            resident = median_of(
                [s for s in tracer.timed("core.exec", cls="tri.lftj") if not s["counts"]["compiled"]],
                "elapsed_ms",
            )
            self.database.compact("E")
            count = self.handles["tri.lftj"].count
            count()  # recompiles over the folded index
            folded = statistics.median(count().elapsed_seconds * 1e3 for _ in range(3))
            return resident / folded

        layer.update({
            "storage.insert_ms": lambda: median_of(tracer.timed("storage.insert")),
            "storage.delete_ms": lambda: median_of(tracer.timed("storage.delete")),
            "storage.compact_ms": lambda: median_of(compacting) - median_of(quiet),
            "storage.index_patches": lambda: self.patches,
            "storage.compactions": lambda: self.compactions,
            "storage.delta_read_slowdown": delta_read_slowdown,
            "core.clftj_over_lftj.tri": lambda: (
                median_of(tracer.timed("core.exec", cls="tri.lftj"), "elapsed_ms")
                / median_of(tracer.timed("core.exec", cls="tri.clftj"), "elapsed_ms")
            ),
        })
        return layer


# --------------------------------------------------------------------------
class CountParallel(Workload):
    """Counts on the persistent fork pool, two workers on two cores."""

    name = "count_parallel"
    cycle_seconds = 1.0
    PARALLEL = {"parallel": 2, "parallel_backend": "processes"}
    CLASSES = (("lol", "clftj"), ("p4", "lftj"), ("c5", "lftj"))

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        super().__init__(seed, tiny, cycles)
        self.nodes, self.num_edges = (60, 200) if tiny else (350, 1250)
        self.edges = graphs.skewed(self.nodes, self.num_edges, seed)
        self.expected = oracle.counts(self.edges, self.nodes)

    def setup(self, span) -> None:
        self.database = self.load(span, self.edges)
        self.engine = QueryEngine(self.database)
        light, typical, heavy = (
            self.count_op(
                f"{key}.{algorithm}",
                self.prepare(span, self.engine, key, algorithm, **self.PARALLEL).count,
                self.expected[key],
            )
            for key, algorithm in self.CLASSES
        )
        # light is below the pool's break-even; slots 4-8 carry p50, 9-10 p90
        self.ops = [light] * 3 + [typical] * 5 + [heavy] * 2
        with span("pool.spawn"):  # the first parallel job forks the workers
            self.run_cold(span)

    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        layer = super().layer_metrics(tracer, samples)
        for name in list(layer):
            # a parallel execution's elapsed time is the pool's, reported below
            if name.startswith("core.count_ms.") or name == "engine.compile_ms":
                del layer[name]
        executions = tracer.timed("core.exec")
        engine = self.engine

        def pool_count(key: str) -> float:
            return statistics.median(s["counts"]["parallel"][key] for s in executions)

        @functools.lru_cache(maxsize=None)
        def serial_ms(key: str, algorithm: str) -> float:
            handle = engine.prepare(parse_query(QUERY_TEXT[key], name=key), algorithm=algorithm)
            handle.count()
            return median_ms(handle.count)

        def threads_speedup() -> float:
            handle = engine.prepare(parse_query(QUERY_TEXT["p4"], name="p4"), algorithm="lftj",
                                    parallel=2, parallel_backend="threads")
            handle.count()
            return serial_ms("p4", "lftj") / median_ms(handle.count)

        def clftj_cycle_slowdown() -> float:
            # once, at reduced scale: parallel CLFTJ on a cycle is too slow to time
            nodes, edges = self.nodes // 2, self.num_edges // 4
            with Database([Relation("E", EDGE_ATTRIBUTES,
                                    graphs.skewed(nodes, edges, self.seed))]) as small:
                small_engine = QueryEngine(small)
                c4 = parse_query(QUERY_TEXT["c4"], name="c4")
                small_engine.count(c4, algorithm="clftj")
                serial = timed_ms(lambda: small_engine.count(c4, algorithm="clftj"))
                return timed_ms(lambda: small_engine.count(
                    c4, algorithm="clftj", timeout=20, **self.PARALLEL)) / serial

        layer.update({
            "pool.spawn_s": lambda: (
                sum(map(span_ms, tracer.named("pool.spawn")))
                - sum(class_latency(samples, f"{k}.{a}") for k, a in self.CLASSES)
            ) / 1e3,
            "pool.utilization": lambda: pool_count("utilization"),
            "pool.splits": lambda: pool_count("splits"),
            "pool.steals": lambda: pool_count("steals"),
            "pool.tasks_per_morsel": lambda: pool_count("tasks_executed") / pool_count("morsels"),
            "pool.worker_restarts": lambda: sum(
                s["counts"]["parallel"]["worker_restarts"] for s in executions
            ),
            "pool.threads_speedup.p4": threads_speedup,
            "pool.clftj_cycle_slowdown": clftj_cycle_slowdown,
        })
        for key, algorithm in self.CLASSES:
            layer[f"pool.speedup.{key}.{algorithm}"] = lambda key=key, algorithm=algorithm: (
                serial_ms(key, algorithm) / class_latency(samples, f"{key}.{algorithm}")
            )
        return layer


# --------------------------------------------------------------------------
class ServeClosed(Workload):
    """One closed-loop HTTP client against ``python -m repro serve``.

    The client waits for a reply before its next request (a caller that
    waits makes a closed loop), holds one session and opens a connection per
    request, because the server speaks HTTP/1.0.

    Client and server share one core.  The loop keeps exactly one of the two
    running at any time; left on two cores, each core idles between requests
    and pays the shared box's wake-up at every hand-over.  Over eight
    alternating runs of the same code, all operations pooled, throughput
    spread 7 % pinned and 17 % free, p90 6 % and 36 %, and the pinned server
    answered a tenth faster.  Two client threads, which the issue asked
    for, add the interpreter locks of both processes to that: four runnable
    threads on two cores measure the scheduler, not the server.
    """

    name = "serve_closed"
    cycle_seconds = 0.08
    min_class_ms = 0.0  # an HTTP round trip, not a library call
    LIGHT = (("tri", "lftj"), ("p3", "clftj"), ("p4", "clftj"), ("lol", "clftj"))
    TYPICAL = (("p3", "clftj"), ("p4", "clftj"), ("lol", "clftj"), ("lol", "clftj"))
    ROWS = 5000
    #: Response metadata that ``/metrics`` sums as ``repro_query_<name>_total``.
    COUNTERS = ("index_builds", "index_cache_hits", "index_patches", "index_compactions",
                "plan_builds", "plan_cache_hits", "compiled_builds", "compiled_cache_hits")

    def __init__(self, seed: int, tiny: bool, cycles: int) -> None:
        super().__init__(seed, tiny, cycles)
        nodes, edges = (60, 200) if tiny else (300, 1000)
        self.edges = graphs.skewed(nodes, edges, seed)
        self.edge_set = set(self.edges)
        self.expected = oracle.counts(self.edges, nodes)
        self.work_dir = BENCH_DIR / ".work" / str(os.getpid())
        self.server: Optional[subprocess.Popen] = None
        self.port = 0

    # ------------------------------------------------------------------ HTTP
    def request(self, path: str, body: Optional[Dict[str, object]] = None,
                session: Optional[str] = None):
        """One request on its own connection; returns (status, payload)."""
        headers = {"Content-Type": "application/json"}
        if session:
            headers["X-Repro-Session"] = session
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            if body is None:
                connection.request("GET", path)
            else:
                connection.request("POST", path, json.dumps(body), headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if path == "/metrics":
            return response.status, raw.decode("utf-8")
        return response.status, json.loads(raw)

    def query_op(self, cls: str, path: str, key: str, algorithm: str,
                 session: Optional[str] = None) -> Op:
        body = {"query": QUERY_TEXT[key], "algorithm": algorithm}
        if path == "/evaluate":
            body["max_rows"] = self.ROWS
        names = sorted(set(QUERY_TEXT[key]) - set("E(), "))
        totals = self.totals

        def run(span):
            with span("server.call", cls=cls) as record:
                status, payload = self.request(path, body, session)
            totals["shed"] += status in (429, 503)
            if status == 200:
                # every answered query is in /metrics, so every one is summed here
                for name in self.COUNTERS:
                    totals[name] += payload["metadata"].get(name, 0)
                if record is not None:
                    record["counts"].update(elapsed_ms=payload["elapsed_seconds"] * 1e3,
                                            rows=len(payload.get("rows", ())))
            return status, payload

        def check(value) -> bool:
            status, payload = value
            if status != 200 or payload["count"] != self.expected[key]:
                return False
            if path == "/count":
                return True
            rows = payload["rows"]
            wanted = min(self.ROWS, self.expected[key])
            # rows follow the query's textual variable order for LFTJ
            return len(rows) == wanted and oracle.rows_are_answers(
                rows[:: max(1, len(rows) // 64)], oracle.atom_positions(key, names), self.edge_set
            )

        return Op(cls, run, check)

    # ------------------------------------------------------------- lifecycle
    def setup(self, span) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        edge_file = self.work_dir / "edges.txt"
        edge_file.write_text("".join(f"{s}\t{t}\n" for s, t in self.edges))
        environment = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        try:  # the server inherits the one core; a box that refuses runs unpinned
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass
        with span("server.boot"):
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dataset", str(edge_file),
                 "--port", "0", "--max-concurrency", "2"],
                stdout=subprocess.PIPE, text=True, env=environment,
            )
            banner = self.server.stdout.readline()  # blocks until the socket is bound
            if "http://" not in banner:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
            if self.request("/healthz")[0] != 200:
                raise RuntimeError("repro serve is not healthy")
        self.totals = dict.fromkeys(self.COUNTERS + ("shed",), 0)
        session = None
        for key, algorithm in self.LIGHT:
            with span("server.prepare"):
                status, payload = self.request(
                    "/prepare", {"query": QUERY_TEXT[key], "algorithm": algorithm}, session
                )
            if status != 200:
                raise RuntimeError(f"/prepare answered {status}: {payload}")
            session = payload["session"]
        light = [self.query_op("session.count", "/count", key, algorithm, session)
                 for key, algorithm in self.LIGHT]
        typical = [self.query_op("text.count", "/count", key, algorithm)
                   for key, algorithm in self.TYPICAL]
        heavy = [self.query_op("evaluate.rows", "/evaluate", "p2", "lftj")] * 2
        # slots 5-8 (parse, plan-cache hit, join) carry p50; 9-10 (decode, JSON) p90
        self.ops = light + typical + heavy
        for op in self.ops:
            with span("setup.cold", cls=op.cls):
                if not op.check(op.run(span)):
                    raise RuntimeError(f"serve_closed: cold {op.cls} returned a wrong answer")

    def server_metrics(self) -> Dict[str, float]:
        status, text = self.request("/metrics")
        return {
            line.split()[0]: float(line.split()[1])
            for line in text.splitlines()
            if line and not line.startswith("#") and "{" not in line
        }

    def finish(self) -> List[str]:
        self.rss_mb = float(
            Path(f"/proc/{self.server.pid}/status").read_text().split("VmHWM:")[1].split()[0]
        ) / 1024.0
        self.metrics = self.server_metrics()
        problems = []
        for name in self.COUNTERS:
            told = self.totals[name]
            served = self.metrics[f"repro_query_{name}_total"]
            if told != served:
                problems.append(f"/metrics repro_query_{name}_total={served}, responses sum to {told}")
        return problems

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        if self.server is not None:
            self.server.terminate()  # SIGTERM drains and exits 0
            try:
                self.server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def layer_metrics(self, tracer: Tracer, samples: Sequence[Sample]) -> Layer:
        timed = [s for s in tracer.timed("server.call") if "elapsed_ms" in s["counts"]]
        evaluations = [s for s in timed if s["counts"]["cls"] == "evaluate.rows"]
        outside_ms = lambda span: span_ms(span) - span["counts"]["elapsed_ms"]
        ordered = sorted(sample.ns / 1e6 for sample in samples)
        shed = self.totals["shed"]
        return {
            "query.parse_ms": lambda: sum(
                timed_ms(functools.partial(parse_query, QUERY_TEXT[key]))
                for key, _ in self.LIGHT + self.TYPICAL
            ),
            "storage.memory_footprint_mb": lambda: (
                self.metrics["repro_db_memory_footprint_bytes"] / 1e6
            ),
            "storage.index_builds": lambda: self.metrics["repro_db_index_builds_total"],
            "engine.plan_builds": lambda: self.metrics["repro_db_plan_builds_total"],
            "engine.compiled_builds": lambda: self.metrics["repro_db_compiled_builds_total"],
            "server.boot_s": lambda: sum(map(span_ms, tracer.named("server.boot"))) / 1e3,
            "server.prepare_ms": lambda: median_of(tracer.named("server.prepare")),
            "server.overhead_ms": lambda: statistics.median(map(outside_ms, timed)),
            "server.rows_serialized_per_s": lambda: (
                sum(s["counts"]["rows"] for s in evaluations)
                / sum(map(outside_ms, evaluations)) * 1e3
            ),
            "server.shed_ratio": lambda: shed / len(samples),
            "server.latency_p99_ms": lambda: ordered[int(0.99 * len(ordered))],
        }


WORKLOADS = {cls.name: cls for cls in (CountWarm, EvalRows, UpdateStream, CountParallel, ServeClosed)}
