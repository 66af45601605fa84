"""Concurrent-client correctness: the single-client assumptions fixed in PR 10.

Three groups of regressions:

* **Cache-delta attribution** — per-run ``index_builds``/``plan_builds``/
  ``compiled_builds`` metadata used to be computed by diffing the global
  :class:`~repro.storage.database.Database` counters before/after an
  execution, so two concurrent executions misattributed each other's
  builds.  The engine now threads a per-execution
  :class:`~repro.storage.database.CacheCounterScope` through execution,
  so the metadata reports exactly the work that execution performed.

* **Per-execution deadlines** — ``timeout=`` travels inside the
  :class:`~repro.engine.executors.ExecutorRequest` and is assigned to the
  executor unconditionally, so overlapping timed queries on one engine
  never observe each other's clocks.

* **Concurrent-clients stress** — N threads x M queries over one shared
  ``Database`` with mixed algorithms, mixed timeouts and one mutating
  writer must return exactly the serial-oracle answers, and the summed
  per-request metadata must reconcile with the global counters.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.faults import QueryTimeoutError
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import brute_force_count, random_edge_database

#: Metadata keys whose per-run values must sum to the global counter delta.
BUILD_COUNTERS = ("index_builds", "plan_builds", "compiled_builds")


def run_threads(workers):
    """Start, join and re-raise: any worker exception fails the test."""
    errors = []

    def guard(fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        return wrapped

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]


class TestCacheDeltaAttribution:
    """Per-run build metadata must attribute only the run's own work."""

    def test_open_scope_never_sees_another_threads_builds(self):
        """Deterministic form of the old race: a scope held open in one
        thread across another thread's entire cold execution must record
        nothing (the global-diff approach counted everything)."""
        db = random_edge_database()
        engine = QueryEngine(db)
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def bystander():
            with db.execution_scope() as scope:
                entered.set()
                assert release.wait(timeout=60)
                observed["deltas"] = scope.as_dict()

        thread = threading.Thread(target=bystander)
        thread.start()
        try:
            assert entered.wait(timeout=60)
            result = engine.count(cycle_query(3), algorithm="clftj")
        finally:
            release.set()
            thread.join(timeout=60)
        assert observed["deltas"] == {}
        # ... while the execution that did the cold work reports it.
        assert result.metadata["plan_builds"] == 1
        assert result.metadata["index_builds"] >= 1

    def test_warm_runs_stay_zero_while_a_cold_thread_builds(self):
        """A warm query looping in one thread must keep reporting zero
        builds while another thread builds plans/indexes/drivers for new
        query shapes on the same database."""
        db = random_edge_database()
        engine = QueryEngine(db)
        warm_query = cycle_query(3)
        engine.count(warm_query, algorithm="clftj")  # warm every cache
        barrier = threading.Barrier(2)
        warm_metadata = []
        cold_results = []

        def warm_loop():
            barrier.wait(timeout=60)
            for _ in range(30):
                result = engine.count(warm_query, algorithm="clftj")
                warm_metadata.append(result.metadata)

        def cold_loop():
            barrier.wait(timeout=60)
            for shape in (path_query(2), path_query(3), cycle_query(4), path_query(4)):
                cold_results.append(engine.count(shape, algorithm="clftj"))

        run_threads([warm_loop, cold_loop])
        for metadata in warm_metadata:
            for key in BUILD_COUNTERS:
                assert metadata[key] == 0, (key, metadata)
        assert sum(r.metadata["plan_builds"] for r in cold_results) == len(cold_results)

    def test_concurrent_metadata_reconciles_with_global_counters(self):
        """Summed per-run build metadata == global counter delta, even when
        the builds happened concurrently (nothing double- or un-counted)."""
        db = random_edge_database()
        engine = QueryEngine(db)
        before = {key: getattr(db, key) for key in BUILD_COUNTERS}
        shapes = [cycle_query(3), path_query(3), cycle_query(4), path_query(2)]
        results = [[] for _ in shapes]
        barrier = threading.Barrier(len(shapes))

        def client(index, shape):
            def work():
                barrier.wait(timeout=60)
                for _ in range(5):
                    results[index].append(engine.count(shape, algorithm="clftj"))

            return work

        run_threads([client(i, shape) for i, shape in enumerate(shapes)])
        for key in BUILD_COUNTERS:
            total = sum(r.metadata[key] for group in results for r in group)
            assert getattr(db, key) - before[key] == total, key

    def test_parallel_cold_run_owns_its_builds(self):
        """The serial template builds every index and the driver in the
        submitting thread before the pool forks, so a parallel cold run
        still owns its builds in the metadata."""
        db = random_edge_database()
        engine = QueryEngine(db)
        result = engine.count(cycle_query(3), algorithm="clftj", parallel=2)
        # >= 1 (not == 1): the parallel executor also plans its morsel
        # template — still this run's own work.
        assert result.metadata["plan_builds"] >= 1
        assert result.metadata["index_builds"] >= 1
        warm = engine.count(cycle_query(3), algorithm="clftj", parallel=2)
        for key in BUILD_COUNTERS:
            assert warm.metadata[key] == 0, (key, warm.metadata)


class TestOverlappingDeadlines:
    """Deadline state is strictly per-execution."""

    @pytest.mark.parametrize("algorithm", ["clftj", "lftj"])
    def test_overlapping_timed_queries_do_not_share_clocks(self, algorithm):
        """The regression from ISSUE.md: two overlapping ``timeout=``
        queries — an already-expired one and a generous one — must resolve
        independently (the short one raises, the long one completes with
        the correct answer)."""
        db = random_edge_database()
        engine = QueryEngine(db)
        query = cycle_query(3)
        expected = brute_force_count(query, db)
        engine.count(query, algorithm=algorithm)  # warm (build outside timing)
        barrier = threading.Barrier(2)
        outcomes = {}

        def short_client():
            barrier.wait(timeout=60)
            for _ in range(10):
                with pytest.raises(QueryTimeoutError):
                    engine.count(query, algorithm=algorithm, timeout=1e-9)
            outcomes["short"] = "timed out as requested"

        def long_client():
            barrier.wait(timeout=60)
            for _ in range(10):
                result = engine.count(query, algorithm=algorithm, timeout=60.0)
                assert result.count == expected
            outcomes["long"] = "completed"

        run_threads([short_client, long_client])
        assert outcomes == {
            "short": "timed out as requested",
            "long": "completed",
        }

    def test_expired_deadline_never_leaks_into_the_next_run(self):
        """After a timed-out execution, the same query without a timeout
        (and with a fresh generous one) must succeed: the executor request
        carries the deadline, and the engine overwrites ``executor.deadline``
        unconditionally."""
        db = random_edge_database()
        engine = QueryEngine(db)
        query = cycle_query(3)
        expected = brute_force_count(query, db)
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="clftj", timeout=1e-9)
        assert engine.count(query, algorithm="clftj").count == expected
        assert engine.count(query, algorithm="clftj", timeout=60.0).count == expected


class TestConcurrentClientsStress:
    """N threads x M queries over one Database, mixed algorithms and
    timeouts, one mutating writer — results must equal the serial oracle
    and the counters must stay coherent."""

    NUM_CLIENTS = 6
    ITERATIONS = 12

    def make_database(self):
        rng = random.Random(42)
        edges = {
            (rng.randint(1, 20), rng.randint(1, 20))
            for _ in range(70)
        }
        edges = {edge for edge in edges if edge[0] != edge[1]}
        writes = {
            (rng.randint(1, 12), rng.randint(1, 12))
            for _ in range(25)
        }
        writes = {row for row in writes if row[0] != row[1]}
        return Database(
            [
                Relation("E", ("src", "dst"), edges),
                Relation("W", ("a", "b"), writes),
            ],
            name="stress",
        )

    def test_stress_mixed_clients_with_mutating_writer(self):
        db = self.make_database()
        engine = QueryEngine(db)
        # The read workload: immutable relation E, so every concurrent
        # result must be byte-identical to the serial oracle.
        workload = [
            # (query, algorithm, extra params, algorithm honours timeout=)
            (cycle_query(3), "clftj", {}, True),
            (cycle_query(3), "lftj", {}, True),
            (path_query(3), "ytd", {}, False),
            (cycle_query(3), "clftj", {"parallel": 2}, True),
            (path_query(4), "clftj", {"compile": False}, True),
            (cycle_query(4), "lftj", {}, True),
        ]
        expected = {
            id(query): brute_force_count(query, db) for query, _, _, _ in workload
        }
        before = {key: getattr(db, key) for key in BUILD_COUNTERS}
        barrier = threading.Barrier(self.NUM_CLIENTS + 1)
        per_client_results = [[] for _ in range(self.NUM_CLIENTS)]
        writer_log = []

        def client(index):
            query, algorithm, params, timed = workload[index % len(workload)]

            def work():
                barrier.wait(timeout=60)
                for iteration in range(self.ITERATIONS):
                    if timed and iteration % 5 == 4:
                        # Mixed timeouts: an already-expired deadline must
                        # fail fast without disturbing anyone else.
                        with pytest.raises(QueryTimeoutError):
                            engine.count(
                                query, algorithm=algorithm, timeout=1e-9, **params
                            )
                        continue
                    timeout = 60.0 if (timed and iteration % 2) else None
                    result = engine.count(
                        query, algorithm=algorithm, timeout=timeout, **params
                    )
                    assert result.count == expected[id(query)]
                    per_client_results[index].append(result)

            return work

        def writer():
            # One mutating writer churning a relation the readers do not
            # touch: exercises the shared lock, index patching, compiled
            # eviction and version bumps underneath concurrent reads.
            rng = random.Random(7)
            barrier.wait(timeout=60)
            for _ in range(20):
                rows = [
                    (rng.randint(1, 12), rng.randint(13, 24)) for _ in range(3)
                ]
                db.insert("W", rows)
                writer_log.append(("insert", rows))
                db.delete("W", rows[:1])
                writer_log.append(("delete", rows[:1]))

        run_threads([client(i) for i in range(self.NUM_CLIENTS)] + [writer])
        assert len(writer_log) == 40

        # Every client's results are internally coherent...
        for results in per_client_results:
            assert results, "every client completed untimed runs"
            for result in results:
                for key in BUILD_COUNTERS:
                    assert result.metadata[key] >= 0
        # ... and the summed per-run build metadata reconciles exactly with
        # the global counters (timed-out runs never produced a result, and
        # their partial work — plus the writer's churn — happened under
        # scopes or outside them consistently, so nothing is double-counted).
        engine_runs = [r for results in per_client_results for r in results]
        for key in ("plan_builds", "compiled_builds"):
            total = sum(r.metadata[key] for r in engine_runs)
            assert getattr(db, key) - before[key] >= total, key

        # The writer's relation ends exactly at its serial final state.
        final = engine.count(parse_query("W(x, y)"), algorithm="lftj")
        replay = set(self.make_database().relation("W").tuples)
        for action, rows in writer_log:
            if action == "insert":
                replay |= set(rows)
            else:
                replay -= set(rows)
        assert final.count == len(replay)
        assert set(db.relation("W").tuples) == replay
