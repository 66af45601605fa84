"""Chaos suite: fault injection, worker recovery, deadlines, memory budgets.

Four suites over the fault-tolerance machinery of :mod:`repro.engine.faults`:

* **Recovery** — a SIGKILLed fork worker mid-job no longer fails the query:
  the pool re-forks, re-enqueues the unacked morsels and the merged row
  stream stays byte-identical to the serial oracle, with the restarts and
  retries surfaced in the result metadata.  A poison-pill morsel (kills its
  worker on every retry) exhausts the bounded budget and surfaces as a typed
  :class:`WorkerFailureError` — after which the pool is immediately
  reusable.
* **Deadlines** — ``timeout=`` raises :class:`QueryTimeoutError` on the
  interpreted, compiled and pool paths; the pool stays
  reusable right after a timeout; validation errors are ``ValueError``.
* **Degradation** — an over-budget database degrades in the documented
  order (adhesion caching off -> caches evicted -> serial) instead of
  crashing, recorded in ``metadata["degradations"]`` and ``explain()``.
* **Harness** — the :func:`inject_faults` context manager itself: trigger
  windows, hit/fire counters, unknown actions, disarming on exit.

Every test is deterministic: faults trigger on counted occurrences, never
wall-clock races.
"""

import time

import pytest

from repro.core.instrumentation import OperationCounter
from repro.engine import QueryEngine
from repro.engine.faults import (
    Deadline,
    FaultInjectedError,
    FaultSpec,
    QueryTimeoutError,
    WorkerFailureError,
    fault_point,
    inject_faults,
)
from repro.engine.pool import MorselJob, MorselTask, TaskOutcome, create_worker_pool
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import random_edge_database


def _edge_database(name="faults", nodes=40, edges=260, seed=7):
    base = random_edge_database(num_nodes=nodes, num_edges=edges, seed=seed)
    return Database(list(base), name=name)


# Module-level runners: the pool pickles them by reference.
def _ok_runner(database, spec, task):
    return TaskOutcome(value=1, rows=None, counter=OperationCounter())


def _tasks(count):
    return [MorselTask(index, None, None) for index in range(count)]


# ---------------------------------------------------------------------------
# Recovery: killed fork workers are re-forked, morsels retried, rows exact.
# ---------------------------------------------------------------------------


class TestWorkerRecovery:
    def test_killed_fork_worker_is_invisible_to_results(self):
        """The acceptance bar: SIGKILL a worker mid-job, get the exact
        serial row stream back plus restart/retry counters."""
        database = _edge_database(name="faults-kill")
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.evaluate(query, algorithm="clftj")
        # Arm before the pool forks so the workers inherit the registry.
        # The query is under the work floor: two morsels, the second killed.
        with inject_faults(
            {"pool.before_morsel": {"action": "kill", "after": 1, "times": 1}}
        ) as armed:
            result = engine.evaluate(query, algorithm="clftj", parallel=2)
        assert armed["pool.before_morsel"].fired == 1
        assert result.rows == serial.rows  # byte-identical merge
        assert result.count == serial.count
        assert result.metadata["worker_restarts"] >= 1
        assert result.metadata["morsel_retries"] >= 1
        # The pool is warm and healthy for the next query.
        again = engine.evaluate(query, algorithm="clftj", parallel=2)
        assert again.rows == serial.rows
        assert again.metadata["worker_restarts"] == 0
        database.close_pools()

    def test_poison_pill_exhausts_budget_with_typed_error(self):
        """A morsel that kills every worker it lands on must stop after the
        bounded retry budget, not re-fork forever."""
        database = _edge_database(name="faults-poison", nodes=12, edges=30)
        pool = create_worker_pool(database, 2)
        with inject_faults(
            {"pool.before_morsel": {"action": "kill", "times": 1_000_000}}
        ):
            with pytest.raises(WorkerFailureError) as info:
                pool.run(
                    MorselJob(spec=None, runner=_ok_runner, tasks=_tasks(2),
                              max_retries=1)
                )
        assert "died mid-job" in str(info.value)
        assert info.value.diagnostics  # per-worker post-mortem attached
        # The pool recovers for the next (fault-free) job.
        report = pool.run(MorselJob(spec=None, runner=_ok_runner, tasks=_tasks(3)))
        assert sum(result.value for result in report.results) == 3
        pool.close()

    def test_injected_exceptions_are_retried(self):
        """Injected morsel exceptions are retried within the same budget as
        worker deaths and counted in the metadata."""
        database = _edge_database(name="faults-retry")
        engine = QueryEngine(database)
        query = path_query(3)
        serial = engine.evaluate(query, algorithm="lftj")
        with inject_faults(
            {"pool.before_morsel": {"action": "raise", "after": 1, "times": 2}}
        ) as armed:
            result = engine.evaluate(query, algorithm="lftj", parallel=2)
        assert armed["pool.before_morsel"].fired == 2
        assert result.rows == serial.rows
        assert result.metadata["morsel_retries"] >= 2
        database.close_pools()

    def test_worker_start_fault_is_survivable(self):
        """A fault at pool.worker_start (one worker dies while spawning)
        still completes the job through the surviving + re-forked workers."""
        database = _edge_database(name="faults-start", nodes=20, edges=80)
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count
        with inject_faults(
            {"pool.worker_start": {"action": "kill", "times": 1}}
        ):
            result = engine.count(query, algorithm="lftj", parallel=2)
        assert result.count == serial
        database.close_pools()


# ---------------------------------------------------------------------------
# Deadlines and cancellation.
# ---------------------------------------------------------------------------


class TestDeadlines:
    @pytest.fixture()
    def database(self):
        database = _edge_database(name="faults-deadline")
        yield database
        database.close_pools()

    def test_interpreted_timeout_raises_typed_error(self, database):
        engine = QueryEngine(database)
        with pytest.raises(QueryTimeoutError) as info:
            engine.count(cycle_query(3), algorithm="lftj", compile=False,
                         timeout=1e-9)
        assert info.value.timeout == 1e-9

    def test_compiled_timeout_raises_typed_error(self, database):
        engine = QueryEngine(database)
        with pytest.raises(QueryTimeoutError):
            engine.count(cycle_query(3), algorithm="clftj", timeout=1e-9)

    def test_pool_timeout_leaves_pool_reusable(self, database):
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="lftj", parallel=2, timeout=1e-9)
        # The pool was cancelled, not poisoned: immediately reusable.
        result = engine.count(query, algorithm="lftj", parallel=2)
        assert result.count == serial

    def test_mid_query_timeouts_are_typed(self):
        """Timeouts from a few ms up to about the query's run time, so that
        some expire in the parent's wait and some inside a worker's morsel:
        every run that does not complete raises ``QueryTimeoutError`` (a
        worker-side expiry must not surface as ``WorkerFailureError``), and
        the pool serves the next query."""
        base = random_edge_database(num_nodes=350, num_edges=1250, seed=1)
        with Database(list(base), name="faults-typed") as database:
            engine = QueryEngine(database)
            query = cycle_query(5)
            options = {"algorithm": "lftj", "parallel": 2}
            started = time.perf_counter()
            expected = engine.count(query, **options).count
            run_time = time.perf_counter() - started
            timed_out = 0
            for step in range(40):
                timeout = 0.005 + step * (run_time - 0.005) / 40
                try:
                    assert engine.count(query, timeout=timeout, **options).count == expected
                except QueryTimeoutError as error:
                    assert error.timeout == timeout
                    timed_out += 1
            assert timed_out > 0
            assert engine.count(query, **options).count == expected

    def test_generous_timeout_completes_and_is_recorded(self, database):
        engine = QueryEngine(database)
        result = engine.count(cycle_query(3), algorithm="clftj", timeout=60.0)
        assert result.metadata["timeout"] == 60.0

    @pytest.mark.parametrize("bad", (0, -1, "soon"))
    def test_invalid_timeouts_are_value_errors(self, database, bad):
        engine = QueryEngine(database)
        with pytest.raises(ValueError, match="timeout"):
            engine.count(cycle_query(3), algorithm="lftj", timeout=bad)

    def test_non_deadline_algorithms_reject_timeout(self, database):
        engine = QueryEngine(database)
        with pytest.raises(ValueError, match="timeout"):
            engine.count(cycle_query(3), algorithm="ytd", timeout=5.0)

    def test_deadline_object_semantics(self):
        deadline = Deadline.start(60.0)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        deadline.check()  # not expired: no raise
        expired = Deadline(timeout=1e-9, at=time.monotonic() - 1.0)
        assert expired.expired() and expired.remaining() == 0.0
        with pytest.raises(QueryTimeoutError):
            expired.check()


# ---------------------------------------------------------------------------
# Memory-budget degradation.
# ---------------------------------------------------------------------------


class TestMemoryBudget:
    def _database(self, budget):
        base = random_edge_database(num_nodes=30, num_edges=140, seed=9)
        return Database(list(base), name="faults-budget",
                        memory_budget_bytes=budget)

    def test_over_budget_degrades_in_documented_order_not_crash(self):
        database = self._database(budget=1)
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial_count = None
        result = engine.count(query, algorithm="clftj", parallel=2)
        serial_count = QueryEngine(self._database(budget=None)).count(
            query, algorithm="clftj"
        ).count
        assert result.count == serial_count  # degraded, still correct
        degradations = result.metadata["degradations"]
        assert len(degradations) == 3
        assert "adhesion caching disabled" in degradations[0]
        assert "evicted compiled drivers" in degradations[1]
        assert "restricted to one worker" in degradations[2]
        database.close_pools()

    def test_within_budget_runs_undegraded(self):
        database = self._database(budget=1 << 30)
        result = QueryEngine(database).count(cycle_query(3), algorithm="clftj")
        assert "degradations" not in result.metadata
        database.close_pools()

    def test_explain_reports_budget_and_footprint(self):
        database = self._database(budget=1)
        text = QueryEngine(database).explain(cycle_query(3), algorithm="clftj")
        line = next(l for l in text.splitlines() if l.startswith("memory budget"))
        assert "over budget" in line and "degrade in order" in line

    def test_footprint_grows_with_cached_state(self):
        database = self._database(budget=None)
        before = database.memory_footprint()
        QueryEngine(database).count(cycle_query(3), algorithm="clftj")
        assert database.memory_footprint() > before  # indexes + driver cached
        database.close_pools()

    @pytest.mark.parametrize("bad", (0, -5))
    def test_constructor_rejects_non_positive_budget(self, bad):
        with pytest.raises(ValueError, match="memory budget"):
            Database(
                [Relation("E", ("s", "t"), [(1, 2)])],
                memory_budget_bytes=bad,
            )


# ---------------------------------------------------------------------------
# The injection harness itself.
# ---------------------------------------------------------------------------


class TestInjectionHarness:
    def test_unarmed_fault_points_are_noops(self):
        fault_point("pool.before_morsel")  # must not raise

    def test_trigger_window_counts_occurrences(self):
        with inject_faults(
            {"pool.heartbeat": {"action": "raise", "after": 2, "times": 1}}
        ) as armed:
            fault_point("pool.heartbeat")
            fault_point("pool.heartbeat")
            with pytest.raises(FaultInjectedError):
                fault_point("pool.heartbeat")
            fault_point("pool.heartbeat")  # window exhausted
            assert armed["pool.heartbeat"].hits == 4
            assert armed["pool.heartbeat"].fired == 1
        fault_point("pool.heartbeat")  # disarmed on exit

    def test_delay_action_sleeps(self):
        with inject_faults(
            {"pool.heartbeat": {"action": "delay", "delay": 0.02}}
        ):
            start = time.monotonic()
            fault_point("pool.heartbeat")
            assert time.monotonic() - start >= 0.02

    def test_kill_action_never_fires_in_arming_process(self):
        with inject_faults({"pool.heartbeat": "kill"}) as armed:
            fault_point("pool.heartbeat")  # would SIGKILL a fork worker
            assert armed["pool.heartbeat"].fired == 1  # counted, not fatal

    def test_bare_string_and_spec_forms(self):
        with inject_faults({"compiler.exec": FaultSpec(action="raise")}):
            with pytest.raises(FaultInjectedError):
                fault_point("compiler.exec")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(action="explode")

    def test_compiler_exec_fault_falls_back_to_interpreted(self):
        """A fault while compiling must not fail the query: the executor
        records the failure and runs the interpreted loop instead."""
        database = _edge_database(name="faults-compile", nodes=20, edges=80)
        engine = QueryEngine(database)
        query = cycle_query(3)
        oracle = engine.count(query, algorithm="lftj", compile=False).count
        database.clear_compiled_cache()
        with inject_faults({"compiler.exec": {"action": "raise", "times": 8}}):
            result = engine.count(query, algorithm="lftj")
        assert result.count == oracle
        assert result.metadata["compiled"] is False
        assert result.metadata["compiled_reason"].startswith("compile failed")
        database.close_pools()
