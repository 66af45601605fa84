"""Persistent fork-pool lifecycle, persistence and scheduling guarantees.

Seven suites:

* **Persistence** — the headline property of PR 7: fork workers survive
  across queries (two consecutive warm executions spawn **zero** new
  processes, counter-asserted), re-fork exactly once after the parent
  mutates data, and the database memoises one pool per size.
* **Lifecycle** — idempotent ``close()``, safe atexit sweep, closed pools
  refusing jobs, the database replacing closed pools and closing everything
  on context-manager exit, and a close racing an in-flight job draining
  the job first.
* **Scheduling** — deterministic merge by planner index, a query under the
  work floor getting one morsel per worker with nothing stolen,
  worker-side deadline expiries surfacing as the typed timeout, and dead
  workers surfacing as a bounded-time error instead of a hang.
* **Job tracker** — the parent's bookkeeping: one outcome per planner
  index, late duplicates of a re-fed morsel dropped, per-index retries.
* **Handshake** — the pool's event-driven job end: a warm job costs about
  a millisecond, idle workers see a cancellation or a close at once, a
  worker killed while it waits is replaced, and leftovers of an earlier
  job are never mistaken for the next one's.
* **Inheritance** — a worker holds nothing of its parent it must not: it
  exits when its parent is SIGKILLed and holds none of its network
  sockets.
* **Sizing** — ``available_workers`` and the default pool size.
"""

import multiprocessing
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait
from pathlib import Path

import pytest

import repro.engine.pool as pool_module
from repro.core.instrumentation import OperationCounter
from repro.engine import QueryEngine
from repro.engine.faults import Deadline, PoolClosedError, QueryTimeoutError
from repro.engine.pool import (
    HEARTBEAT_SECONDS,
    MAX_MORSEL_RETRIES,
    MorselJob,
    MorselResult,
    MorselTask,
    TaskOutcome,
    _JobTracker,
    available_workers,
    create_worker_pool,
    worker_job_state,
)
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import process_running, random_edge_database

def _edge_database(name="pool", nodes=18, edges=55, seed=23):
    base = random_edge_database(num_nodes=nodes, num_edges=edges, seed=seed)
    return Database(list(base), name=name)


# Module-level runners: the pool pickles them by reference.
def _sleepy_runner(database, spec, task):
    time.sleep(spec)
    return TaskOutcome(value=1, rows=None, counter=OperationCounter())


def _suicide_runner(database, spec, task):
    os.kill(os.getpid(), signal.SIGKILL)


def _late_bulky_runner(database, spec, task):
    """Sleep ``spec`` seconds, then return far more rows than a pipe buffers."""
    time.sleep(spec)
    rows = [(index, index) for index in range(100_000)]
    return TaskOutcome(value=len(rows), rows=rows, counter=OperationCounter())


def _noop_runner(database, spec, task):
    return TaskOutcome(value=1, rows=None, counter=OperationCounter())


def _spin_until_expired_runner(database, spec, task):
    """``spec`` is the job's deadline: spin it out, then trip over it."""
    while not spec.expired():
        pass
    spec.check()


def _failing_runner(database, spec, task):
    raise ValueError("morsel exploded")


def _range_runner(database, spec, task):
    return TaskOutcome(value=task.lo, rows=None, counter=OperationCounter())


def _reverse_sleepy_range_runner(database, spec, task):
    """Later ranges finish first: ``spec`` is the job's task count."""
    time.sleep(0.02 * (spec - task.index))
    return TaskOutcome(value=task.lo, rows=None, counter=OperationCounter())


def _locking_runner(database, spec, task):
    """Take the database lock, as every executor a runner builds does."""
    with database._lock:
        return TaskOutcome(value=1, rows=None, counter=OperationCounter())


def _pid_logging_runner(database, spec, task):
    """Write the worker's pid to ``spec = (path, seconds)``, then sleep."""
    path, seconds = spec
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(seconds)
    return TaskOutcome(value=1, rows=None, counter=OperationCounter())


def _exit_when_told(conn):
    conn.send("waiting")
    conn.recv()


def _fork_and_exit_seconds() -> float:
    """From telling a waiting forked child to exit to seeing it gone.

    The child is forked from this process's heap, as a pool worker is; a
    child's exit tears its copy of the address space down, so the time
    grows with the heap (a few ms in isolation, up to ~20 ms late in a
    full test run) whatever the child was doing.
    """
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    child = context.Process(target=_exit_when_told, args=(child_end,), daemon=True)
    child.start()
    child_end.close()
    assert parent_end.recv() == "waiting"
    told = time.perf_counter()
    parent_end.send("exit")
    assert wait([child.sentinel], timeout=5), "the child never exited"
    seconds = time.perf_counter() - told
    child.join()
    parent_end.close()
    return seconds


def _busy_and_idle(pool, pid_file):
    """The (busy, idle) worker processes of a 2-worker pool running one
    ``_pid_logging_runner`` task."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            busy_pid = int(pid_file.read_text())
            break
        except (OSError, ValueError):
            time.sleep(0.005)
    else:
        raise AssertionError("the task never started")
    busy = next(p for p in pool.transport._processes if p.pid == busy_pid)
    idle = next(p for p in pool.transport._processes if p.pid != busy_pid)
    return busy, idle


def _tasks(count):
    return [MorselTask(index, None, None) for index in range(count)]


def _result(index, worker=0):
    return MorselResult(index=index, lo=None, hi=None, value=1, rows=None,
                        counter=OperationCounter(), elapsed=0.0, worker=worker)


# ---------------------------------------------------------------------------
# Persistence: workers survive across queries.
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_zero_spawns_on_consecutive_warm_queries(self):
        """The acceptance bar: two warm repeats, spawn counter flat."""
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count
        first = engine.count(query, algorithm="lftj", parallel=2)
        assert first.count == serial
        pool = database.worker_pool(2)
        spawned = pool.spawns
        assert spawned >= 2  # the first job spawned the workers
        second = engine.count(query, algorithm="lftj", parallel=2)
        third = engine.count(query, algorithm="lftj", parallel=2)
        assert second.count == third.count == serial
        assert pool.spawns == spawned  # zero new spawns across two warm queries
        assert pool.jobs_run == 3
        assert pool.worker_restarts == 0
        database.close_pools()

    def test_fork_pool_refreshes_once_after_data_change(self):
        """A delta update makes forked snapshots stale -> exactly one re-fork."""
        database = _edge_database(name="pool-stale")
        engine = QueryEngine(database)
        query = cycle_query(3)
        engine.count(query, algorithm="lftj", parallel=2)
        engine.count(query, algorithm="lftj", parallel=2)
        pool = database.worker_pool(2)
        restarts, spawned = pool.worker_restarts, pool.spawns
        database.insert("E", [(97, 96), (96, 95), (95, 97)])
        serial = engine.count(query, algorithm="lftj").count
        result = engine.count(query, algorithm="lftj", parallel=2)
        assert result.count == serial
        assert pool.worker_restarts == restarts + 1
        assert pool.spawns == spawned + 2
        # And warm again afterwards:
        engine.count(query, algorithm="lftj", parallel=2)
        assert pool.spawns == spawned + 2
        database.close_pools()

    def test_database_keys_pools_by_size(self):
        database = _edge_database(name="pool-keys")
        a = database.worker_pool(2)
        b = database.worker_pool(2)
        c = database.worker_pool(3)
        assert a is b and a is not c
        assert database.close_pools() == 2


# ---------------------------------------------------------------------------
# Lifecycle.
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_is_idempotent_and_atexit_safe(self):
        database = _edge_database(name="pool-close")
        pool = database.worker_pool(2)
        pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(4)))
        pool.close()
        pool.close()  # idempotent
        pool_module._close_all_pools()  # the atexit sweep must not raise
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(1)))
        assert database.close_pools() == 0  # already closed: nothing new

    def test_database_replaces_closed_pools(self):
        database = _edge_database(name="pool-reopen")
        first = database.worker_pool(2)
        first.close()
        second = database.worker_pool(2)
        assert second is not first and not second.closed
        database.close_pools()

    def test_queries_recover_after_close(self):
        """close_pools() between queries is invisible to correctness."""
        database = _edge_database(name="pool-recover")
        engine = QueryEngine(database)
        query = cycle_query(3)
        first = engine.count(query, algorithm="lftj", parallel=2)
        database.close_pools()
        second = engine.count(query, algorithm="lftj", parallel=2)
        assert first.count == second.count
        database.close_pools()

    def test_database_context_manager_closes_pools(self):
        with _edge_database(name="pool-ctx") as database:
            engine = QueryEngine(database)
            engine.count(cycle_query(3), algorithm="lftj", parallel=2)
            pool = database.worker_pool(2)
            assert not pool.closed
        assert pool.closed

    def test_pool_context_manager(self):
        database = _edge_database(name="pool-with")
        with create_worker_pool(database, 2) as pool:
            report = pool.run(
                MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(3))
            )
            assert len(report.results) == 3
        assert pool.closed

    def test_close_mid_job_drains_the_job_first(self):
        """Exiting the context manager mid-query finishes the query."""
        database = _edge_database(name="pool-drain")
        pool = create_worker_pool(database, 2)
        job = MorselJob(spec=0.1, runner=_sleepy_runner, tasks=_tasks(4))
        reports = []
        runner = threading.Thread(target=lambda: reports.append(pool.run(job)))
        runner.start()
        time.sleep(0.05)  # the job is in flight now
        pool.close()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert pool.closed
        assert len(reports) == 1 and len(reports[0].results) == 4
        assert sum(result.value for result in reports[0].results) == 4

    def test_close_races_in_flight_failing_job(self):
        """close() racing a job whose workers keep dying must neither hang
        nor raise from close(); the run() call itself reports the failure
        (or drains clean) and the pool ends closed."""
        database = _edge_database(name="pool-close-race")
        pool = create_worker_pool(database, 2)
        outcomes = []

        def _run():
            try:
                report = pool.run(
                    MorselJob(spec=None, runner=_suicide_runner,
                              tasks=_tasks(2), max_retries=0)
                )
                outcomes.append(report)
            except RuntimeError as error:
                outcomes.append(error)

        runner = threading.Thread(target=_run)
        runner.start()
        time.sleep(0.05)  # the failing job is in flight now
        pool.close()  # must not raise, must not hang
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert pool.closed
        assert len(outcomes) == 1
        with pytest.raises(PoolClosedError, match="closed"):
            pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(1)))

    def test_close_races_many_submitting_threads(self):
        """Multi-threaded-caller close race: several threads submitting jobs
        while another thread closes the pool.  Every submitter must resolve
        — a complete report or a typed :class:`PoolClosedError` — and
        nothing may hang or crash, whichever thread wins each race."""
        database = _edge_database(name="pool-mt-close")
        pool = create_worker_pool(database, 2)
        outcomes = []
        outcomes_lock = threading.Lock()
        barrier = threading.Barrier(5)

        def submitter():
            barrier.wait(timeout=30)
            for _ in range(6):
                try:
                    report = pool.run(
                        MorselJob(spec=0.01, runner=_sleepy_runner, tasks=_tasks(2))
                    )
                    outcome = ("report", len(report.results))
                except PoolClosedError as error:
                    outcome = ("closed", str(error))
                with outcomes_lock:
                    outcomes.append(outcome)

        def closer():
            barrier.wait(timeout=30)
            time.sleep(0.05)  # let a few jobs through first
            pool.close(drain_timeout=10.0)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a close-race participant hung"
        assert pool.closed
        assert len(outcomes) == 24
        kinds = {kind for kind, _ in outcomes}
        assert kinds <= {"report", "closed"}
        for kind, detail in outcomes:
            if kind == "report":
                assert detail == 2  # completed jobs are never truncated
        # At least one job completed before the close won.
        assert ("report", 2) in outcomes

    def test_abandoned_in_flight_job_raises_pool_closed(self):
        """A job that outlives ``drain_timeout`` is abandoned with the typed
        error (not a hang, not a bare RuntimeError)."""
        database = _edge_database(name="pool-abandon")
        pool = create_worker_pool(database, 2)
        failures = []

        def _run():
            try:
                pool.run(
                    MorselJob(spec=1.0, runner=_sleepy_runner, tasks=_tasks(4))
                )
            except PoolClosedError as error:
                failures.append(error)

        runner = threading.Thread(target=_run)
        runner.start()
        time.sleep(0.05)  # the slow job is in flight now
        pool.close(drain_timeout=0.05)  # give up draining almost immediately
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert pool.closed
        assert len(failures) == 1
        assert "in flight" in str(failures[0])

    def test_close_pools_races_parallel_queries_from_other_threads(self):
        """``Database.close_pools()`` racing engine-level parallel queries
        from other threads: every query either completes correctly or
        raises :class:`PoolClosedError`, and the database stays usable
        (the next parallel query builds a fresh pool)."""
        database = _edge_database(name="pool-db-close-race")
        engine = QueryEngine(database)
        query = cycle_query(3)
        expected = engine.count(query, algorithm="lftj").count
        barrier = threading.Barrier(4)
        outcomes = []
        outcomes_lock = threading.Lock()

        def client():
            barrier.wait(timeout=30)
            for _ in range(8):
                try:
                    result = engine.count(query, algorithm="lftj", parallel=2)
                    assert result.count == expected
                    outcome = "ok"
                except PoolClosedError:
                    outcome = "closed"
                with outcomes_lock:
                    outcomes.append(outcome)

        def closer():
            barrier.wait(timeout=30)
            for _ in range(5):
                time.sleep(0.01)
                database.close_pools(drain_timeout=10.0)

        threads = [threading.Thread(target=client) for _ in range(3)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a database close-race thread hung"
        assert len(outcomes) == 24
        assert set(outcomes) <= {"ok", "closed"}
        assert "ok" in outcomes
        # The database survives: a fresh pool serves the next query.
        after = engine.count(query, algorithm="lftj", parallel=2)
        assert after.count == expected
        database.close_pools()

    def test_create_worker_pool_validates_size(self):
        database = _edge_database(name="pool-bad")
        with pytest.raises(ValueError, match="size must be >= 1"):
            create_worker_pool(database, 0)

    def test_empty_job_completes_without_workers(self):
        database = _edge_database(name="pool-empty")
        pool = create_worker_pool(database, 2)
        report = pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=[]))
        assert report.results == [] and pool.spawns == 0
        pool.close()


# ---------------------------------------------------------------------------
# Scheduling: determinism under stealing, failure detection.
# ---------------------------------------------------------------------------


class TestScheduling:
    def test_steals_are_deterministic_for_results(self):
        """Whatever the stealing schedule, repeated runs merge identically."""
        database = _edge_database(name="pool-steal", nodes=40, edges=220, seed=3)
        engine = QueryEngine(database)
        query = cycle_query(3)
        streams = [
            engine.evaluate(query, algorithm="lftj", parallel=4).rows
            for _ in range(3)
        ]
        assert streams[0] == streams[1] == streams[2]
        database.close_pools()

    def test_results_merge_by_planner_index(self):
        """Completion order is the reverse of range order; the report is
        still in planner-index order, one result per task."""
        database = _edge_database(name="pool-merge")
        tasks = [MorselTask(index, index * 10, index * 10 + 10) for index in range(6)]
        with create_worker_pool(database, 2) as pool:
            report = pool.run(MorselJob(spec=len(tasks),
                                        runner=_reverse_sleepy_range_runner,
                                        tasks=tasks))
        assert [result.index for result in report.results] == list(range(6))
        assert [(r.lo, r.hi, r.value) for r in report.results] == [
            (task.lo, task.hi, task.lo) for task in tasks
        ]

    def test_query_under_the_work_floor_gets_one_morsel_per_worker(self):
        """Too little work to repay a third morsel: the plan is one range
        per worker, one task each, rows equal serial, and each worker owns
        its range."""
        database = _edge_database(name="pool-floor", nodes=300, edges=900, seed=5)
        engine = QueryEngine(database)
        query = path_query(3)
        # Interpreted, so that each morsel outlasts the other worker's wake-up.
        serial = engine.evaluate(query, algorithm="lftj", compile=False)
        assert engine.selector.recommend_morsels(query, query.variables, workers=2) == 2
        result = engine.evaluate(query, algorithm="lftj", compile=False, parallel=2)
        assert result.rows == serial.rows
        assert result.metadata["morsels"] == result.metadata["workers"] == 2
        assert result.metadata["tasks_executed"] == 2
        assert result.metadata["steals"] == 0
        database.close_pools()

    def test_worker_side_deadline_expiry_is_a_timeout(self):
        """The runner notices the expired deadline itself; the parent may or
        may not have noticed first.  Either way the typed timeout surfaces
        and the pool stays usable."""
        database = _edge_database(name="pool-worker-timeout")
        with create_worker_pool(database, 2) as pool:
            for _ in range(5):
                deadline = Deadline.start(0.02)
                with pytest.raises(QueryTimeoutError):
                    pool.run(
                        MorselJob(spec=deadline, runner=_spin_until_expired_runner,
                                  tasks=_tasks(4), deadline=deadline)
                    )
            report = pool.run(MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(4)))
            assert len(report.results) == 4

    def test_fork_while_another_thread_holds_the_database_lock(self):
        """``repro serve`` forks from one handler thread while another may
        hold the database lock.  That thread does not exist in the child,
        so a worker that kept the inherited lock would wait forever; it
        gets a fresh one and the job completes."""
        database = _edge_database(name="pool-held-lock")
        holding, release = threading.Event(), threading.Event()

        def holder():
            with database._lock:
                holding.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert holding.wait(timeout=10)
        try:
            with create_worker_pool(database, 2) as pool:  # forks now
                report = pool.run(MorselJob(spec=None, runner=_locking_runner,
                                            tasks=_tasks(4), deadline=Deadline.start(10)))
        finally:
            release.set()
            thread.join(timeout=10)
        assert sum(result.value for result in report.results) == 4

    def test_dead_fork_worker_is_detected_not_hung(self):
        """With the retry budget pinned to zero a worker killed mid-job
        surfaces as RuntimeError within the heartbeat deadline; the pool
        re-forks for the next job.  (Recovery under the default budget is
        covered in tests/test_faults.py.)"""
        database = _edge_database(name="pool-dead")
        pool = create_worker_pool(database, 2)
        with pytest.raises(RuntimeError, match="died mid-job"):
            pool.run(MorselJob(spec=None, runner=_suicide_runner, tasks=_tasks(2),
                               max_retries=0))
        # The pool recovers: the next job re-forks a fresh worker set.
        report = pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(4)))
        assert sum(result.value for result in report.results) == 4
        pool.close()

    def test_worker_errors_propagate_with_morsel_attribution(self):
        database = _edge_database(name="pool-errors")
        pool = create_worker_pool(database, 2)
        with pytest.raises(RuntimeError, match="morsel 0: ValueError: morsel exploded"):
            pool.run(MorselJob(spec=None, runner=_failing_runner, tasks=_tasks(2),
                               max_retries=0))
        # The pool survives a failed job.
        report = pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(2)))
        assert len(report.results) == 2
        pool.close()


class TestJobTracker:
    """The parent's per-job bookkeeping: one outcome per planner index."""

    def _tracker(self, count, max_retries=None):
        job = MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(count),
                        max_retries=max_retries)
        return _JobTracker(job, job.tasks)

    def test_out_of_order_results_complete_the_job(self):
        tracker = self._tracker(3)
        for index in (2, 0):
            tracker.absorb(("result", _result(index)))
            assert not tracker.done
        tracker.absorb(("result", _result(1)))
        assert tracker.done and tracker.lost() == []
        assert sorted(result.index for result in tracker.results) == [0, 1, 2]

    def test_late_duplicate_of_a_refed_morsel_is_dropped(self):
        tracker = self._tracker(2)
        tracker.absorb(("result", _result(0, worker=0)))
        tracker.absorb(("result", _result(0, worker=1)))  # the re-fed copy
        tracker.absorb(("error", 0, "ValueError: late"))
        assert [result.worker for result in tracker.results] == [0]
        assert tracker.errors == [] and tracker.lost() == [1]

    def test_an_error_accounts_for_its_index(self):
        tracker = self._tracker(2)
        tracker.absorb(("error", 1, "ValueError: boom"))
        tracker.absorb(("result", _result(0)))
        assert tracker.done
        assert tracker.errors == [(1, "ValueError: boom")]
        assert [result.index for result in tracker.results] == [0]

    def test_retry_budget_is_per_index_and_job_overridable(self):
        tracker = self._tracker(2)
        assert tracker.max_retries == MAX_MORSEL_RETRIES
        tracker.retries[0] = MAX_MORSEL_RETRIES
        assert not tracker.can_retry(0) and tracker.can_retry(1)
        assert not self._tracker(2, max_retries=0).can_retry(1)
        tracker.absorb(("result", _result(1)))
        assert not tracker.can_retry(1)  # finished: nothing to re-feed

    def test_lost_lists_unaccounted_indexes_in_order(self):
        tracker = self._tracker(5)
        tracker.absorb(("result", _result(3)))
        tracker.absorb(("error", 0, "ValueError: boom"))
        assert tracker.lost() == [1, 2, 4]

    def test_job_state_outside_a_worker_is_fresh_each_call(self):
        first = worker_job_state()
        first["executor"] = object()
        assert worker_job_state() == {}


# ---------------------------------------------------------------------------
# Handshake: the pool's event-driven job end.
# ---------------------------------------------------------------------------


class TestForkHandshake:
    def test_warm_job_pays_no_stall(self):
        """Eight no-op morsels on two warm workers: about a millisecond.
        (A worker that polls its control pipe every 50 ms makes this >= 50.)"""
        database = _edge_database(name="pool-handshake")
        with create_worker_pool(database, 2) as pool:
            job = MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(8))
            pool.run(job)  # forks the workers
            walls = []
            for _ in range(5):
                report = pool.run(job)
                assert len(report.results) == 8
                walls.append(report.wall_seconds)
            assert statistics.median(walls) < 0.025
            assert 0.0 <= report.dispatch_seconds <= report.wall_seconds
            assert pool.worker_restarts == 0

    def test_cancellation_returns_when_the_last_worker_is_done(self):
        """One worker sleeps through the deadline, the other is idle: the
        timeout surfaces within 10 ms of the sleeper finishing (best of
        three; a 50 ms poll would put every attempt past that)."""
        database = _edge_database(name="pool-cancel")
        with create_worker_pool(database, 2) as pool:
            pool.run(MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(2)))
            overshoots = []
            for _ in range(3):
                started = time.perf_counter()
                with pytest.raises(QueryTimeoutError):
                    pool.run(
                        MorselJob(spec=0.05, runner=_sleepy_runner, tasks=_tasks(1),
                                  deadline=Deadline.start(0.01))
                    )
                overshoots.append(time.perf_counter() - started - 0.05)
            assert min(overshoots) < 0.010
            # Reusable at once, with the same workers.
            report = pool.run(
                MorselJob(spec=0.0, runner=_sleepy_runner, tasks=_tasks(4))
            )
            assert len(report.results) == 4
            assert pool.worker_restarts == 0

    def test_idle_worker_sees_close_mid_job(self, tmp_path):
        """A worker with nothing to do exits within 10 ms of ``close()``
        abandoning the job its sibling is still busy with, beyond what a bare
        forked child of the same heap takes to exit when told (best of three
        each).  A worker that ignored ``close`` would be terminated after
        ``stop()``'s one-second join."""
        latencies, baselines = [], []
        for attempt in range(3):
            baselines.append(_fork_and_exit_seconds())
            database = _edge_database(name=f"pool-close-idle-{attempt}")
            pool = create_worker_pool(database, 2)
            pid_file = tmp_path / f"busy-{attempt}.pid"
            job = MorselJob(spec=(str(pid_file), 0.3), runner=_pid_logging_runner,
                            tasks=_tasks(1))
            outcomes = []

            def _run():
                try:
                    outcomes.append(pool.run(job))
                except RuntimeError as error:
                    outcomes.append(error)

            runner = threading.Thread(target=_run)
            runner.start()
            _busy, idle = _busy_and_idle(pool, pid_file)
            exited = []
            watcher = threading.Thread(
                target=lambda: exited.append(
                    (bool(wait([idle.sentinel], timeout=5)), time.perf_counter())
                )
            )
            watcher.start()
            closing = time.perf_counter()
            pool.close(drain_timeout=0.0)
            watcher.join(timeout=10)
            runner.join(timeout=10)
            assert not runner.is_alive() and not watcher.is_alive()
            assert exited[0][0], "the idle worker never exited"
            assert len(outcomes) == 1 and isinstance(outcomes[0], RuntimeError)
            latencies.append(exited[0][1] - closing)
        assert min(latencies) < min(baselines) + 0.010, (latencies, baselines)

    def test_worker_killed_while_waiting_is_replaced(self, monkeypatch, tmp_path):
        """SIGKILL the worker that is blocked waiting for a task: it holds
        no lock there, so the job finishes, the worker is replaced, the
        unfinished morsel is re-fed, and the next job runs normally."""
        monkeypatch.setattr(pool_module, "HEARTBEAT_SECONDS", 0.05)
        database = _edge_database(name="pool-kill-idle")
        with create_worker_pool(database, 2) as pool:
            pool.run(MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(2)))
            pid_file = tmp_path / "busy.pid"
            reports = []
            runner = threading.Thread(
                target=lambda: reports.append(
                    pool.run(
                        MorselJob(spec=(str(pid_file), 0.5),
                                  runner=_pid_logging_runner, tasks=_tasks(1))
                    )
                )
            )
            runner.start()
            _busy, idle = _busy_and_idle(pool, pid_file)
            os.kill(idle.pid, signal.SIGKILL)
            runner.join(timeout=30)
            assert not runner.is_alive()
            assert [result.value for result in reports[0].results] == [1]
            assert reports[0].worker_restarts == 1
            assert reports[0].morsel_retries == 1
            after = pool.run(
                MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(6))
            )
            assert len(after.results) == 6

    def test_leftovers_of_an_earlier_job_are_ignored(self):
        """A task or result still in a queue when its job ended carries that
        job's number and must not leak into the next one."""
        database = _edge_database(name="pool-leftovers")
        with create_worker_pool(database, 2) as pool:
            pool.run(MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(2)))
            stale = pool._job_seq
            pool.transport._task_queue.put((stale, MorselTask(0, 100, 200)))
            pool.transport._result_queue.put((stale, ("error", 0, "ValueError: stale")))
            report = pool.run(
                MorselJob(spec=None, runner=_range_runner,
                          tasks=[MorselTask(0, 7, 9), MorselTask(1, 9, 11)])
            )
            assert [(r.lo, r.value) for r in report.results] == [(7, 7), (9, 9)]


# ---------------------------------------------------------------------------
# Inheritance.
# ---------------------------------------------------------------------------

#: A process that owns a two-worker pool, runs one job, prints the worker
#: pids and waits to be killed; with ``late``, it prints them and then
#: runs a job whose bulky results are ready only after the kill.
_POOL_OWNER = """
import sys, time
from repro.engine.pool import MorselJob, create_worker_pool
from tests.test_pool import _edge_database, _late_bulky_runner, _noop_runner, _tasks
pool = create_worker_pool(_edge_database(), 2)
late = sys.argv[1] == "late"
if not late:
    pool.run(MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(4)))
pool.transport.ensure_workers()
print(*(process.pid for process in pool.transport._processes), flush=True)
if late:
    pool.run(MorselJob(spec=1.0, runner=_late_bulky_runner, tasks=_tasks(2)))
time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestInheritance:
    @pytest.mark.parametrize(
        "mode, grace",
        [("idle", 0.0), ("late", 1.0)],
        ids=["idle-workers", "results-after-the-kill"],
    )
    def test_workers_exit_when_the_parent_is_killed(self, mode, grace):
        """Idle workers exit within two heartbeats of the kill; workers
        still running a task exit once it is done, although nobody will
        read the results they queue."""
        root = Path(__file__).resolve().parents[1]
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, mode],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}"),
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            workers = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(workers) == 2 and all(map(process_running, workers))
            if mode == "late":
                time.sleep(0.2)  # both workers are inside the task
            owner.kill()
            owner.wait(timeout=10)
            deadline = time.monotonic() + grace + 2 * HEARTBEAT_SECONDS
            while any(map(process_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not any(map(process_running, workers))
        finally:
            for pid in workers:  # pragma: no cover - cleanup on failure
                if process_running(pid):
                    os.kill(pid, signal.SIGKILL)
            if owner.poll() is None:  # pragma: no cover - cleanup on failure
                owner.kill()
                owner.wait(timeout=10)
            owner.stdout.close()

    def test_workers_hold_no_inet_socket(self):
        """Forked beside a listening socket and a live connection, a worker
        holds neither, and still runs jobs over its own pipes."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with socket.create_connection(listener.getsockname()) as client:
                accepted, _ = listener.accept()
                with accepted:
                    inodes = {
                        f"socket:[{os.fstat(sock.fileno()).st_ino}]"
                        for sock in (listener, client, accepted)
                    }
                    database = _edge_database(name="pool-sockets")
                    with create_worker_pool(database, 2) as pool:
                        job = MorselJob(spec=None, runner=_noop_runner, tasks=_tasks(4))
                        pool.run(job)
                        for process in pool.transport._processes:
                            fd_dir = f"/proc/{process.pid}/fd"
                            held = {os.readlink(f"{fd_dir}/{fd}") for fd in os.listdir(fd_dir)}
                            assert not held & inodes
                            assert any(link.startswith("socket:") for link in held)
                        assert len(pool.run(job).results) == 4
                        assert pool.worker_restarts == 0


# ---------------------------------------------------------------------------
# Sizing.
# ---------------------------------------------------------------------------


class TestWorkerSizing:
    def test_available_workers_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4})
        assert available_workers() == 5

    def test_available_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_workers() == 3

    def test_database_default_pool_size_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        database = Database(
            [Relation("E", ("s", "t"), [(1, 2), (2, 3), (3, 1)])], name="sizing"
        )
        pool = database.worker_pool()
        assert pool.size == 3
        database.close_pools()
