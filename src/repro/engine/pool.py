"""The persistent morsel-driven worker pool: one scheduler over forked workers.

A :class:`WorkerPool` is owned by the
:class:`~repro.storage.database.Database`, survives across queries, and runs
*morsels* — many fine-grained sub-ranges of the top join variable — off one
shared task queue, so a lopsided key space keeps every worker busy anyway
(morsel-driven parallelism in the sense of Leis et al.).  Every planned
range is exactly one task; a morsel's identity is its planner index.

**The scheduler** is this module's policy and exists once.  Parent side,
:meth:`WorkerPool._run_job` arms the workers, feeds the tasks, and collects
``("result" | "error", ...)`` messages into a :class:`_JobTracker` until
every planner range has a result; it owns the per-morsel retry budget,
deadline cancellation, error aggregation, the end-of-job handshake and the
:class:`JobReport`.  Worker side, :func:`_worker_main` / :func:`_serve_job`
take a task, run it under :func:`worker_job_state`, and post the outcome.

**The transport** (:class:`_ForkTransport`) only moves messages and keeps
workers alive.  Workers are forked **once** and re-armed over a control
pipe per job, amortizing fork + copy-on-write page-table setup across
queries.  A worker blocks on the task queue's reader and its control pipe
*together*, so the end-of-job handshake — ``("end",)`` down every pipe, one
``("ack", worker, busy seconds, summary)`` back — completes within a pipe
round-trip of the last result, and ``("close",)`` is seen just as promptly.
Forked workers snapshot the database at fork time, so the transport records
a staleness key (data version, index/compiled builds, dictionary size) and
re-forks when the parent built new state — warm repeated queries re-use the
same workers with **zero** new spawns (the ``spawns`` counter is the proof,
asserted in tests).  Each worker is pinned to one CPU.  Platforms without
the ``fork`` start method have no pool: the schedule resolver runs such
executions serial and says why.

Tasks and results carry the job's sequence number, so a leftover of a
cancelled or recovered job can never be mistaken for the next job's.
Results are sorted by planner index, so the merged row stream is
byte-identical to the serial one under any schedule.

**Locking model** (mirrors the conventions documented in
:mod:`repro.engine.parallel` and :class:`~repro.storage.database.Database`):

* ``run()`` serialises on a submit lock — one job at a time per pool;
  concurrent engine calls over one database queue up rather than interleave
  (a job's runner must never submit to the same pool: that would deadlock);
* lifecycle (``close()``) takes a separate lock, is idempotent, and briefly
  acquires the submit lock so an in-flight job drains before teardown —
  exiting a pool's context manager mid-query therefore finishes the query;
* a fork may happen from any thread (``repro serve`` forks from its
  request-handler threads), so forked children replace every inherited
  lock they can reach — see :func:`reinitialise_child_locks` — and drop
  every inherited descriptor they must not hold: the server's sockets and
  the parent ends of the workers' control pipes, so a worker sees EOF and
  exits the moment its parent dies, even by SIGKILL — see
  :func:`release_inherited_descriptors`;
* every pool registers in a module-level ``WeakSet`` closed by one
  ``atexit`` hook, so forgotten pools cannot leak forked children past
  interpreter shutdown, while garbage collection of a database (and its
  pools) stays possible.

**Fault tolerance**: the parent collects messages with a bounded-timeout
heartbeat — every ``HEARTBEAT_SECONDS`` without one it asks the transport
for dead workers, so a worker that dies between tasks is noticed within
``DEAD_WORKER_GRACE`` heartbeats instead of hanging the merge.  A detected
death does not fail the job: replacements are forked, armed with the
in-flight job, and every morsel not yet accounted for is re-enqueued —
retried results sort back into the deterministic merge by planner index,
and duplicates are dropped.  A morsel that repeatedly kills its worker (or
keeps raising) is a poison pill: per-morsel retries are bounded by
``MAX_MORSEL_RETRIES`` with exponential backoff, and only an exhausted
budget raises :class:`~repro.engine.faults.WorkerFailureError`.  Jobs can
also carry a :class:`~repro.engine.faults.Deadline`; the parent checks it
at every message, cancels queued morsels on expiry, drains the in-flight
ones, and raises :class:`~repro.engine.faults.QueryTimeoutError` — also
when the first to notice was a worker — with the pool left immediately
reusable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import socket
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from queue import Empty
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.faults import (
    Deadline,
    PoolClosedError,
    QueryTimeoutError,
    WorkerFailureError,
    fault_point,
)

#: Parent-side message-poll timeout; also the worker-liveness heartbeat —
#: a dead fork worker is noticed within a couple of these.  Below ~0.05 s
#: the parent burns CPU polling; above ~1 s a crashed worker stalls short
#: queries noticeably.
HEARTBEAT_SECONDS: float = 0.25

#: Consecutive silent heartbeats with a dead worker before recovery kicks
#: in (grace for results already in flight from other workers).
DEAD_WORKER_GRACE: int = 2

#: Per-morsel retry budget after worker deaths or runner errors; an
#: exhausted budget raises ``WorkerFailureError`` (poison-pill detection).
#: ``MorselJob.max_retries`` overrides it per job.
MAX_MORSEL_RETRIES: int = 3

#: Base of the exponential backoff applied before re-feeding a morsel
#: whose worker died more than once (caps at one second).
RETRY_BACKOFF_SECONDS: float = 0.05

def available_workers() -> int:
    """Usable cores for sizing pools.

    ``len(os.sched_getaffinity(0))`` respects container CPU pinning (CI
    runners, the 1-core bench container); ``os.cpu_count()`` is the fallback
    on platforms without affinity support.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# Job/task/result dataclasses (picklable: they cross the fork pipe).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MorselTask:
    """One unit of work: planner range ``index`` and its ``[lo, hi)``."""

    index: int
    lo: object
    hi: object


@dataclass
class TaskOutcome:
    """What a job's runner returns for one task."""

    value: int
    rows: Optional[List[Tuple[object, ...]]]
    counter: object


@dataclass
class MorselResult:
    """One completed task, with scheduling attribution."""

    index: int
    lo: object
    hi: object
    value: int
    rows: Optional[List[Tuple[object, ...]]]
    counter: object
    elapsed: float
    worker: int


@dataclass
class MorselJob:
    """Everything one :meth:`WorkerPool.run` call needs.

    ``runner`` must be a **module-level** callable ``(database, spec, task)
    -> TaskOutcome`` (the pool pickles it by reference); ``spec``
    is an arbitrary picklable object threaded through to every task.  State
    a runner wants to build once per (job, worker) rather than once per task
    — an executor, say — lives in the dict :func:`worker_job_state`
    returns.  ``summarize``, when set, is a module-level callable
    ``(database, spec, state) -> dict`` a worker that stored such state
    calls after its last task; the answers come back in
    :attr:`JobReport.worker_stats`.  ``deadline`` makes the pool cancel the
    job cooperatively once the instant passes; ``max_retries`` overrides
    ``MAX_MORSEL_RETRIES``.
    """

    spec: object
    runner: Callable[[object, object, MorselTask], TaskOutcome]
    tasks: Sequence[MorselTask]
    deadline: Optional[Deadline] = None
    max_retries: Optional[int] = None
    summarize: Optional[Callable[[object, object, dict], dict]] = None


@dataclass
class JobReport:
    """The merged outcome of one job: ordered results plus scheduling stats."""

    results: List[MorselResult]
    #: Tasks some worker ran beyond an even share of the job's tasks — what
    #: pulling from one queue moved off the slow workers.
    steals: int
    worker_busy: List[float]
    wall_seconds: float
    workers: int
    #: Replacement workers forked mid-job after detected deaths.
    worker_restarts: int = 0
    #: Morsels re-enqueued after a worker death or a runner error.
    morsel_retries: int = 0
    #: ``MorselJob.summarize`` answers, by worker.
    worker_stats: Dict[int, dict] = field(default_factory=dict)

    @property
    def dispatch_seconds(self) -> float:
        """Job wall time minus the busiest worker's busy time: what the job
        paid for arming workers, moving tasks and results, and the
        end-of-job handshake — the fixed cost a morsel has to be worth."""
        return max(0.0, self.wall_seconds - max(self.worker_busy, default=0.0))


@dataclass(frozen=True)
class _JobPayload:
    """The per-job message every worker is armed with."""

    #: The pool's job sequence number; tags every task and result.
    job: int
    spec: object
    runner: Callable[[object, object, MorselTask], TaskOutcome]
    summarize: Optional[Callable[[object, object, dict], dict]]


#: The running job's scratch dict; set only inside a forked worker, whose
#: one thread runs one task at a time.
_JOB_STATE: Optional[dict] = None


def worker_job_state() -> dict:
    """The calling pool worker's scratch dict for the job it is running.

    The pool creates one dict per (job, worker) and drops it with the job,
    so whatever a runner parks here is built once per worker per job and
    never outlives it.  Called outside a pool worker (a runner driven
    directly), every call returns a fresh dict.
    """
    return _JOB_STATE if _JOB_STATE is not None else {}


def reinitialise_child_locks(database) -> None:
    """Replace locks a forked child inherited in unknown state.

    A fork copies every lock as it stands, held or not, but only the
    forking thread: a lock another parent thread held at fork time is
    never released in the child.  ``repro serve`` forks from one
    request-handler thread while others run queries, so this is the audit
    of every lock in the process and what a worker — whose only code is
    :func:`_worker_main` running the job's runner — can reach:

    * ``Database._lock`` — **reset here**.  Every executor a runner builds
      looks its tries, plans and compiled driver up under it.  Only the
      child's main thread ever takes it, so a fresh lock is safe.
    * ``StatisticsCatalog._lock`` (``database.statistics``) — unreachable.
      The child inherits the catalog with the database, but only planning
      reads it: the cost walk, the selector, the partition planner, the
      pairwise baseline and a statistics-driven policy's constructor.  A
      job's spec carries the planned order, decomposition and built
      policy, so a runner reaches none of them
      (``tests/test_parallel.py::TestForkSafety`` runs a morsel under a
      held catalog lock).
    * ``PreparedQuery._lock`` — unreachable.  A job's spec carries the
      query, order and plan, never the handle.
    * the fault counters (``_ArmedFault``'s ``multiprocessing.Value``
      locks) — not reset: they are process-shared semaphores, so a parent
      thread holding one releases it for the child too.  The task queue's
      read lock is the same kind; the result queue's feeder state is
      re-made by ``multiprocessing``'s own after-fork hooks.
    * the server's admission, session and stats locks — unreachable: the
      child never runs server code.
    * ``ValueDictionary._grow_lock`` — unreachable: only writing a
      response page grows the JSON fragment table, and that is server code.
    * ``WorkerPool``'s submit and lifecycle locks — unreachable: the forking
      thread holds the submit lock, but the child never submits or closes,
      and leaves through ``os._exit`` without running ``atexit`` hooks or
      finalisers.
    """
    database._lock = threading.RLock()


def release_inherited_descriptors(own_parent_end) -> None:
    """Drop the descriptors a forked child inherited but must not hold.

    The fd audit beside :func:`reinitialise_child_locks`' lock audit.  A
    fork copies every open descriptor of the parent:

    * the parent-side end of every pool worker's control pipe — this
      worker's own (``own_parent_end``) and those of the workers forked
      before it, in any pool — **closed here**.  A worker learns that its
      parent died from EOF on its control pipe, and EOF arrives only once
      no process holds the other end.
    * every ``AF_INET`` / ``AF_INET6`` socket — **released here**:
      ``repro serve``'s listening socket and the client connections its
      other handler threads hold.  A worker holding the listening socket
      keeps the port bound after the server died, and the kernel queues
      connections nobody accepts.  The descriptor is pointed at
      ``/dev/null`` rather than closed, so a parent socket object that the
      child garbage-collects later closes that, never a reused number.
    * the worker's own control pipe and the task and result queues'
      pipes — kept: they are its transport.
    * anything else (files, the interpreter's own descriptors) — kept; no
      worker code reads them.
    """
    own_parent_end.close()
    for pool in list(_ALL_POOLS):
        for pipe in pool.transport._pipes:
            pipe.close()
    for directory in ("/proc/self/fd", "/dev/fd"):
        try:
            descriptors = [int(name) for name in os.listdir(directory)]
            break
        except OSError:
            continue
    else:  # pragma: no cover - no descriptor listing on this platform
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            try:
                probe = socket.socket(fileno=fd)
            except OSError:  # not a socket, or closed since the listing
                continue
            family = probe.family
            probe.detach()
            if family in (socket.AF_INET, socket.AF_INET6):
                os.dup2(null, fd)
    finally:
        os.close(null)


# --------------------------------------------------------------------------
# The worker side of the scheduler (runs in a forked child).
# --------------------------------------------------------------------------


def _worker_main(transport: "_ForkTransport", database, wid: int, conn) -> None:
    """One worker's life: wait for a job, serve it, until told to close."""
    fault_point("pool.worker_start")
    while True:
        message = transport.take(conn, tasks=False)
        if message[0] == "close":
            return
        if message[0] == "job" and not _serve_job(
            transport, database, wid, conn, message[1]
        ):
            return


def _serve_job(
    transport: "_ForkTransport", database, wid: int, conn, payload: _JobPayload
) -> bool:
    """Run tasks off the shared queue until the parent ends the job.

    A control message wins over a queued task: ``("end",)`` is only sent
    once the parent wants nothing more from this job.  Returns ``False``
    when the worker was told to close instead.
    """
    global _JOB_STATE
    job = payload.job
    state: dict = {}
    busy = 0.0
    while True:
        message = transport.take(conn)
        if message[0] == "close":
            return False
        if message[0] == "end":
            summary = None
            if payload.summarize is not None and state:
                summary = payload.summarize(database, payload.spec, state)
            transport.ack(conn, wid, busy, summary)
            return True
        if message[0] != "task" or message[1] != job:
            continue  # left over from a cancelled or recovered job
        task: MorselTask = message[2]
        started = time.perf_counter()
        _JOB_STATE = state
        try:
            fault_point("pool.before_morsel")
            outcome = payload.runner(database, payload.spec, task)
        except BaseException as error:  # noqa: BLE001 - reported to the submitter
            transport.post(job, ("error", task.index, f"{type(error).__name__}: {error}"))
            continue
        finally:
            _JOB_STATE = None
        elapsed = time.perf_counter() - started
        busy += elapsed
        transport.post(
            job,
            (
                "result",
                MorselResult(
                    index=task.index,
                    lo=task.lo,
                    hi=task.hi,
                    value=outcome.value,
                    rows=outcome.rows,
                    counter=outcome.counter,
                    elapsed=elapsed,
                    worker=wid,
                ),
            ),
        )


# --------------------------------------------------------------------------
# The parent side of the scheduler.
# --------------------------------------------------------------------------


class _JobTracker:
    """Order-independent completion bookkeeping for one job.

    Keeps the planner indexes still ``expected``; the first result (or
    error) for an index completes it, and a later duplicate — a re-fed
    morsel whose first run also finished — is dropped, so the job completes
    exactly when every planner range has one outcome.  It also keeps the
    ``index -> MorselTask`` map and the per-index retry counts, so any
    still-expected morsel can be re-enqueued after a worker death or a
    runner error.
    """

    def __init__(self, job: MorselJob, tasks: Sequence[MorselTask]) -> None:
        self.tasks: Dict[int, MorselTask] = {task.index: task for task in tasks}
        self.expected: Set[int] = set(self.tasks)
        self.results: List[MorselResult] = []
        self.errors: List[Tuple[int, str]] = []
        self.retries: Counter = Counter()
        self.max_retries = (
            MAX_MORSEL_RETRIES if job.max_retries is None else job.max_retries
        )

    @property
    def done(self) -> bool:
        return not self.expected

    def lost(self) -> List[int]:
        """Every morsel not yet accounted for."""
        return sorted(self.expected)

    def can_retry(self, index: int) -> bool:
        return index in self.expected and self.retries[index] < self.max_retries

    def absorb(self, message: tuple) -> None:
        if message[0] == "result":
            index = message[1].index
            if index in self.expected:
                self.results.append(message[1])
        else:
            index = message[1]
            if index in self.expected:
                self.errors.append((index, message[2]))
        self.expected.discard(index)


_ALL_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _close_all_pools() -> None:
    """Close every live pool (atexit: forked children must never outlive us)."""
    for pool in list(_ALL_POOLS):
        try:
            pool.close()
        except Exception:  # pragma: no cover - shutdown must never raise
            pass


atexit.register(_close_all_pools)


class WorkerPool:
    """A persistent worker pool bound to one database.

    Owns the scheduler's parent side (:meth:`_run_job`) and the lifecycle —
    lazy fork, one-job-at-a-time submission, idempotent ``close()`` (also
    via context manager, ``__del__`` and the module atexit hook) — over the
    ``transport`` that carries its messages, plus the observability
    counters ``spawns`` (workers ever forked — the persistence proof),
    ``jobs_run`` and ``worker_restarts``.
    """

    def __init__(self, database, size: int) -> None:
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        self.database = database
        self.size = int(size)
        self.transport = _ForkTransport(database, self.size)
        self.jobs_run = 0
        #: Stale/dead re-fork events plus mid-job replacement workers.
        self.worker_restarts = 0
        #: Morsels ever re-enqueued after a death or a runner error.
        self.morsel_retries = 0
        #: Jobs ever started (completed or not); see ``_JobPayload.job``.
        self._job_seq = 0
        self._closed = False
        #: Set when close() gave up waiting on an in-flight (failing) job;
        #: the job's collection loop notices and aborts cleanly instead of
        #: raising secondary errors off torn-down queues.
        self._abandoned = False
        self._submit_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        _ALL_POOLS.add(self)

    @property
    def spawns(self) -> int:
        """Workers ever started; flat across warm re-use."""
        return self.transport.spawns

    # ------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed pool refuses new jobs."""
        return self._closed

    def close(self, drain_timeout: float = 5.0) -> None:
        """Tear the workers down; idempotent and safe to call from atexit.

        An in-flight job is drained first (a wait on the submit lock
        bounded by ``drain_timeout`` seconds), so closing a pool mid-query
        finishes the query rather than corrupting it; only then are workers
        stopped.  A job still in flight when the drain gives up is
        abandoned: *its own* ``run()`` call raises
        :class:`~repro.engine.faults.PoolClosedError` — ``close()`` itself
        never raises and never hangs, whichever thread calls it.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            if self._submit_lock.acquire(timeout=max(0.0, float(drain_timeout))):
                self._submit_lock.release()
            else:
                self._abandoned = True
            self.transport.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- execution
    def run(self, job: MorselJob) -> JobReport:
        """Execute every task of ``job``; block until the merged report.

        Jobs serialise on the submit lock (see the module docstring's
        locking model).  Results come back sorted by planner index —
        range order — regardless of scheduling.
        """
        if self._closed:
            raise PoolClosedError(f"{self!r} is closed")
        with self._submit_lock:
            if self._closed:
                raise PoolClosedError(f"{self!r} is closed")
            started = time.perf_counter()
            report = self._run_job(job)
            report.wall_seconds = time.perf_counter() - started
            self.jobs_run += 1
            return report

    def _run_job(self, job: MorselJob) -> JobReport:
        tasks = list(job.tasks)
        if not tasks:
            return JobReport([], 0, [0.0] * self.size, 0.0, self.size)
        transport = self.transport
        if transport.ensure_workers():
            self.worker_restarts += 1
        self._job_seq += 1
        payload = _JobPayload(
            job=self._job_seq,
            spec=job.spec,
            runner=job.runner,
            summarize=job.summarize,
        )
        # A worker that died before (or while) receiving the payload — e.g.
        # killed during startup — is found dead by the heartbeat sweep
        # below, which forks an armed replacement.
        transport.broadcast(("job", payload))
        for task in tasks:
            transport.put_task(payload.job, task)
        tracker = _JobTracker(job, tasks)
        deadline = job.deadline
        job_restarts = 0
        silent_with_dead = 0
        while not tracker.done:
            if self._abandoned:
                raise PoolClosedError("worker pool closed while a job was in flight")
            if deadline is not None and deadline.expired():
                self._end_job()
                raise QueryTimeoutError(deadline.timeout)
            timeout = HEARTBEAT_SECONDS
            if deadline is not None:
                timeout = max(0.005, min(timeout, deadline.remaining()))
            try:
                message_job, message = transport.get_message(timeout)
            except Empty:
                fault_point("pool.heartbeat")
                dead = transport.dead_workers()
                if not dead:
                    continue
                silent_with_dead += 1
                if silent_with_dead >= DEAD_WORKER_GRACE:
                    silent_with_dead = 0
                    job_restarts += self._recover(dead, tracker, payload)
                continue
            except (OSError, ValueError, EOFError, AttributeError) as error:
                # close() tore the queues down under a job it abandoned.
                raise WorkerFailureError(f"worker pool torn down mid-job: {error}")
            silent_with_dead = 0
            if message_job != payload.job:
                continue  # a straggler of an earlier cancelled job
            if (
                message[0] == "error"
                # A deadline expiry is never transient.
                and message[2].partition(":")[0] != "QueryTimeoutError"
                and tracker.can_retry(message[1])
                and (deadline is None or not deadline.expired())
            ):
                self._refeed([message[1]], tracker, payload)
                continue
            tracker.absorb(message)
        busy, worker_stats = self._end_job()
        if tracker.errors:
            if deadline is not None and deadline.expired():
                # Worker-side deadline checks surface as error messages; the
                # deadline itself is authoritative.
                raise QueryTimeoutError(deadline.timeout)
            diagnostics = [
                f"morsel {index}: {text}" for index, text in sorted(tracker.errors)
            ]
            raise WorkerFailureError(
                f"morsel worker(s) failed: {'; '.join(diagnostics)}",
                diagnostics=diagnostics,
            )
        results = sorted(tracker.results, key=lambda result: result.index)
        share = -(-len(results) // self.size)
        ran = Counter(result.worker for result in results)
        return JobReport(
            results,
            sum(max(0, count - share) for count in ran.values()),
            busy,
            0.0,
            self.size,
            worker_restarts=job_restarts,
            morsel_retries=sum(tracker.retries.values()),
            worker_stats=worker_stats,
        )

    def _end_job(self) -> Tuple[List[float], Dict[int, dict]]:
        """Leave the job: per-worker busy seconds and job summaries.

        Also the deadline cancellation: queued morsels (and duplicates from
        a recovery) are dropped, then the handshake is the drain — a worker
        finishes the morsel it is in (idle ones ack at once) and leaves the
        job, so the pool is immediately reusable.  Whatever the two sweeps
        miss carries this job's number and is ignored later.
        """
        self.transport.discard_tasks()
        answer = self.transport.end_job()
        self.transport.discard_messages()
        return answer

    def _refeed(
        self, indexes: Sequence[int], tracker: _JobTracker, payload: _JobPayload
    ) -> None:
        """Charge one retry to each morsel of ``indexes`` and enqueue it again.

        Duplicates (a morsel merely in flight on a live worker) are safe:
        the tracker completes an index once and drops later arrivals.
        """
        tracker.retries.update(indexes)
        self.morsel_retries += len(indexes)
        for index in indexes:
            self.transport.put_task(payload.job, tracker.tasks[index])

    def _recover(
        self,
        dead: List[Tuple[int, Optional[int]]],
        tracker: _JobTracker,
        payload: _JobPayload,
    ) -> int:
        """Replace ``dead`` workers and re-feed every morsel they may have
        held; returns the number of replacements."""
        lost = tracker.lost()
        diagnostics = [f"worker {wid} exit code {code}" for wid, code in dead]
        exhausted = [index for index in lost if not tracker.can_retry(index)]
        if exhausted:
            # Poison pill: the same morsel keeps killing workers.
            self.transport.stop()
            morsels = ", ".join(
                f"morsel {index} ({tracker.retries[index]} retries)"
                for index in exhausted
            )
            raise WorkerFailureError(
                f"parallel worker(s) died mid-job: {', '.join(diagnostics)}; "
                f"retry budget exhausted for {morsels}",
                diagnostics=diagnostics,
            )
        try:
            replaced = self.transport.replace_workers(dead, payload)
        except (OSError, RuntimeError, ValueError) as error:
            # Interpreter shutdown (or fd exhaustion): recovery is
            # impossible, fail the job cleanly.
            raise WorkerFailureError(
                f"parallel worker(s) died mid-job ({', '.join(diagnostics)}) "
                f"and could not be replaced: {error}"
            )
        self.worker_restarts += replaced
        repeat = max((tracker.retries[index] for index in lost), default=0)
        if repeat >= 1:
            # The same morsel's worker died again: back off exponentially
            # before re-feeding it.
            time.sleep(min(RETRY_BACKOFF_SECONDS * (2 ** (repeat - 1)), 1.0))
        # Re-enqueue after forking so the task queue's feeder is quiescent
        # at fork time.
        self._refeed(lost, tracker, payload)
        return replaced

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"WorkerPool(size={self.size}, "
            f"spawns={self.spawns}, jobs={self.jobs_run}, {state})"
        )


# --------------------------------------------------------------------------
# The transport: how messages move and workers stay alive.  No policy here.
# --------------------------------------------------------------------------


def _drain(queue) -> None:
    if queue is None:
        return
    while True:
        try:
            queue.get_nowait()
        except (Empty, OSError, ValueError, EOFError):
            return


def _pin_to_cpu(wid: int) -> None:
    """Pin the calling fork worker to one CPU of the inherited affinity set.

    A task reaches a worker through a pipe write, and the kernel starts a
    process woken that way on the *writer's* CPU: two workers woken together
    then share one CPU and run their morsels one after the other until the
    idle balancer moves one, several milliseconds later (two 1.3 ms morsels
    on two idle cores: 3.0 ms unpinned, 1.8 ms pinned).  Workers take the
    CPUs round-robin, so a pool wider than the machine still spreads.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[wid % len(cpus)]})
    except (AttributeError, OSError):  # no affinity API, or a CPU went away
        pass


def _fork_worker_main(
    transport: "_ForkTransport", wid: int, conn, parent_end
) -> None:
    """Entry point of one forked worker.

    Runs with the whole parent state inherited by copy-on-write — the
    database, its warm index and compiled-driver caches, and the
    transport's queues; only control messages and results ever cross a pipe.
    ``parent_end`` is the parent's end of ``conn``, which the child drops.
    """
    release_inherited_descriptors(parent_end)
    reinitialise_child_locks(transport.database)
    _pin_to_cpu(wid)
    try:
        _worker_main(transport, transport.database, wid, conn)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _ForkTransport:
    """Forked workers that survive across queries, re-armed per job.

    Fork happens lazily on the first job — *after* the parent built the
    query's indexes and compiled driver, so children inherit warm caches by
    copy-on-write.  A staleness key re-forks the set when the parent built
    new state since; warm repeats spawn nothing.

    Parent side: :meth:`ensure_workers`, :meth:`broadcast` of control
    messages, :meth:`put_task`, :meth:`get_message`, :meth:`dead_workers` /
    :meth:`replace_workers`, :meth:`discard_tasks` / :meth:`discard_messages`,
    the :meth:`end_job` handshake and :meth:`stop`.  Worker side:
    :meth:`take`, :meth:`post` and :meth:`ack` over the worker's control
    pipe ``conn``.
    """

    def __init__(self, database, size: int) -> None:
        self.database = database
        self.size = size
        self.spawns = 0
        self._context = multiprocessing.get_context("fork")
        self._processes: List = []
        self._pipes: List = []
        self._task_queue = None
        self._result_queue = None
        self._fork_key: Optional[tuple] = None

    def _state_key(self) -> tuple:
        """Everything whose parent-side growth a forked child cannot see.

        A change re-forks the workers on the next job; unchanged warm
        executions keep the same children (and their COW page tables).
        """
        database = self.database
        return (
            database.data_version,
            database.index_builds,
            database.compiled_builds,
            len(database.dictionary),
        )

    def _fork(self, wid: int):
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_fork_worker_main,
            args=(self, wid, child_conn, parent_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.spawns += 1
        return process, parent_conn

    def ensure_workers(self) -> bool:
        """Fork the set if there is none; ``True`` when a stale or partly
        dead set had to be replaced first."""
        restarted = bool(self._processes) and (
            self._state_key() != self._fork_key
            or any(not process.is_alive() for process in self._processes)
        )
        if restarted:
            self.stop()
        if not self._processes:
            self._task_queue = self._context.Queue()
            self._result_queue = self._context.Queue()
            self._fork_key = self._state_key()
            for wid in range(self.size):
                process, pipe = self._fork(wid)
                self._processes.append(process)
                self._pipes.append(pipe)
        return restarted

    def broadcast(self, message: tuple) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(message)
            except OSError:  # that worker is gone; liveness checks find it
                pass

    def put_task(self, job: int, task: MorselTask) -> None:
        self._task_queue.put((job, task))

    def post(self, job: int, message: tuple) -> None:
        self._result_queue.put((job, message))

    def get_message(self, timeout: float) -> Tuple[int, tuple]:
        """The next ``(job, message)`` from any worker; ``Empty`` on timeout."""
        return self._result_queue.get(timeout=timeout)

    def discard_messages(self) -> None:
        _drain(self._result_queue)

    def take(self, conn, tasks: bool = True) -> tuple:
        """The worker sleeps on the queue's reader *and* its control pipe,
        holding no lock while it waits (a worker SIGKILLed here cannot
        wedge the others)."""
        waitables = [conn, self._task_queue._reader] if tasks else [conn]
        while True:
            if conn in wait(waitables):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    # The parent is gone: nobody reads what this worker
                    # still has queued, so exit must not wait to flush it.
                    self._result_queue.cancel_join_thread()
                    return ("close",)
            try:
                return ("task", *self._task_queue.get_nowait())
            except Empty:  # another worker was quicker
                continue

    def ack(self, conn, wid: int, busy: float, summary: Optional[dict]) -> None:
        conn.send(("ack", wid, busy, summary))

    def dead_workers(self) -> List[Tuple[int, Optional[int]]]:
        return [
            (wid, process.exitcode)
            for wid, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    def replace_workers(
        self, dead: List[Tuple[int, Optional[int]]], payload: _JobPayload
    ) -> int:
        """Join dead workers and fork replacements armed with the job.

        Replacements inherit the *current* parent state by copy-on-write
        (the parent has built nothing new mid-job: submissions serialise)
        and receive the in-flight job payload over their fresh pipe.
        """
        for wid, _code in dead:
            self._processes[wid].join(timeout=0.2)
            try:
                self._pipes[wid].close()
            except OSError:  # pragma: no cover - already broken
                pass
            self._processes[wid], self._pipes[wid] = self._fork(wid)
            try:
                self._pipes[wid].send(("job", payload))
            except OSError:
                # The replacement died immediately (repeat fault); the next
                # sweep sees it dead and the retry budget bounds the loop.
                pass
        return len(dead)

    def discard_tasks(self) -> None:
        _drain(self._task_queue)

    def end_job(self) -> Tuple[List[float], Dict[int, dict]]:
        """Every worker answers ``("end",)`` the moment it is idle, so with
        the results already in this returns within a pipe round-trip
        (bounded by ten seconds whatever happens).  A worker that dies
        after its last task (before acking) is dropped and the set is
        marked stale so the next job re-forks."""
        self.broadcast(("end",))
        busy = [0.0] * self.size
        worker_stats: Dict[int, dict] = {}
        waiting = {pipe: wid for wid, pipe in enumerate(self._pipes)}
        acked = 0
        deadline = time.monotonic() + 10.0
        while waiting and time.monotonic() < deadline:
            try:
                ready = wait(list(waiting), timeout=HEARTBEAT_SECONDS)
            except (OSError, ValueError):  # close() tore the pipes down
                break
            for pipe in ready:
                wid = waiting.pop(pipe)
                try:
                    ack = pipe.recv()
                except (EOFError, OSError):  # died before acking
                    continue
                acked += 1
                busy[wid] = ack[2]
                if ack[3] is not None:
                    worker_stats[wid] = ack[3]
            if not ready:
                for pipe, wid in list(waiting.items()):
                    if not self._processes[wid].is_alive():
                        del waiting[pipe]
        if acked < self.size:
            self._fork_key = None  # force a re-fork on the next job
        return busy, worker_stats

    def stop(self) -> None:
        self.broadcast(("close",))
        for process in self._processes:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()
        self._processes = []
        self._pipes = []
        self._task_queue = None
        self._result_queue = None


def create_worker_pool(database, size: int) -> WorkerPool:
    """Build a pool of ``size`` forked workers over ``database``.

    Where the platform has no ``fork`` start method, ``multiprocessing``
    raises ``ValueError`` here; :func:`repro.engine.parallel.resolve_schedule`
    declines such executions (they run serial) before ever asking for a pool.
    """
    return WorkerPool(database, size)
