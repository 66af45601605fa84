"""The persistent morsel-driven worker pool: one scheduler, two transports.

A :class:`WorkerPool` is owned by the
:class:`~repro.storage.database.Database`, survives across queries, and runs
*morsels* — many fine-grained sub-ranges of the top join variable — off one
shared task queue, so a lopsided key space keeps every worker busy anyway
(morsel-driven parallelism in the sense of Leis et al.).

**The scheduler** is this module's policy and exists once.  Parent side,
:meth:`WorkerPool._run_job` arms the workers, feeds the tasks, and collects
``("result" | "error" | "split", ...)`` messages into a :class:`_JobTracker`
until every planner range is tiled by results; it owns the per-morsel retry
budget, deadline cancellation, error aggregation, the end-of-job handshake
and the :class:`JobReport`.  Worker side, :func:`_worker_main` /
:func:`_serve_job` take a task, halve it instead when the worker's previous
morsel ran hot, run it under :func:`worker_job_state`, and post the outcome.

**The transports** only move messages and keep workers alive:

* ``"threads"`` (:class:`_ThreadTransport`) — daemon threads over an
  in-process queue.  They share the parent's memory, so they are never
  stale and adopt the submitting execution's accounting scopes around each
  morsel.  Pure-Python joins gain nothing from them (the GIL); they are the
  fallback where ``fork`` is missing and the scheduler's in-process test
  bed.
* ``"processes"`` (:class:`_ForkTransport`) — workers forked **once** and
  re-armed over a control pipe per job, amortizing fork + copy-on-write
  page-table setup across queries.  A worker blocks on the task queue's
  reader and its control pipe *together*, so the end-of-job handshake —
  ``("end",)`` down every pipe, one ``("ack", worker, busy seconds,
  summary)`` back — completes within a pipe round-trip of the last result,
  and ``("close",)`` is seen just as promptly.  Forked workers snapshot the
  database at fork time, so the transport records a staleness key (data
  version, index/compiled builds, dictionary size) and re-forks when the
  parent built new state — warm repeated queries re-use the same workers
  with **zero** new spawns (the ``spawns`` counter is the proof, asserted
  in tests).  Each worker is pinned to one CPU.

Tasks and results carry the job's sequence number, so a leftover of a
cancelled or recovered job can never be mistaken for the next job's.

**Adaptive splitting**: when a worker's previous morsel ran longer than the
job's ``split_threshold``, it halves the next task that still spans enough
dictionary codes and requeues both halves instead of running the original
— a mis-estimated hot range gets re-fed to the whole pool mid-flight.  One
slow morsel buys one split: a run of slow morsels keeps splitting, and
morsels that come out short are left alone.  Split halves carry a binary
``path`` suffix, so sorting results by ``(index, path)`` reproduces the
exact planner range order no matter which worker ran what: the merged row
stream is byte-identical to the serial one under any schedule.

**Locking model** (mirrors the conventions documented in
:mod:`repro.engine.parallel` and :class:`~repro.storage.database.Database`):

* ``run()`` serialises on a submit lock — one job at a time per pool;
  concurrent engine calls over one database queue up rather than interleave
  (a job's runner must never submit to the same pool: that would deadlock);
* lifecycle (``close()``) takes a separate lock, is idempotent, and briefly
  acquires the submit lock so an in-flight job drains before teardown —
  exiting a pool's context manager mid-query therefore finishes the query;
* the thread transport guards its task queue and control slots with one
  ``Condition``; task execution runs outside it;
* forked children replace the inherited ``database._lock`` (a parent thread
  that held it at fork time does not exist in the child and would never
  release it) — see :func:`reinitialise_child_locks`;
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
morsel identity is ``(index, path)``, so retried results sort back into the
deterministic merge and duplicates park harmlessly as orphans.  A morsel
that repeatedly kills its worker (or keeps raising) is a poison pill:
per-key retries are bounded by ``MAX_MORSEL_RETRIES`` with exponential
backoff, and only an exhausted budget raises
:class:`~repro.engine.faults.WorkerFailureError`.  Jobs can also carry a
:class:`~repro.engine.faults.Deadline`; the parent checks it at every
message, cancels queued morsels on expiry, drains the in-flight ones, and
raises :class:`~repro.engine.faults.QueryTimeoutError` — also when the
first to notice was a worker — with the pool left immediately reusable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from queue import Empty, SimpleQueue
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.faults import (
    Deadline,
    PoolClosedError,
    QueryTimeoutError,
    WorkerFailureError,
    fault_point,
)

#: Supported pool backends (mirrors ``PARALLEL_BACKENDS``).
POOL_BACKENDS: Tuple[str, ...] = ("threads", "processes")

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

#: Smallest code span the adaptive splitter will halve.
MIN_SPLIT_SPAN: int = 2

#: A morsel's identity: planner range index plus split path.
MorselKey = Tuple[int, Tuple[int, ...]]


def _describe(key: MorselKey) -> str:
    return f"morsel {key[0]}{list(key[1])!r}"


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
    """One unit of work: planner range ``index``, split ``path``, ``[lo, hi)``.

    ``path`` is ``()`` for a planner-produced morsel; each adaptive split
    appends ``0`` (left half) or ``1`` (right half), so lexicographic
    ``(index, path)`` order equals key-range order.
    """

    index: int
    path: Tuple[int, ...]
    lo: object
    hi: object

    @property
    def key(self) -> MorselKey:
        return (self.index, self.path)


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
    path: Tuple[int, ...]
    lo: object
    hi: object
    value: int
    rows: Optional[List[Tuple[object, ...]]]
    counter: object
    elapsed: float
    worker: int

    @property
    def key(self) -> MorselKey:
        return (self.index, self.path)


@dataclass
class MorselJob:
    """Everything one :meth:`WorkerPool.run` call needs.

    ``runner`` must be a **module-level** callable ``(database, spec, task)
    -> TaskOutcome`` (the fork transport pickles it by reference); ``spec``
    is an arbitrary picklable object threaded through to every task.  State
    a runner wants to build once per (job, worker) rather than once per task
    — an executor, say — lives in the dict :func:`worker_job_state`
    returns.  ``summarize``, when set, is a module-level callable
    ``(database, spec, state) -> dict`` a worker that stored such state
    calls after its last task; the answers come back in
    :attr:`JobReport.worker_stats`.  A ``split_threshold`` of ``None`` (or a
    ``split_domain`` of ``None``) disables adaptive splitting.  ``deadline``
    makes the pool cancel the job cooperatively once the instant passes;
    ``max_retries`` overrides ``MAX_MORSEL_RETRIES``.
    """

    spec: object
    runner: Callable[[object, object, MorselTask], TaskOutcome]
    tasks: Sequence[MorselTask]
    split_threshold: Optional[float] = None
    min_split_span: int = MIN_SPLIT_SPAN
    split_domain: Optional[Tuple[int, int]] = None
    deadline: Optional[Deadline] = None
    max_retries: Optional[int] = None
    summarize: Optional[Callable[[object, object, dict], dict]] = None
    #: The submitting execution's cache-accounting scopes
    #: (:meth:`repro.storage.database.Database.active_scopes`).  Thread
    #: workers adopt them around each morsel so worker-side index/driver
    #: cache hits stay attributed to the execution that caused them.
    scopes: Optional[Sequence[object]] = None


@dataclass
class JobReport:
    """The merged outcome of one job: ordered results plus scheduling stats."""

    results: List[MorselResult]
    #: Tasks some worker ran beyond an even share of the job's tasks — what
    #: pulling from one queue moved off the slow workers.
    steals: int
    splits: int
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
    split_threshold: Optional[float]
    min_split_span: int
    split_domain: Optional[Tuple[int, int]]
    scopes: Optional[Sequence[object]]

    def __getstate__(self) -> dict:
        # Scopes never cross the fork pipe: a fork child bumps copy-on-write
        # counters the parent never reads.
        return {**self.__dict__, "scopes": None}


_WORKER_JOB = threading.local()


def worker_job_state() -> dict:
    """The calling pool worker's scratch dict for the job it is running.

    The pool creates one dict per (job, worker) and drops it with the job,
    so whatever a runner parks here is built once per worker per job and
    never outlives it.  Called outside a pool worker (a runner driven
    directly), every call returns a fresh dict.
    """
    state = getattr(_WORKER_JOB, "state", None)
    return state if state is not None else {}


def split_task(
    task: MorselTask,
    domain: Optional[Tuple[int, int]],
    min_span: int,
) -> Optional[Tuple[MorselTask, MorselTask]]:
    """Halve ``task``'s code range, or ``None`` when it cannot be split.

    Open ends resolve against ``domain`` (the dictionary's code span at
    submit time) for the midpoint only; the halves keep the original open
    bounds so late-appended codes stay covered.  Raw (non-integer) key
    spaces have no midpoint and never split.
    """
    if domain is None:
        return None
    lo = task.lo if task.lo is not None else domain[0]
    hi = task.hi if task.hi is not None else domain[1]
    if not isinstance(lo, int) or not isinstance(hi, int):
        return None
    if hi - lo < max(2, min_span):
        return None
    mid = (lo + hi) // 2
    left = MorselTask(task.index, task.path + (0,), task.lo, mid)
    right = MorselTask(task.index, task.path + (1,), mid, task.hi)
    return left, right


def reinitialise_child_locks(database) -> None:
    """Replace locks a forked child inherited in unknown state.

    The fork may happen while *another* parent thread holds the database
    lock (engines are documented as thread-shareable); that thread does not
    exist in the child, so the inherited lock would never be released.  The
    child is single-threaded, so a fresh lock is safe.
    """
    database._lock = threading.RLock()


# --------------------------------------------------------------------------
# The worker side of the scheduler (runs in a pool thread or a forked child).
# --------------------------------------------------------------------------


def _worker_main(transport: "_Transport", database, wid: int, conn) -> None:
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
    transport: "_Transport", database, wid: int, conn, payload: _JobPayload
) -> bool:
    """Run tasks off the shared queue until the parent ends the job.

    A control message wins over a queued task: ``("end",)`` is only sent
    once the parent wants nothing more from this job.  Returns ``False``
    when the worker was told to close instead.
    """
    job = payload.job
    state: dict = {}
    busy = 0.0
    hot = False
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
        if hot and payload.split_threshold is not None:
            halves = split_task(task, payload.split_domain, payload.min_split_span)
            if halves is not None:
                hot = False
                left, right = halves
                transport.post(job, ("split", task.key, left.key, right.key))
                transport.put_task(job, left)
                transport.put_task(job, right)
                continue
        started = time.perf_counter()
        _WORKER_JOB.state = state
        try:
            fault_point("pool.before_morsel")
            with database.adopt_scopes(payload.scopes):
                outcome = payload.runner(database, payload.spec, task)
        except BaseException as error:  # noqa: BLE001 - reported to the submitter
            transport.post(job, ("error", task.key, f"{type(error).__name__}: {error}"))
            continue
        finally:
            _WORKER_JOB.state = None
        elapsed = time.perf_counter() - started
        busy += elapsed
        if payload.split_threshold is not None and elapsed >= payload.split_threshold:
            hot = True
        transport.post(
            job,
            (
                "result",
                MorselResult(
                    index=task.index,
                    path=task.path,
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

    Messages from different workers may arrive in any interleaving — a
    split half's result can land before its split announcement.  The
    tracker keeps a live ``expected`` key set; early arrivals park as
    orphans and are absorbed the moment their key becomes live, so the job
    completes exactly when every planner range is tiled by results.

    It also keeps a ``key -> MorselTask`` map and the per-key retry counts,
    so any still-expected morsel can be re-enqueued after a worker death or
    a runner error.  Split messages carry only keys, but the halves are
    recomputed parent-side with the same deterministic :func:`split_task`
    the worker used — identical inputs, identical halves.
    """

    def __init__(self, job: MorselJob, tasks: Sequence[MorselTask]) -> None:
        self.expected: Set[MorselKey] = set()
        self.results: List[MorselResult] = []
        self.errors: List[Tuple[MorselKey, str]] = []
        self.splits = 0
        self.tasks: Dict[MorselKey, MorselTask] = {}
        self.retries: Counter = Counter()
        self.max_retries = (
            MAX_MORSEL_RETRIES if job.max_retries is None else job.max_retries
        )
        self._domain = job.split_domain
        self._min_span = job.min_split_span
        self._orphans: Dict[MorselKey, tuple] = {}
        self._orphan_splits: Dict[MorselKey, tuple] = {}
        for task in tasks:
            self.expected.add(task.key)
            self.tasks[task.key] = task

    @property
    def done(self) -> bool:
        return not self.expected

    def lost(self) -> List[MorselKey]:
        """Every morsel not yet accounted for that can be fed again."""
        return sorted(key for key in self.expected if key in self.tasks)

    def can_retry(self, key: MorselKey) -> bool:
        return (
            key in self.expected
            and key in self.tasks
            and self.retries[key] < self.max_retries
        )

    def absorb(self, message: tuple) -> None:
        kind = message[0]
        if kind == "split":
            key = message[1]
            if key in self.expected:
                self.expected.discard(key)
                self._apply_split(message)
            else:
                self._orphan_splits[key] = message
            return
        key = message[1] if kind == "error" else message[1].key
        if key in self.expected:
            self.expected.discard(key)
            self._complete(message)
        else:
            self._orphans[key] = message

    def _apply_split(self, message: tuple) -> None:
        self.splits += 1
        parent = self.tasks.get(message[1])
        if parent is not None:
            halves = split_task(parent, self._domain, self._min_span)
            if halves is not None:
                for half in halves:
                    self.tasks[half.key] = half
        for half_key in (message[2], message[3]):
            self._register(half_key)

    def _register(self, key: MorselKey) -> None:
        if key in self._orphans:
            self._complete(self._orphans.pop(key))
            return
        if key in self._orphan_splits:
            self._apply_split(self._orphan_splits.pop(key))
            return
        self.expected.add(key)

    def _complete(self, message: tuple) -> None:
        if message[0] == "result":
            self.results.append(message[1])
        else:
            self.errors.append((message[1], message[2]))


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

    Owns the scheduler's parent side (:meth:`_run_job`) and the uniform
    lifecycle — lazy spawn, one-job-at-a-time submission, idempotent
    ``close()`` (also via context manager, ``__del__`` and the module atexit
    hook) — over the ``transport`` that carries its messages, plus the
    observability counters ``spawns`` (workers ever started — the
    persistence proof), ``jobs_run`` and ``worker_restarts``.
    """

    def __init__(self, database, size: int, transport: "type[_Transport]") -> None:
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        self.database = database
        self.size = int(size)
        self.transport = transport(database, self.size)
        self.backend = transport.backend
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
        locking model).  Results come back sorted by ``(index, path)`` —
        planner range order — regardless of scheduling.
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
            return JobReport([], 0, 0, [0.0] * self.size, 0.0, self.size)
        transport = self.transport
        if transport.ensure_workers():
            self.worker_restarts += 1
        self._job_seq += 1
        payload = _JobPayload(
            job=self._job_seq,
            spec=job.spec,
            runner=job.runner,
            summarize=job.summarize,
            split_threshold=job.split_threshold,
            min_split_span=job.min_split_span,
            split_domain=job.split_domain,
            scopes=job.scopes,
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
                f"{_describe(key)}: {text}" for key, text in sorted(tracker.errors)
            ]
            raise WorkerFailureError(
                f"morsel worker(s) failed: {'; '.join(diagnostics)}",
                diagnostics=diagnostics,
            )
        results = sorted(tracker.results, key=lambda result: result.key)
        share = -(-len(results) // self.size)
        ran = Counter(result.worker for result in results)
        return JobReport(
            results,
            sum(max(0, count - share) for count in ran.values()),
            tracker.splits,
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
        self, keys: Sequence[MorselKey], tracker: _JobTracker, payload: _JobPayload
    ) -> None:
        """Charge one retry to each of ``keys`` and enqueue them again.

        Duplicates (a morsel merely in flight on a live worker) are safe:
        the tracker completes a key once and parks later arrivals.
        """
        tracker.retries.update(keys)
        self.morsel_retries += len(keys)
        for key in keys:
            self.transport.put_task(payload.job, tracker.tasks[key])

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
        exhausted = [key for key in lost if not tracker.can_retry(key)]
        if exhausted:
            # Poison pill: the same morsel keeps killing workers.
            self.transport.stop()
            morsels = ", ".join(
                f"{_describe(key)} ({tracker.retries[key]} retries)"
                for key in exhausted
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
        repeat = max((tracker.retries[key] for key in lost), default=0)
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
            f"WorkerPool({self.backend!r}, size={self.size}, "
            f"spawns={self.spawns}, jobs={self.jobs_run}, {state})"
        )


# --------------------------------------------------------------------------
# Transports: how messages move and workers stay alive.  No policy here.
# --------------------------------------------------------------------------


def _drain(queue) -> None:
    if queue is None:
        return
    while True:
        try:
            queue.get_nowait()
        except (Empty, OSError, ValueError, EOFError):
            return


class _Transport:
    """What the scheduler needs from a backend.

    Parent side: :meth:`ensure_workers`, :meth:`broadcast` of control
    messages, :meth:`put_task`, :meth:`get_message`, :meth:`dead_workers` /
    :meth:`replace_workers`, :meth:`discard_tasks` / :meth:`discard_messages`,
    the :meth:`end_job` handshake and :meth:`stop`.  Worker side:
    :meth:`take`, :meth:`post`, :meth:`put_task` (split halves) and
    :meth:`ack`; ``conn`` is whatever the transport handed the worker as its
    control channel.
    """

    backend = "none"

    def __init__(self, database, size: int) -> None:
        self.database = database
        self.size = size
        self.spawns = 0
        self._result_queue = None

    def post(self, job: int, message: tuple) -> None:
        self._result_queue.put((job, message))

    def get_message(self, timeout: float) -> Tuple[int, tuple]:
        """The next ``(job, message)`` from any worker; ``Empty`` on timeout."""
        return self._result_queue.get(timeout=timeout)

    def discard_messages(self) -> None:
        _drain(self._result_queue)


class _ThreadTransport(_Transport):
    """Daemon threads over an in-process queue.

    Shared memory: the workers are never stale, and none can die under the
    scheduler (the worker loop reports every runner exception).
    """

    backend = "threads"

    def __init__(self, database, size: int) -> None:
        super().__init__(database, size)
        self._result_queue = SimpleQueue()
        self._acks: SimpleQueue = SimpleQueue()
        #: Guards the task queue and the per-worker control slots.
        self._cond = threading.Condition()
        self._tasks: deque = deque()
        self._controls: List[deque] = [deque() for _ in range(size)]
        self._threads: List[threading.Thread] = []

    def ensure_workers(self) -> bool:
        if not self._threads:
            for wid in range(self.size):
                thread = threading.Thread(
                    target=_worker_main,
                    args=(self, self.database, wid, wid),
                    name=f"repro-pool-{wid}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
                self.spawns += 1
        return False

    def broadcast(self, message: tuple) -> None:
        with self._cond:
            for control in self._controls:
                control.append(message)
            self._cond.notify_all()

    def put_task(self, job: int, task: MorselTask) -> None:
        with self._cond:
            self._tasks.append((job, task))
            self._cond.notify_all()

    def take(self, wid: int, tasks: bool = True) -> tuple:
        control = self._controls[wid]
        with self._cond:
            while True:
                if control:
                    return control.popleft()
                if tasks and self._tasks:
                    return ("task", *self._tasks.popleft())
                self._cond.wait()

    def ack(self, conn: int, wid: int, busy: float, summary: Optional[dict]) -> None:
        self._acks.put((wid, busy, summary))

    def dead_workers(self) -> List[Tuple[int, Optional[int]]]:
        return []

    def discard_tasks(self) -> None:
        with self._cond:
            self._tasks.clear()

    def end_job(self) -> Tuple[List[float], Dict[int, dict]]:
        self.broadcast(("end",))
        busy = [0.0] * self.size
        worker_stats: Dict[int, dict] = {}
        waiting = dict(enumerate(self._threads))
        while waiting:
            try:
                wid, seconds, summary = self._acks.get(timeout=HEARTBEAT_SECONDS)
            except Empty:  # stop() reached a worker before its "end" did
                waiting = {w: t for w, t in waiting.items() if t.is_alive()}
                continue
            waiting.pop(wid, None)
            busy[wid] = seconds
            if summary is not None:
                worker_stats[wid] = summary
        return busy, worker_stats

    def stop(self) -> None:
        self.broadcast(("close",))
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []


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


def _fork_worker_main(transport: "_ForkTransport", wid: int, conn) -> None:
    """Entry point of one forked worker.

    Runs with the whole parent state inherited by copy-on-write — the
    database, its warm index and compiled-driver caches, and the
    transport's queues; only control messages and results ever cross a pipe.
    """
    reinitialise_child_locks(transport.database)
    _pin_to_cpu(wid)
    try:
        _worker_main(transport, transport.database, wid, conn)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _ForkTransport(_Transport):
    """Forked workers that survive across queries, re-armed per job.

    Fork happens lazily on the first job — *after* the parent built the
    query's indexes and compiled driver, so children inherit warm caches by
    copy-on-write.  A staleness key re-forks the set when the parent built
    new state since; warm repeats spawn nothing.
    """

    backend = "processes"

    def __init__(self, database, size: int) -> None:
        super().__init__(database, size)
        self._context = multiprocessing.get_context("fork")
        self._processes: List = []
        self._pipes: List = []
        self._task_queue = None
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
            target=_fork_worker_main, args=(self, wid, child_conn), daemon=True
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

    def take(self, conn, tasks: bool = True) -> tuple:
        """The worker sleeps on the queue's reader *and* its control pipe,
        holding no lock while it waits (a worker SIGKILLed here cannot
        wedge the others)."""
        waitables = [conn, self._task_queue._reader] if tasks else [conn]
        while True:
            if conn in wait(waitables):
                try:
                    return conn.recv()
                except (EOFError, OSError):  # the parent is gone
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


_TRANSPORTS = {"threads": _ThreadTransport, "processes": _ForkTransport}


def create_worker_pool(database, backend: str, size: int) -> WorkerPool:
    """Build a pool for ``backend`` (``"threads"`` or ``"processes"``).

    Callers wanting the fork backend on a platform without ``fork`` should
    fall back to threads *before* calling (as
    :func:`repro.engine.parallel.resolve_schedule` does); asking for it
    anyway raises.
    """
    if backend not in _TRANSPORTS:
        raise ValueError(
            f"unknown pool backend {backend!r}; choose one of {POOL_BACKENDS}"
        )
    if (
        backend == "processes"
        and "fork" not in multiprocessing.get_all_start_methods()
    ):
        raise ValueError(
            "the 'processes' pool backend requires the fork start method"
        )
    return WorkerPool(database, size, _TRANSPORTS[backend])
