"""Typed execution failures, cooperative deadlines, and fault injection.

This module is the substrate of the fault-tolerance layer (PR 9).  It owns
three small, dependency-free pieces that the pool, the executors, the
compiler, and the CLI all share:

* **Typed exceptions** — :class:`WorkerFailureError` (a worker death or
  morsel error survived its retry budget; carries per-worker diagnostics)
  and :class:`QueryTimeoutError` (a cooperative deadline fired).  Both are
  ``RuntimeError`` subclasses — deliberately *not* ``ValueError``, so the
  CLI can keep mapping parameter mistakes to exit code 2 while timeouts get
  their own clean exit code.
* **Deadlines** — :class:`Deadline` is a frozen, picklable absolute
  ``time.monotonic()`` instant.  It crosses the fork pipe inside a morsel
  spec unchanged (Linux's monotonic clock is shared between parent and
  forked children), so the pool, interpreted recursion, and compiled
  drivers all race the same wall-clock instant.
* **Fault injection** — a registry of named *fault points* compiled into
  the production code paths as cheap no-ops (one dict check when nothing is
  armed).  Tests arm them with :func:`inject_faults`, choosing a seeded /
  counted trigger that raises, delays, or SIGKILLs a fork worker.  Trigger
  counters live in shared memory, so occurrences are counted globally
  across forked workers and a ``times=1`` kill fires exactly once no matter
  which worker reaches the point first.  Fork workers inherit the armed
  registry by copy-on-write — arm faults *before* the pool forks (e.g. on a
  fresh database) for them to fire worker-side.

Known fault points (the registry accepts any name; these are the ones the
engine currently compiles in):

========================  ====================================================
``pool.worker_start``     entry of every forked pool worker
``pool.before_morsel``    immediately before a worker runs one morsel
``pool.heartbeat``        each parent-side heartbeat interval without results
``compiler.exec``         just before ``exec`` of a generated driver
========================  ====================================================
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Union

__all__ = [
    "Deadline",
    "FaultInjectedError",
    "FaultSpec",
    "PoolClosedError",
    "QueryTimeoutError",
    "WorkerFailureError",
    "FAULT_POINTS",
    "fault_point",
    "inject_faults",
]


# --------------------------------------------------------------------------
# Typed exceptions.
# --------------------------------------------------------------------------


class WorkerFailureError(RuntimeError):
    """A parallel job failed permanently: a morsel exhausted its retry
    budget after repeated worker deaths (poison pill) or repeated errors.

    ``diagnostics`` preserves the per-worker / per-morsel detail strings so
    callers can log them without parsing the message.
    """

    def __init__(self, message: str, diagnostics: Optional[list] = None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class PoolClosedError(WorkerFailureError):
    """A worker pool was closed out from under the caller.

    Raised in two places: submitting a job to an already-closed pool, and
    from ``run()`` when ``close()`` / ``Database.close_pools()`` in another
    thread abandoned the in-flight job after its drain timeout.  A subclass
    of :class:`WorkerFailureError` (itself a ``RuntimeError``), so callers
    that handle pool failures generically keep working while concurrent
    servers can distinguish "the service is shutting down" from a genuine
    worker death and answer with a retryable status instead of an error.
    """


class QueryTimeoutError(RuntimeError):
    """A query exceeded its cooperative ``timeout=`` deadline.

    Raised by whichever layer notices first — the pool at a morsel
    boundary, interpreted recursion every few calls, or a compiled driver's
    counter-gated check — and propagates with the pool left reusable.
    """

    def __init__(self, timeout: float, message: Optional[str] = None) -> None:
        super().__init__(
            message or f"query exceeded its timeout of {timeout:.6g}s"
        )
        self.timeout = timeout


class FaultInjectedError(RuntimeError):
    """The error raised by an armed ``raise`` fault (and nothing else)."""


# --------------------------------------------------------------------------
# Cooperative deadlines.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute monotonic instant a query must not run past.

    Frozen and picklable: it crosses the fork pipe inside morsel specs.
    ``timeout`` (the caller's original seconds) rides along purely for
    error messages.
    """

    timeout: float
    at: float

    @classmethod
    def start(cls, timeout: float) -> "Deadline":
        """A deadline ``timeout`` seconds from now."""
        return cls(timeout=float(timeout), at=time.monotonic() + float(timeout))

    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def remaining(self) -> float:
        """Seconds left, clamped to zero once expired."""
        return max(0.0, self.at - time.monotonic())

    def check(self) -> None:
        """Raise :class:`QueryTimeoutError` if the instant has passed."""
        if time.monotonic() >= self.at:
            raise QueryTimeoutError(self.timeout)


# --------------------------------------------------------------------------
# Deterministic fault injection.
# --------------------------------------------------------------------------

#: The fault points currently compiled into the engine (documentation /
#: spell-check aid; the registry accepts arbitrary names).
FAULT_POINTS = (
    "pool.worker_start",
    "pool.before_morsel",
    "pool.heartbeat",
    "compiler.exec",
)


@dataclass(frozen=True)
class FaultSpec:
    """What an armed fault point does when reached.

    ``action`` is ``"raise"`` (raise :class:`FaultInjectedError`),
    ``"delay"`` (sleep ``delay`` seconds), or ``"kill"`` (SIGKILL the
    *current process* — guarded to never fire in the process that armed the
    fault, so it only ever kills fork workers).  The trigger window is
    counted over global occurrences of the point: occurrence numbers
    ``[after, after + times)`` fire, everything else passes through.  An
    optional ``probability`` (with ``seed``) thins the window
    deterministically.
    """

    action: str = "raise"
    times: int = 1
    after: int = 0
    delay: float = 0.05
    probability: float = 1.0
    seed: Optional[int] = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in ("raise", "delay", "kill"):
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                "choose 'raise', 'delay' or 'kill'"
            )


def _shared_counter():
    """A cross-process occurrence counter (plain fallback without fork)."""
    try:
        return multiprocessing.get_context("fork").Value("i", 0)
    except ValueError:  # pragma: no cover - platforms without fork

        class _Local:
            def __init__(self) -> None:
                self.value = 0
                self._lock = threading.Lock()

            def get_lock(self):
                return self._lock

        return _Local()


class _ArmedFault:
    """One armed fault point: spec + shared occurrence/fire counters."""

    def __init__(self, name: str, spec: FaultSpec) -> None:
        self.name = name
        self.spec = spec
        self.armed_pid = os.getpid()
        self._hits = _shared_counter()
        self._fired = _shared_counter()
        self._rng = random.Random(spec.seed)

    @property
    def hits(self) -> int:
        """Global occurrences of the point while armed (all processes)."""
        return self._hits.value

    @property
    def fired(self) -> int:
        """Global count of occurrences that actually triggered the action."""
        return self._fired.value

    def fire(self) -> None:
        spec = self.spec
        with self._hits.get_lock():
            occurrence = self._hits.value
            self._hits.value = occurrence + 1
        if occurrence < spec.after or occurrence >= spec.after + spec.times:
            return
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return
        with self._fired.get_lock():
            self._fired.value += 1
        if spec.action == "delay":
            time.sleep(spec.delay)
            return
        if spec.action == "kill":
            if os.getpid() == self.armed_pid:
                # Never kill the arming (test/parent) process; the kill
                # action exists to take out fork workers.
                return
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - unreachable after SIGKILL
        raise FaultInjectedError(f"{self.name}: {spec.message}")


#: The armed registry.  Empty in production: ``fault_point`` is then a
#: single falsy-dict check.
_ACTIVE: Dict[str, _ArmedFault] = {}


def fault_point(name: str) -> None:
    """Mark a named point in a production code path (no-op unless armed)."""
    if not _ACTIVE:
        return
    armed = _ACTIVE.get(name)
    if armed is not None:
        armed.fire()


class inject_faults:
    """Context manager arming fault points from ``{name: spec}``.

    Specs may be :class:`FaultSpec` instances, plain dicts of its fields,
    or a bare action string.  The armed handles (exposing ``hits`` and
    ``fired`` counters) are returned from ``__enter__`` keyed by name::

        with inject_faults({"pool.before_morsel": {"action": "kill"}}) as armed:
            ...
        assert armed["pool.before_morsel"].fired == 1
    """

    def __init__(
        self, specs: Mapping[str, Union[FaultSpec, Mapping, str]]
    ) -> None:
        self._armed: Dict[str, _ArmedFault] = {}
        for name, spec in specs.items():
            if isinstance(spec, str):
                spec = FaultSpec(action=spec)
            elif not isinstance(spec, FaultSpec):
                spec = FaultSpec(**dict(spec))
            self._armed[name] = _ArmedFault(name, spec)

    def __enter__(self) -> Dict[str, _ArmedFault]:
        _ACTIVE.update(self._armed)
        return self._armed

    def __exit__(self, *_exc) -> bool:
        for name, armed in self._armed.items():
            if _ACTIVE.get(name) is armed:
                del _ACTIVE[name]
        return False

    def __iter__(self) -> Iterator[str]:  # pragma: no cover - convenience
        return iter(self._armed)
