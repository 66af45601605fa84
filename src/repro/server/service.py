"""The transport-free query service: one shared database, many clients.

:class:`QueryService` is everything the HTTP layer does *except* sockets:
it owns the :class:`~repro.storage.database.Database` and its
:class:`~repro.engine.engine.QueryEngine`, resolves sessions, admits work
through the :class:`~repro.server.admission.AdmissionController`, executes
requests (optionally through a session's warm
:class:`~repro.engine.prepared.PreparedQuery` handles), and aggregates
per-request metadata into service-level totals that ``GET /metrics``
exposes — the acceptance invariant of PR 10 is that those totals reconcile
exactly with the sum of the per-request metadata the clients saw.

Request payloads are plain dicts (what the HTTP layer decodes from JSON);
responses are JSON-ready dicts.  Raising is the error channel:

=============================================  =========================
:class:`RequestError`                          HTTP 400 (bad payload)
:class:`~repro.server.sessions.SessionNotFoundError`      HTTP 404
:class:`~repro.engine.faults.QueryTimeoutError`           HTTP 408
:class:`~repro.server.admission.QueueFullError`           HTTP 429
:class:`~repro.server.admission.ServiceUnavailableError`  HTTP 503
=============================================  =========================

Graceful shutdown (:meth:`QueryService.shutdown`) stops admitting, drains
in-flight executions (bounded), then closes the database's worker pools —
composing PR 9's close semantics: a drain that expires surfaces as the
pools' typed :class:`~repro.engine.faults.PoolClosedError` to whichever
execution outlived it, never a hang.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Dict, Optional, Tuple

from repro.engine.engine import QueryEngine
from repro.engine.faults import PoolClosedError, QueryTimeoutError
from repro.engine.pool import available_workers
from repro.engine.results import ExecutionResult
from repro.server.admission import (
    AdmissionController,
    QueueFullError,
    ServiceUnavailableError,
)
from repro.server.sessions import SessionManager, SessionNotFoundError
from repro.storage.database import SCOPED_COUNTERS, Database

__all__ = ["QueryService", "RequestError"]

#: Execution parameters a request payload may set, with coercions.
_ALLOWED_PARAMETERS = (
    "algorithm",
    "timeout",
    "parallel",
    "compile",
    "cache_capacity",
)

#: Hard cap on rows returned by /evaluate (the service is a demonstrator,
#: not a bulk-export channel); requests may lower it via ``max_rows``.
MAX_RESPONSE_ROWS = 10_000


class RequestError(ValueError):
    """A malformed request payload (HTTP 400)."""


def _coerce_bool(name: str, value: object) -> bool:
    if isinstance(value, bool):
        return value
    raise RequestError(f"parameter {name!r} must be a boolean")


def _coerce_parallel(value: object) -> object:
    if value is True or value is False:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value == 0:
            return True  # CLI convention: 0 = automatic worker count
        if value < 0:
            raise RequestError("parameter 'parallel' must be >= 0 or a boolean")
        # Clamp, don't reject: every distinct size is a pool of forked
        # workers the database keeps until shutdown, so a client may not
        # ask for more workers than there are cores.
        return min(value, available_workers())
    raise RequestError("parameter 'parallel' must be an integer or boolean")


class QueryService:
    """Serve count/evaluate/prepare/explain over one shared database."""

    def __init__(
        self,
        database: Database,
        max_concurrency: int = 4,
        max_queue: int = 16,
        queue_timeout: float = 2.0,
        session_ttl: float = 300.0,
        max_sessions: int = 256,
        default_timeout: Optional[float] = None,
        max_timeout: float = 60.0,
    ) -> None:
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if max_timeout <= 0:
            raise ValueError("max_timeout must be positive")
        self.database = database
        self.engine = QueryEngine(database)
        self.sessions = SessionManager(
            ttl_seconds=session_ttl, max_sessions=max_sessions
        )
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            queue_timeout=queue_timeout,
        )
        self.default_timeout = default_timeout
        self.max_timeout = float(max_timeout)
        self.started_at = time.monotonic()
        self._draining = False
        #: Aggregated per-request build metadata (the /metrics side of the
        #: reconciliation invariant) plus request/latency totals, all under
        #: one stats lock.
        self._stats_lock = threading.Lock()
        self._query_metadata_totals: Dict[str, int] = {
            name: 0 for name in SCOPED_COUNTERS
        }
        self._requests_total: Dict[Tuple[str, int], int] = {}
        self._queries_total = 0
        self._query_seconds_total = 0.0
        self._rows_returned_total = 0

    # ----------------------------------------------------------- public API
    def count(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /count``: execute and return the count."""
        return self._execute("count", payload)

    def evaluate(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /evaluate``: execute and return (bounded) rows."""
        return self._execute("evaluate", payload)

    def prepare(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /prepare``: bind a warm prepared handle into a session.

        Creates a session when no token is presented; returns the token so
        the client can pin follow-up requests to its warm caches.
        """
        query_text, parameters = self._parse(payload)
        session = self.sessions.resolve(self._token(payload))
        fingerprint = self._fingerprint(query_text, parameters)
        with self.admission.admit(timeout=self._admit_timeout(payload)):
            self._check_draining()
            handle = session.prepared_handle(
                fingerprint,
                lambda: self._prepare_handle(query_text, parameters),
            )
        self._record_request("prepare", 200)
        return {
            "session": session.token,
            "fingerprint": fingerprint,
            "algorithm": handle.algorithm,
            "requested_algorithm": handle.requested_algorithm,
            "executions": handle.executions,
            "session_state": session.describe(),
        }

    def explain(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /explain``: the engine's plan/selector/cache explanation."""
        query_text, parameters = self._parse(payload)
        token = self._token(payload)
        session = self.sessions.get(token) if token else None
        with self.admission.admit(timeout=self._admit_timeout(payload)):
            self._check_draining()
            query = self._resolve_query(query_text)
            algorithm = parameters.pop("algorithm", "auto")
            explanation = self.engine.explain(query, algorithm=algorithm, **parameters)
        self._record_request("explain", 200)
        response: Dict[str, object] = {"explanation": explanation}
        if session is not None:
            response["session"] = session.token
        return response

    def healthz(self) -> Tuple[bool, Dict[str, object]]:
        """Liveness: healthy unless draining.  Returns (ok, body)."""
        ok = not self._draining
        return ok, {
            "status": "ok" if ok else "draining",
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "active_executions": self.admission.active,
        }

    # ------------------------------------------------------------- execution
    def _execute(self, mode: str, payload: Dict[str, object]) -> Dict[str, object]:
        query_text, parameters = self._parse(payload)
        token = self._token(payload)
        session = self.sessions.get(token) if token else None
        max_rows = self._max_rows(payload)
        started = time.perf_counter()
        with self.admission.admit(timeout=self._admit_timeout(payload)):
            self._check_draining()
            self._check_memory_pressure()
            try:
                if session is not None:
                    fingerprint = self._fingerprint(query_text, parameters)
                    handle = session.prepared_handle(
                        fingerprint,
                        lambda: self._prepare_handle(query_text, parameters),
                    )
                    result = (
                        handle.count()
                        if mode == "count"
                        else handle.evaluate(limit=max_rows)
                    )
                else:
                    query = self._resolve_query(query_text)
                    algorithm = parameters.pop("algorithm", "clftj")
                    parameters.setdefault("timeout", self.default_timeout)
                    if parameters.get("timeout") is None:
                        parameters.pop("timeout")
                    if mode == "count":
                        result = self.engine.count(query, algorithm=algorithm, **parameters)
                    else:
                        # only the rows the response carries are computed
                        result = self.engine.evaluate(
                            query, algorithm=algorithm, limit=max_rows, **parameters
                        )
            except QueryTimeoutError:
                self._record_request(mode, 408)
                raise
            except PoolClosedError:
                self._record_request(mode, 503)
                raise ServiceUnavailableError(
                    "worker pools closed mid-query during shutdown; retry "
                    "against the next instance"
                ) from None
        elapsed = time.perf_counter() - started
        # Rendered before it is counted: a value ``json.dumps`` refuses
        # fails the page, and the request is then the HTTP layer's 500.
        response = self._render_result(result, mode, max_rows)
        self._aggregate(result, elapsed)
        self._record_request(mode, 200)
        if session is not None:
            response["session"] = session.token
        return response

    def _prepare_handle(self, query_text: str, parameters: Dict[str, object]):
        parameters = dict(parameters)
        query = self._resolve_query(query_text)
        algorithm = parameters.pop("algorithm", "clftj")
        parameters.setdefault("timeout", self.default_timeout)
        if parameters.get("timeout") is None:
            parameters.pop("timeout")
        return self.engine.prepare(query, algorithm=algorithm, **parameters)

    def _resolve_query(self, query_text: str):
        # Local import: repro.cli imports this package for `repro serve`.
        from repro.cli import resolve_query

        try:
            return resolve_query(query_text)
        except RequestError:
            raise
        except ValueError as error:
            raise RequestError(f"unparseable query {query_text!r}: {error}") from None

    # -------------------------------------------------------------- shutdown
    def shutdown(self, drain_timeout: float = 10.0) -> Dict[str, object]:
        """Graceful stop: refuse new work, drain in-flight, close pools.

        Returns a summary of what happened; never raises and never hangs —
        an execution that outlives ``drain_timeout`` is abandoned through
        the pools' typed close path (:class:`PoolClosedError` surfaces on
        *its* thread, not here).
        """
        self._draining = True
        self.admission.shutdown()
        drained = self.admission.drain(timeout=drain_timeout)
        pools_closed = self.database.close_pools(
            drain_timeout=max(0.1, drain_timeout / 2)
        )
        return {
            "drained": drained,
            "pools_closed": pools_closed,
            "abandoned_executions": 0 if drained else self.admission.active,
        }

    @property
    def draining(self) -> bool:
        return self._draining

    def _check_draining(self) -> None:
        if self._draining:
            raise ServiceUnavailableError(
                "service is shutting down; not admitting new queries"
            )

    def _check_memory_pressure(self) -> None:
        """Shed load (503) while memory-budget degradation is active.

        A budgeted database over its footprint is already giving up caches;
        piling more concurrent queries on top defeats the recovery, so the
        service answers 503 + Retry-After until the footprint is back under
        budget.
        """
        budget = self.database.memory_budget_bytes
        if budget is None:
            return
        footprint = self.database.memory_footprint()
        if footprint > budget:
            raise ServiceUnavailableError(
                f"memory budget degradation active (footprint {footprint} > "
                f"budget {budget} bytes); retry shortly",
                retry_after=1.0,
            )

    # -------------------------------------------------------------- payloads
    def _parse(self, payload: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        query_text = payload.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise RequestError("request needs a non-empty 'query' string")
        parameters: Dict[str, object] = {}
        for name in _ALLOWED_PARAMETERS:
            if name not in payload or payload[name] is None:
                continue
            value = payload[name]
            if name == "algorithm":
                if not isinstance(value, str):
                    raise RequestError("parameter 'algorithm' must be a string")
                parameters[name] = value
            elif name == "timeout":
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise RequestError("parameter 'timeout' must be a number")
                timeout = float(value)
                if timeout <= 0:
                    raise RequestError("parameter 'timeout' must be positive")
                # Clamp, don't reject: the service owns its worst case.
                parameters[name] = min(timeout, self.max_timeout)
            elif name == "parallel":
                parameters[name] = _coerce_parallel(value)
            elif name == "compile":
                parameters[name] = _coerce_bool(name, value)
            elif name == "cache_capacity":
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise RequestError(
                        "parameter 'cache_capacity' must be a non-negative integer"
                    )
                parameters[name] = value
        unknown = (
            set(payload)
            - set(_ALLOWED_PARAMETERS)
            - {"query", "session", "max_rows", "admit_timeout"}
        )
        if unknown:
            raise RequestError(
                f"unknown request parameters: {', '.join(sorted(unknown))}"
            )
        return query_text, parameters

    def _token(self, payload: Dict[str, object]) -> Optional[str]:
        token = payload.get("session")
        if token is None:
            return None
        if not isinstance(token, str):
            raise RequestError("parameter 'session' must be a string token")
        return token

    def _max_rows(self, payload: Dict[str, object]) -> int:
        value = payload.get("max_rows")
        if value is None:
            return MAX_RESPONSE_ROWS
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise RequestError("parameter 'max_rows' must be a non-negative integer")
        return min(value, MAX_RESPONSE_ROWS)

    def _admit_timeout(self, payload: Dict[str, object]) -> Optional[float]:
        value = payload.get("admit_timeout")
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise RequestError("parameter 'admit_timeout' must be a non-negative number")
        return min(float(value), self.max_timeout)

    @staticmethod
    def _fingerprint(query_text: str, parameters: Dict[str, object]) -> str:
        canonical = json.dumps(
            {"query": query_text.strip(), "parameters": parameters},
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------- rendering
    def _render_result(
        self, result: ExecutionResult, mode: str, max_rows: int
    ) -> Dict[str, object]:
        # Write the rows first: writing them updates ``result.metadata``
        # (``decodes``, ``decode_seconds``), and only the ``max_rows`` that
        # are returned are written.
        page = result.page(max_rows) if mode == "evaluate" else None
        metadata = {
            key: value if isinstance(value, (int, float, str, bool, list)) else str(value)
            for key, value in result.metadata.items()
        }
        response: Dict[str, object] = {
            "algorithm": result.algorithm,
            "query": result.query_name,
            "count": result.count,
            "elapsed_seconds": result.elapsed_seconds,
            "metadata": metadata,
        }
        if page is not None:
            # a RowPage: the HTTP layer splices its JSON text in as it is,
            # and a library caller reads it as the decoded tuples
            response["rows"] = page
            response["rows_truncated"] = result.count > max_rows
            with self._stats_lock:
                self._rows_returned_total += len(page)
        return response

    # ------------------------------------------------------------- accounting
    def _aggregate(self, result: ExecutionResult, elapsed: float) -> None:
        with self._stats_lock:
            self._queries_total += 1
            self._query_seconds_total += elapsed
            for name in SCOPED_COUNTERS:
                value = result.metadata.get(name)
                if isinstance(value, int):
                    self._query_metadata_totals[name] += value

    def _record_request(self, endpoint: str, status: int) -> None:
        with self._stats_lock:
            key = (endpoint, status)
            self._requests_total[key] = self._requests_total.get(key, 0) + 1

    def record_http_outcome(self, endpoint: str, status: int) -> None:
        """Hook for the HTTP layer to record non-200 outcomes it produced
        (shed requests never reach the execution accounting above)."""
        self._record_request(endpoint, status)

    def stats(self) -> Dict[str, object]:
        """One coherent snapshot for /metrics (all locks taken briefly)."""
        with self._stats_lock:
            query_metadata = dict(self._query_metadata_totals)
            requests = dict(self._requests_total)
            queries_total = self._queries_total
            query_seconds = self._query_seconds_total
            rows_returned = self._rows_returned_total
        return {
            "queries_total": queries_total,
            "query_seconds_total": query_seconds,
            "rows_returned_total": rows_returned,
            "query_metadata_totals": query_metadata,
            "requests_total": requests,
            "admission": self.admission.stats(),
            "sessions": self.sessions.stats(),
            "draining": self._draining,
            "uptime_seconds": time.monotonic() - self.started_at,
        }
