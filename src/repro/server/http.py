"""The stdlib HTTP front-end: a thin shell around QueryService.

No framework, no new dependency.  A :class:`socketserver.TCPServer` accepts
connections on its serve loop and hands each one to a bounded set of
persistent daemon handler threads: at most ``max_concurrency + max_queue +
1`` of them, a new one spawned only when none is idle.  The spare thread is
what still answers 429, ``/healthz`` and ``/metrics`` when every admission
slot and queue place is taken; a connection that arrives while all threads
are busy waits for the next one to finish.  All real concurrency control
lives in the service's admission controller — the HTTP layer only
translates.

A handler reads the request line, the headers and the body in one pass over
the connection, writes the status line, headers and body with one
``sendall`` and closes: HTTP/1.0, one request per connection.  Every read
waits at most :data:`READ_DEADLINE_SECONDS`, so an idle client can neither
pin a handler nor hold up process exit.  The stdlib handler's guards are
kept: a request line over 64 KiB is 414, a header line over 64 KiB or more
than 100 headers is 431, a malformed request line is 400 and a method other
than GET or POST is 501.

Routes (JSON bodies in, JSON out unless noted):

==========================  =================================================
``POST /count``             execute, return the count + per-request metadata
``POST /evaluate``          execute, return (bounded) rows + metadata
``POST /prepare``           bind a warm prepared handle into a session
``POST /explain``           the engine's plan / selector / cache explanation
``GET /metrics``            Prometheus text exposition (0.0.4)
``GET /healthz``            200 while serving, 503 while draining
==========================  =================================================

The session token travels in the ``X-Repro-Session`` header (any case) or a
``session`` body field (the header wins).  Error mapping is the service's
documented table; 429/503 responses carry ``Retry-After``.
"""

from __future__ import annotations

import json
import queue
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Dict, NamedTuple, Optional, Tuple

from repro.engine.faults import QueryTimeoutError
from repro.engine.results import RowPage
from repro.server.admission import QueueFullError, ServiceUnavailableError
from repro.server.metrics import render_metrics
from repro.server.service import QueryService, RequestError
from repro.server.sessions import SessionNotFoundError

__all__ = ["QueryHTTPServer", "create_server", "serve"]

#: Refuse request bodies beyond this size (a service guard, not a limit a
#: legitimate query needs: query text is short).
MAX_BODY_BYTES = 1 << 20

#: The longest any one read on a connection may wait (seconds).  Clients
#: send a request the moment they connect, so only a stalled or idle client
#: ever waits this long; it then loses its connection and frees the handler.
READ_DEADLINE_SECONDS = 10.0

#: The stdlib's bounds: a request line or header line of at most 64 KiB, at
#: most 100 header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: How long a refused request's unread remainder is drained before closing,
#: so the refusal reaches the client instead of a reset.
_DRAIN_SECONDS = 1.0

_POST_ROUTES = ("count", "evaluate", "prepare", "explain")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_JSON = "application/json"

#: One response: status, body, content type, extra headers.
_Response = Tuple[int, bytes, str, Optional[Dict[str, str]]]


class _Request(NamedTuple):
    method: str
    target: str
    #: The ``X-Repro-Session`` header, matched in any case.
    session: Optional[str]
    #: The declared ``Content-Length``.
    length: int
    #: ``None`` when ``length`` exceeds :data:`MAX_BODY_BYTES`: left unread,
    #: the route refuses it.
    body: Optional[bytes]


class _Refused(Exception):
    """A request answered with ``status`` before it was read in full."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class QueryHTTPServer(socketserver.TCPServer):
    """A TCP server whose connections run on persistent handler threads."""

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: QueryService) -> None:
        super().__init__(address, None)
        self.service = service
        admission = service.admission
        #: Enough threads for every admission slot and queue place, plus
        #: one spare that answers at saturation.
        self.max_handlers = admission.max_concurrency + admission.max_queue + 1
        self._connections: "queue.SimpleQueue" = queue.SimpleQueue()
        self._handlers_lock = threading.Lock()
        #: Handler threads started and not yet retired.
        self._handlers = 0
        #: Handler threads waiting with no connection claimed for them,
        #: less the connections waiting for a handler (at the bound).
        self._idle = 0

    # ------------------------------------------------------------- lifecycle
    def shutdown_gracefully(self, drain_timeout: float = 10.0) -> Dict[str, object]:
        """Stop accepting, drain the service, stop the serve loop.

        Safe to call from a signal handler's deferred path or another
        thread; idempotence is inherited from the service and pools.
        """
        summary = self.service.shutdown(drain_timeout=drain_timeout)
        # shutdown() must not be called from the serve_forever thread;
        # callers invoke this from a signal-triggered worker thread.
        self.shutdown()
        return summary

    def server_close(self) -> None:
        """Close the listening socket and retire every handler thread.

        Idle handlers leave at once; one still reading from a client leaves
        after its request or its read deadline.  Nothing here waits for
        them: they are daemon threads.
        """
        super().server_close()
        with self._handlers_lock:
            handlers, self._handlers = self._handlers, 0
        for _ in range(handlers):
            self._connections.put(None)

    # ------------------------------------------------------------ dispatching
    def process_request(self, request: socket.socket, client_address) -> None:
        """Hand the connection to an idle handler, or to a new one while
        under the bound, else queue it for the next handler to finish."""
        with self._handlers_lock:
            if self._idle > 0 or self._handlers >= self.max_handlers:
                self._idle -= 1
            else:
                threading.Thread(
                    target=self._handler_loop,
                    name=f"repro-http-{self._handlers}",
                    daemon=True,
                ).start()
                self._handlers += 1
        self._connections.put(request)

    def _handler_loop(self) -> None:
        while True:
            connection = self._connections.get()
            if connection is None:
                return
            try:
                self._handle(connection)
            except Exception:  # noqa: BLE001 - a handler thread must survive
                self.handle_error(connection, None)
            finally:
                self.shutdown_request(connection)
            with self._handlers_lock:
                self._idle += 1

    def _handle(self, connection: socket.socket) -> None:
        connection.settimeout(READ_DEADLINE_SECONDS)
        rfile = connection.makefile("rb")
        try:
            try:
                request = _read_request(rfile)
            except _Refused as refusal:
                connection.sendall(
                    _encode(refusal.status, _json({"error": str(refusal)}), _JSON)
                )
                _drain(connection)
                return
            if request is None:  # connected and left without a request
                return
            if request.method == "GET":
                response = self._get(request.target)
            else:
                response = self._post(request)
            connection.sendall(_encode(*response))
            if request.body is None:  # a refused oversized body is still arriving
                _drain(connection)
        except OSError:
            pass  # the client went away or stalled past the read deadline
        finally:
            rfile.close()

    # ----------------------------------------------------------------- routes
    def _get(self, target: str) -> _Response:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = render_metrics(self.service).encode("utf-8")
            return 200, body, "text/plain; version=0.0.4; charset=utf-8", None
        if path == "/healthz":
            ok, payload = self.service.healthz()
            return 200 if ok else 503, _json(payload), _JSON, None
        return _error(404, f"unknown path {target!r}")

    def _post(self, request: _Request) -> _Response:
        endpoint = request.target.split("?", 1)[0].strip("/")
        if endpoint not in _POST_ROUTES:
            return _error(404, f"unknown path {request.target!r}")
        service = self.service
        try:
            payload = _parse_json(request)
            if request.session:
                payload["session"] = request.session
            response = getattr(service, endpoint)(payload)
        except RequestError as error:
            service.record_http_outcome(endpoint, 400)
            return _error(400, str(error))
        except SessionNotFoundError as error:
            service.record_http_outcome(endpoint, 404)
            return _error(404, str(error))
        except QueryTimeoutError as error:
            # the service recorded the 408 itself (it owns the timing)
            return _error(408, str(error))
        except QueueFullError as error:
            service.record_http_outcome(endpoint, 429)
            return _shed(429, error)
        except ServiceUnavailableError as error:
            service.record_http_outcome(endpoint, 503)
            return _shed(503, error)
        except ValueError as error:
            # Engine-level parameter rejections (reject_unused etc.).
            service.record_http_outcome(endpoint, 400)
            return _error(400, str(error))
        except Exception as error:  # noqa: BLE001 - last-resort 500
            service.record_http_outcome(endpoint, 500)
            return _error(500, f"internal error: {type(error).__name__}: {error}")
        return 200, _json(response), _JSON, None


# --------------------------------------------------------------------------
# Reading a request and writing a response.
# --------------------------------------------------------------------------


def _read_request(rfile) -> Optional[_Request]:
    """The request line, headers and body, read in one pass.

    ``None`` when the client closed before sending anything.  Raises
    :class:`_Refused` for what the stdlib handler refuses.
    """
    line = rfile.readline(_MAX_LINE + 1)
    if not line:
        return None
    if len(line) > _MAX_LINE:
        raise _Refused(414, "request line too long")
    words = line.decode("iso-8859-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise _Refused(400, f"bad request line {line.rstrip()!r}")
    method, target, _version = words
    if method not in ("GET", "POST"):
        raise _Refused(501, f"unsupported method {method!r}")
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(431, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon:
            raise _Refused(400, f"malformed header line {line.rstrip()!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    else:
        raise _Refused(431, f"more than {_MAX_HEADERS} headers")
    length_text = headers.get("content-length") or "0"
    if not length_text.isdecimal():
        raise _Refused(400, f"invalid Content-Length {length_text!r}")
    length = int(length_text)
    body = None if length > MAX_BODY_BYTES else rfile.read(length)
    return _Request(method, target, headers.get("x-repro-session"), length, body)


def _parse_json(request: _Request) -> Dict[str, object]:
    body = request.body
    if body is None:
        raise RequestError(
            f"request body too large ({request.length} > {MAX_BODY_BYTES} bytes)"
        )
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RequestError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    return payload


def _json(payload: Dict[str, object]) -> bytes:
    """``json.dumps(payload)``, a :class:`RowPage` member spliced in as its
    own text: the same bytes ``json.dumps`` writes for the decoded rows."""
    rows = payload.get("rows")
    if not isinstance(rows, RowPage):
        return json.dumps(payload).encode("utf-8")
    members = ", ".join(
        f"{json.dumps(key)}: {rows.json if value is rows else json.dumps(value)}"
        for key, value in payload.items()
    )
    return ("{" + members + "}").encode("utf-8")


def _error(status: int, message: str) -> _Response:
    return status, _json({"error": message}), _JSON, None


def _shed(status: int, error) -> _Response:
    body = _json({"error": str(error), "retry_after": error.retry_after})
    return status, body, _JSON, {"Retry-After": _retry_after(error.retry_after)}


def _encode(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Status line, headers and body as the one buffer ``sendall`` writes."""
    head = (
        f"HTTP/1.0 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
    )
    for key, value in (extra_headers or {}).items():
        head += f"{key}: {value}\r\n"
    return (head + "\r\n").encode("iso-8859-1") + body


def _drain(connection: socket.socket) -> None:
    """Half-close, then read what the client still sends until it closes
    (at most :data:`_DRAIN_SECONDS`): closing a socket with unread input
    resets the connection, and a reset can discard the refusal."""
    connection.shutdown(socket.SHUT_WR)
    end = time.monotonic() + _DRAIN_SECONDS
    while time.monotonic() < end:
        connection.settimeout(max(0.0, end - time.monotonic()))
        if not connection.recv(65536):
            return


def _retry_after(seconds: float) -> str:
    """Retry-After wants integer seconds; round up so 0.3 isn't 'now'."""
    return str(max(1, int(seconds + 0.999)))


def create_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 8707
) -> QueryHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks a free one."""
    return QueryHTTPServer((host, port), service)


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8707,
    ready_callback=None,
) -> QueryHTTPServer:
    """Start a server on a daemon thread; returns it once accepting.

    The caller owns shutdown (``server.shutdown_gracefully()``).  Used by
    tests and embedders; the CLI runs the blocking loop itself.
    """
    server = create_server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    # serve_forever polls; the socket is accepting as soon as it is bound
    # (which __init__ already did), so a probe is enough to be deterministic.
    with socket.create_connection(server.server_address, timeout=5):
        pass
    if ready_callback is not None:
        ready_callback(server)
    return server
