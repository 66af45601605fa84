"""The query service layer: sessions, admission, HTTP front-end, shutdown.

Five suites plus the acceptance test:

* **Sessions** — token minting, TTL/LRU eviction, shared warm handles;
* **Admission** — the concurrency bound, bounded queue, typed shedding,
  drain, shutdown;
* **Service** — transport-free request handling: correctness against the
  brute-force oracle, payload validation, timeout clamping, warm prepared
  handles, memory-pressure shedding, graceful shutdown;
* **HTTP** — the stdlib front-end: routes, error mapping (400/404/408/
  429/503 + Retry-After), session header, /metrics and /healthz;
* **Front-end** — the handler pool's own HTTP: the stdlib handler's
  guards, one-pass parsing, the thread bound and the read deadline; and
  the CLI, including a ``kill -9`` that leaves the port free;
* **Acceptance** — 8 concurrent clients x 50 requests over one warm
  database return results identical to the serial oracle, report zero
  misattributed cache-delta metadata, and /metrics totals reconcile
  exactly with the summed per-request metadata.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.engine.faults import QueryTimeoutError
from repro.engine.pool import available_workers
from repro.server import http as http_module
from repro.server.admission import (
    AdmissionController,
    QueueFullError,
    ServiceUnavailableError,
)
from repro.server.http import MAX_BODY_BYTES, serve
from repro.server.metrics import render_metrics
from repro.server.service import QueryService, RequestError
from repro.server.sessions import SessionManager, SessionNotFoundError
from repro.storage.database import SCOPED_COUNTERS
from repro.query.patterns import cycle_query, path_query

from tests.conftest import (
    brute_force_count,
    brute_force_evaluate,
    process_running,
    random_edge_database,
)

BUILD_COUNTERS = ("index_builds", "plan_builds", "compiled_builds")


# ---------------------------------------------------------------------------
# HTTP plumbing helpers (stdlib-only, mirror what real clients do).
# ---------------------------------------------------------------------------


def _post(base: str, path: str, payload: dict, headers: dict = None):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, json.loads(body) if body else {}, dict(error.headers)


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _raw(address, *chunks: bytes, pause: float = 0.0):
    """Send ``chunks`` on one connection, each its own TCP segment (Nagle
    off, ``pause`` seconds apart); returns ``(status, headers, body)``."""
    with socket.create_connection(address, timeout=30) as connection:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            connection.sendall(chunk)
            time.sleep(pause)
        received = bytearray()
        while True:
            data = connection.recv(65536)
            if not data:
                break
            received += data
    head, _, body = bytes(received).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("iso-8859-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


def _post_request(path: str, body: bytes, headers: str = "") -> bytes:
    return (
        f"POST {path} HTTP/1.0\r\nContent-Length: {len(body)}\r\n{headers}\r\n"
    ).encode("iso-8859-1") + body


def _boot_cli(dataset: str, *flags: str) -> "tuple[subprocess.Popen, str]":
    """``repro serve`` in a subprocess; returns it and its base URL."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", dataset, *flags],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert "serving" in banner and "http://" in banner, banner
    return process, "http://" + banner.split("http://", 1)[1].split(" ", 1)[0]


@pytest.fixture
def service():
    svc = QueryService(
        random_edge_database(),
        max_concurrency=8,
        max_queue=64,
        queue_timeout=30.0,
    )
    yield svc
    if not svc.draining:
        svc.shutdown(drain_timeout=5.0)


@pytest.fixture
def http_server(service):
    server = serve(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}", server
    server.shutdown()
    server.server_close()


# ---------------------------------------------------------------------------
# Sessions.
# ---------------------------------------------------------------------------


class TestSessions:
    def test_tokens_are_unique_and_resolvable(self):
        manager = SessionManager(ttl_seconds=60)
        first, second = manager.create(), manager.create()
        assert first.token != second.token
        assert manager.get(first.token) is first
        assert manager.stats()["active"] == 2

    def test_unknown_token_raises_typed_error(self):
        manager = SessionManager(ttl_seconds=60)
        with pytest.raises(SessionNotFoundError):
            manager.get("deadbeef" * 4)

    def test_ttl_eviction(self, monkeypatch):
        manager = SessionManager(ttl_seconds=10)
        session = manager.create()
        base = time.monotonic()
        monkeypatch.setattr(time, "monotonic", lambda: base + 11.0)
        with pytest.raises(SessionNotFoundError):
            manager.get(session.token)
        assert manager.stats()["active"] == 0
        assert manager.evicted_total == 1

    def test_lru_bound_evicts_oldest(self):
        manager = SessionManager(ttl_seconds=60, max_sessions=2)
        first = manager.create()
        second = manager.create()
        manager.get(first.token)  # touch: first is now more recent
        third = manager.create()  # evicts second (least recently used)
        assert manager.get(first.token) is first
        assert manager.get(third.token) is third
        with pytest.raises(SessionNotFoundError):
            manager.get(second.token)

    def test_prepared_handle_shared_under_races(self):
        manager = SessionManager(ttl_seconds=60)
        session = manager.create()
        built = []

        def factory():
            built.append(object())
            time.sleep(0.01)
            return built[-1]

        handles = []
        threads = [
            threading.Thread(
                target=lambda: handles.append(
                    session.prepared_handle("fp", factory)
                )
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(built) == 1
        assert all(handle is built[0] for handle in handles)


# ---------------------------------------------------------------------------
# Admission control.
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_bounds_concurrency(self):
        controller = AdmissionController(max_concurrency=2, max_queue=8, queue_timeout=5)
        peak = []
        lock = threading.Lock()
        active = [0]

        def work():
            with controller.admit():
                with lock:
                    active[0] += 1
                    peak.append(active[0])
                time.sleep(0.02)
                with lock:
                    active[0] -= 1

        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert max(peak) <= 2
        assert controller.admitted_total == 6

    def test_queue_full_sheds_with_retry_after(self):
        controller = AdmissionController(max_concurrency=1, max_queue=0, queue_timeout=1)
        with controller.admit():
            with pytest.raises(QueueFullError) as info:
                with controller.admit():
                    pass  # pragma: no cover - never admitted
        assert info.value.retry_after > 0
        assert controller.rejected_queue_full_total == 1

    def test_wait_timeout_sheds(self):
        controller = AdmissionController(
            max_concurrency=1, max_queue=4, queue_timeout=0.05
        )
        with controller.admit():
            started = time.monotonic()
            with pytest.raises(QueueFullError, match="timed out"):
                with controller.admit():
                    pass  # pragma: no cover
            assert time.monotonic() - started < 2.0
        assert controller.rejected_timeout_total == 1

    def test_shutdown_rejects_and_wakes_waiters(self):
        controller = AdmissionController(max_concurrency=1, max_queue=4, queue_timeout=30)
        release = threading.Event()
        errors = []

        def holder():
            with controller.admit():
                release.wait(timeout=30)

        def waiter():
            try:
                with controller.admit():
                    pass  # pragma: no cover
            except (QueueFullError, ServiceUnavailableError) as error:
                errors.append(error)

        hold = threading.Thread(target=holder)
        hold.start()
        time.sleep(0.02)
        wait = threading.Thread(target=waiter)
        wait.start()
        time.sleep(0.02)
        controller.shutdown()
        wait.join(timeout=10)
        assert not wait.is_alive(), "shutdown must wake queued waiters"
        release.set()
        hold.join(timeout=10)
        assert len(errors) == 1
        assert isinstance(errors[0], ServiceUnavailableError)
        with pytest.raises(ServiceUnavailableError):
            with controller.admit():
                pass  # pragma: no cover

    def test_drain_waits_for_active(self):
        controller = AdmissionController(max_concurrency=2, max_queue=2, queue_timeout=5)
        release = threading.Event()

        def holder():
            with controller.admit():
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.02)
        assert controller.drain(timeout=0.05) is False
        release.set()
        assert controller.drain(timeout=10) is True
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# The transport-free service.
# ---------------------------------------------------------------------------


class TestService:
    def test_count_matches_oracle(self, service):
        expected = brute_force_count(cycle_query(3), service.database)
        response = service.count({"query": "3-cycle"})
        assert response["count"] == expected
        assert response["algorithm"] == "clftj"
        assert "metadata" in response

    def test_evaluate_rows_match_oracle(self, service):
        query = path_query(3)
        expected = brute_force_evaluate(query, service.database)
        response = service.evaluate({"query": "3-path", "algorithm": "lftj"})
        assert response["count"] == len(expected)
        assert {tuple(row) for row in response["rows"]} == expected
        assert response["rows_truncated"] is False

    def test_evaluate_returns_the_decoded_rows_without_a_copy(self, service):
        response = service.evaluate({"query": "3-path", "algorithm": "lftj", "max_rows": 7})
        oracle = service.engine.evaluate(path_query(3), algorithm="lftj")
        assert response["rows"] == oracle.rows[:7]
        assert all(type(row) is tuple for row in response["rows"])

    def test_evaluate_truncates_rows(self, service):
        response = service.evaluate({"query": "3-path", "max_rows": 5})
        assert len(response["rows"]) == 5
        assert response["rows_truncated"] is True
        assert response["count"] > 5  # the count stays exact

    def test_evaluate_decodes_only_the_rows_it_returns(self, service):
        dictionary = service.database.dictionary
        full = service.evaluate({"query": "3-path", "algorithm": "lftj"})
        width = len(full["rows"][0])
        assert full["count"] > 10
        assert full["metadata"]["decodes"] == dictionary.decodes == full["count"] * width
        before = dictionary.decodes
        response = service.evaluate({"query": "3-path", "algorithm": "lftj", "max_rows": 10})
        # The response reports the decode work it caused (it said 0: the
        # metadata was copied before the rows were read) and that work is
        # the ten rows returned, not the whole result.
        assert dictionary.decodes - before == response["metadata"]["decodes"] == 10 * width
        assert response["metadata"]["decode_seconds"] > 0.0
        assert response["rows"] == full["rows"][:10]
        assert (response["rows_truncated"], response["count"]) == (True, full["count"])
        exact = service.evaluate({"query": "3-path", "max_rows": full["count"]})
        assert exact["rows_truncated"] is False and len(exact["rows"]) == full["count"]
        assert service.evaluate({"query": "3-path", "max_rows": 0})["rows"] == []

    @pytest.mark.parametrize("algorithm", ["lftj", "clftj"])
    def test_evaluate_under_max_rows_answers_as_a_full_evaluation_would(self, service, algorithm):
        """``max_rows`` reaches the engine as ``limit``: a compiled driver
        stops at the rows the response keeps.  The response is the one a
        full evaluation cut at ``max_rows`` renders, timing aside, on the
        query-text path and through a session."""
        timing = ("elapsed_seconds", "decode_seconds")

        def untimed(response):
            body = {key: value for key, value in response.items()
                    if key not in timing and key != "session"}
            body["metadata"] = {key: value for key, value in response["metadata"].items()
                                if key not in timing + ("prepared_executions",)}
            return body

        query = {"query": "3-path", "algorithm": algorithm}
        count = service.evaluate(dict(query, max_rows=0))["count"]  # warms every cache
        token = service.prepare(query)["session"]
        for max_rows in (0, 1, count // 2, count - 1, count, count + 1):
            full = service.engine.evaluate(
                path_query(3), algorithm=algorithm, timeout=service.default_timeout
            )
            before = untimed(service._render_result(full, "evaluate", max_rows))
            response = service.evaluate(dict(query, max_rows=max_rows))
            assert untimed(response) == before, max_rows
            assert response["rows_truncated"] is (max_rows < count)
            assert len(response["rows"]) == min(max_rows, count)
            session = service.evaluate(dict(query, max_rows=max_rows, session=token))
            for key in ("rows", "count", "rows_truncated"):
                assert session[key] == before[key], (max_rows, key)

    def test_bad_payloads_raise_request_error(self, service):
        for payload in (
            {},
            {"query": ""},
            {"query": 7},
            {"query": "3-cycle", "timeout": "fast"},
            {"query": "3-cycle", "timeout": -1},
            {"query": "3-cycle", "parallel": -2},
            {"query": "3-cycle", "cache_capacity": -1},
            {"query": "3-cycle", "surprise": True},
            {"query": "totally unparseable ~~~"},
        ):
            with pytest.raises(RequestError):
                service.count(payload)

    def test_engine_parameter_rejections_surface(self, service):
        # reject_unused: pairwise does not honour timeout.
        with pytest.raises(ValueError, match="does not use"):
            service.count({"query": "3-cycle", "algorithm": "pairwise", "timeout": 5})

    def test_timeout_is_clamped_to_max(self):
        svc = QueryService(random_edge_database(), max_timeout=0.5)
        _, parameters = svc._parse({"query": "3-cycle", "timeout": 10_000})
        assert parameters["timeout"] == 0.5

    def test_expired_timeout_maps_to_query_timeout(self, service):
        with pytest.raises(QueryTimeoutError):
            service.count({"query": "3-cycle", "timeout": 1e-9})
        # and the request ledger recorded the 408
        assert service.stats()["requests_total"][("count", 408)] == 1

    def test_prepare_then_warm_session_runs(self, service):
        prep = service.prepare({"query": "3-cycle", "algorithm": "clftj"})
        token = prep["session"]
        first = service.count({"query": "3-cycle", "algorithm": "clftj", "session": token})
        second = service.count({"query": "3-cycle", "algorithm": "clftj", "session": token})
        assert first["count"] == second["count"]
        for key in BUILD_COUNTERS:
            assert second["metadata"][key] == 0, (key, second["metadata"])
        assert second["metadata"]["prepared_executions"] == 2
        assert service.sessions.stats()["prepared_handles"] == 1

    def test_unknown_session_token_raises(self, service):
        with pytest.raises(SessionNotFoundError):
            service.count({"query": "3-cycle", "session": "no-such-token"})

    def test_memory_pressure_sheds_503(self):
        database = random_edge_database()
        service = QueryService(database)
        service.count({"query": "3-cycle"})  # build caches -> nonzero footprint
        database.memory_budget_bytes = 1  # everything is now over budget
        with pytest.raises(ServiceUnavailableError, match="memory budget"):
            service.count({"query": "3-cycle"})

    def test_graceful_shutdown_drains_and_closes_pools(self, two_cores):
        service = QueryService(random_edge_database(), max_concurrency=2)
        service.count({"query": "3-cycle", "parallel": 2})  # spin up a pool
        summary = service.shutdown(drain_timeout=5.0)
        assert summary["drained"] is True
        assert summary["pools_closed"] == 1
        with pytest.raises(ServiceUnavailableError):
            service.count({"query": "3-cycle"})
        ok, body = service.healthz()
        assert ok is False and body["status"] == "draining"

    def test_metrics_render_parses_as_prometheus_text(self, service):
        service.count({"query": "3-cycle"})
        text = render_metrics(service)
        lines = [line for line in text.splitlines() if line]
        samples = 0
        for line in lines:
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample value must be numeric
            assert name.startswith("repro_")
            samples += 1
        assert samples > 20
        assert "repro_query_index_builds_total" in text
        assert 'repro_requests_total{endpoint="count",status="200"} 1' in text


# ---------------------------------------------------------------------------
# The HTTP front-end.
# ---------------------------------------------------------------------------


class TestHTTP:
    def test_count_roundtrip(self, http_server):
        service, base, _ = http_server
        expected = brute_force_count(cycle_query(3), service.database)
        status, body, _ = _post(base, "/count", {"query": "3-cycle"})
        assert status == 200
        assert body["count"] == expected

    def test_evaluate_body_is_what_lists_of_lists_serialised_to(self, http_server):
        """The service hands ``json.dumps`` the decoded tuples; the bytes on
        the wire are those of the list-of-lists copy it used to make."""
        _, base, _ = http_server
        request = urllib.request.Request(
            base + "/evaluate",
            data=json.dumps({"query": "3-path", "algorithm": "lftj", "max_rows": 50}).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
        body = json.loads(raw)
        assert len(body["rows"]) == 50 and all(type(row) is list for row in body["rows"])
        assert json.dumps(body).encode("utf-8") == raw

    def test_session_header_binds_warm_handle(self, http_server):
        _, base, _ = http_server
        status, prep, _ = _post(base, "/prepare", {"query": "4-path"})
        assert status == 200
        token = prep["session"]
        headers = {"X-Repro-Session": token}
        status, first, _ = _post(base, "/count", {"query": "4-path"}, headers)
        status, second, _ = _post(base, "/count", {"query": "4-path"}, headers)
        assert first["count"] == second["count"]
        assert second["session"] == token
        for key in BUILD_COUNTERS:
            assert second["metadata"][key] == 0

    def test_error_mapping(self, http_server):
        _, base, _ = http_server
        status, body, _ = _post(base, "/count", {"query": ""})
        assert status == 400 and "query" in body["error"]
        status, body, _ = _post(
            base, "/count", {"query": "3-cycle", "parallel": 2, "parallel_mode": "static"}
        )
        assert status == 400 and "parallel_mode" in body["error"]  # removed option
        status, body, _ = _post(base, "/count", {"query": "3-cycle", "timeout": 1e-9})
        assert status == 408 and "timeout" in body["error"]
        status, body, _ = _post(
            base, "/count", {"query": "3-cycle"}, {"X-Repro-Session": "bogus"}
        )
        assert status == 404 and "session" in body["error"]
        status, body, _ = _post(base, "/nonsense", {"query": "3-cycle"})
        assert status == 404

    def test_invalid_json_is_400(self, http_server):
        _, base, _ = http_server
        request = urllib.request.Request(
            base + "/count", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_healthz_and_metrics(self, http_server):
        _, base, _ = http_server
        status, body = _get(base, "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        _post(base, "/count", {"query": "3-cycle"})
        status, text = _get(base, "/metrics")
        assert status == 200
        assert "repro_db_index_builds_total" in text
        assert 'repro_requests_total{endpoint="count",status="200"}' in text

    def test_saturation_returns_429_with_retry_after(self):
        service = QueryService(
            random_edge_database(),
            max_concurrency=1,
            max_queue=0,
            queue_timeout=0.2,
        )
        server = serve(service, port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            # Hold the only execution slot directly, then request over HTTP.
            with service.admission.admit():
                status, body, headers = _post(base, "/count", {"query": "3-cycle"})
                assert status == 429
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert "saturated" in body["error"] or "timed out" in body["error"]
            # Slot free again: the same request succeeds.
            status, body, _ = _post(base, "/count", {"query": "3-cycle"})
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain_timeout=2.0)

    def test_graceful_shutdown_then_503(self, http_server):
        service, base, server = http_server
        _post(base, "/count", {"query": "3-cycle"})
        summary = server.shutdown_gracefully(drain_timeout=5.0)
        assert summary["drained"] is True
        # The serve loop has stopped; the service itself now refuses work.
        with pytest.raises(ServiceUnavailableError):
            service.count({"query": "3-cycle"})


@pytest.fixture(scope="class")
def front_end():
    """One server shared by a class's tests (each would otherwise pay the
    serve loop's shutdown poll)."""
    svc = QueryService(random_edge_database(), max_concurrency=2, max_queue=4)
    server = serve(svc, port=0)
    yield svc, server
    server.shutdown()
    server.server_close()
    svc.shutdown(drain_timeout=5.0)


class TestFrontEnd:
    """The handler pool's own HTTP: guards, parsing, threads, deadlines."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.0\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.0\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
            (b"PUT /count HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 501),
            (b"POST /count HTTP/1.0\r\nContent-Length: -1\r\n\r\n", 400),
        ],
        ids=["malformed", "no-version", "long-line", "101-headers", "put", "negative-length"],
    )
    def test_stdlib_guards(self, front_end, request_bytes, status):
        _, server = front_end
        got, headers, body = _raw(server.server_address, request_bytes)
        assert got == status
        assert headers["content-type"] == "application/json" and json.loads(body)["error"]

    def test_one_hundred_headers_are_accepted(self, front_end):
        _, server = front_end
        request = b"GET /healthz HTTP/1.0\r\n" + b"X-Pad: 1\r\n" * 100 + b"\r\n"
        assert _raw(server.server_address, request)[0] == 200

    def test_oversized_body_is_400(self, front_end):
        """Refused unread, the body is drained before the close, so even a
        client that sends all of it reads the 400 (not a reset)."""
        service, server = front_end
        refused = service.stats()["requests_total"].get(("count", 400), 0)
        request = _post_request("/count", b" " * (2 * MAX_BODY_BYTES))
        for _ in range(3):
            status, _, body = _raw(server.server_address, request)
            assert status == 400 and "too large" in json.loads(body)["error"]
        assert service.stats()["requests_total"][("count", 400)] == refused + 3

    def test_lower_case_session_header_reaches_the_warm_handle(self, front_end):
        _, server = front_end
        base = "http://%s:%d" % server.server_address[:2]
        status, prep, _ = _post(base, "/prepare", {"query": "4-path"})
        assert status == 200
        token = prep["session"]
        request = _post_request(
            "/count", b'{"query": "4-path"}', f"x-repro-session: {token}\r\n"
        )
        for _ in range(2):
            status, _, raw = _raw(server.server_address, request)
            body = json.loads(raw)
            assert status == 200 and body["session"] == token
        for key in BUILD_COUNTERS:
            assert body["metadata"][key] == 0

    def test_a_request_in_several_segments_parses(self, front_end):
        service, server = front_end
        expected = brute_force_count(cycle_query(3), service.database)
        request = _post_request("/count", b'{"query": "3-cycle"}')
        cut = request.index(b"\r\n\r\n") + 4
        chunks = (request[:9], request[9:cut], request[cut:cut + 5], request[cut + 5:])
        status, _, body = _raw(server.server_address, *chunks, pause=0.02)
        assert status == 200 and json.loads(body)["count"] == expected

    def test_response_is_one_status_line_headers_and_body(self, front_end):
        _, server = front_end
        status, headers, body = _raw(server.server_address, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200 and int(headers["content-length"]) == len(body)
        assert json.loads(body)["status"] == "ok"


def _new_handlers(before):
    """HTTP handler threads alive now that were not in ``before``."""
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-http-") and thread not in before
    ]


class TestHandlerPool:
    def test_sequential_requests_reuse_a_bounded_set_of_handlers(self):
        before = threading.enumerate()
        service = QueryService(random_edge_database(), max_concurrency=1, max_queue=0)
        server = serve(service, port=0)
        try:
            assert server.max_handlers == 2
            for _ in range(200):
                status, _, _ = _raw(server.server_address, b"GET /healthz HTTP/1.0\r\n\r\n")
                assert status == 200
            assert 1 <= len(_new_handlers(before)) <= server.max_handlers
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain_timeout=2.0)

    def test_concurrent_bursts_stay_within_the_bound(self):
        """Sixteen clients on a bound of four, with a short switch interval:
        every request is answered and no burst spawns past the bound."""
        before = threading.enumerate()
        service = QueryService(random_edge_database(), max_concurrency=1, max_queue=2)
        server = serve(service, port=0)
        statuses = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(index):
                for round_ in range(25):
                    if (index + round_) % 4:
                        request = b"GET /healthz HTTP/1.0\r\n\r\n"
                    else:
                        request = _post_request("/count", b'{"query": "3-cycle"}')
                    statuses.append(_raw(server.server_address, request)[0])

            clients = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a client hung"
            assert len(statuses) == 16 * 25 and set(statuses) <= {200, 429}
            assert server.max_handlers == 4
            assert 1 <= len(_new_handlers(before)) <= server.max_handlers
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
            service.shutdown(drain_timeout=2.0)

    def test_idle_connection_is_closed_at_the_read_deadline(self, monkeypatch):
        before = threading.enumerate()
        monkeypatch.setattr(http_module, "READ_DEADLINE_SECONDS", 0.5)
        service = QueryService(random_edge_database(), max_concurrency=1, max_queue=0)
        server = serve(service, port=0)
        try:
            with socket.create_connection(server.server_address, timeout=10) as idle:
                # The idle client pins one handler; the spare answers the rest.
                status, _, _ = _raw(server.server_address, b"GET /healthz HTTP/1.0\r\n\r\n")
                assert status == 200
                started = time.monotonic()
                assert idle.recv(1) == b""  # closed by the server, no response
                assert time.monotonic() - started < 5.0
            with socket.create_connection(server.server_address, timeout=10):
                # Accepted before this request, so a handler holds it now.
                assert _raw(server.server_address, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200
                server.shutdown()
                started = time.monotonic()
                server.server_close()
                assert time.monotonic() - started < 0.25
        finally:
            service.shutdown(drain_timeout=2.0)
        deadline = time.monotonic() + 5.0
        while _new_handlers(before):
            assert time.monotonic() < deadline, "a handler thread outlived server_close"
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# The CLI entry point, end to end in a subprocess.
# ---------------------------------------------------------------------------


def _children(pid: int) -> list:
    """The live processes whose parent is ``pid``."""
    found = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:  # exited while listing
                continue
            if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
                found.append(int(name))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestServeCLI:
    def test_serve_boot_query_sigterm(self, tmp_path):
        """Boot, answer, SIGTERM: exit 0 with the drain summary, and an idle
        client holding a connection open does not hold up the exit."""
        edges = tmp_path / "tiny.txt"
        edges.write_text(
            "# tiny directed cycle + chords\n"
            + "\n".join(f"{u} {v}" for u, v in
                        [(i, (i + 1) % 8) for i in range(8)]
                        + [(i, (i + 3) % 8) for i in range(8)]
                        + [(2, 0), (5, 3)])  # close two directed triangles
            + "\n"
        )
        process, base = _boot_cli(
            str(edges), "--port", "0", "--max-concurrency", "2", "--drain-timeout", "5"
        )
        try:
            status, body, _ = _post(base, "/count", {"query": "3-cycle"})
            assert status == 200 and body["count"] > 0
            status, text = _get(base, "/metrics")
            assert status == 200 and "repro_queries_total 1" in text
            host, port = base[len("http://"):].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5):
                started = time.monotonic()
                process.send_signal(signal.SIGTERM)
                code = process.wait(timeout=30)
            assert time.monotonic() - started < http_module.READ_DEADLINE_SECONDS
            assert code == 0
            tail = process.stdout.read()
            assert "shutdown: drained=True" in tail, tail
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()

    def test_sigkill_frees_the_port_and_ends_the_workers(self):
        """``kill -9`` after a parallel request: the forked workers hold
        neither the listening socket nor their parent's pipe ends, so a
        connect is refused at once, the port re-binds and the workers exit."""
        process, base = _boot_cli("ca-GrQc", "--port", "0")
        processes = [process]
        workers = []
        try:
            status, body, _ = _post(base, "/count", {"query": "3-cycle", "parallel": 2})
            assert status == 200
            workers = _children(process.pid)
            if available_workers() >= 2:
                assert body["metadata"]["parallel"] is True and len(workers) == 2
            process.kill()
            process.wait(timeout=10)
            port = int(base.rsplit(":", 1)[1])
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5).close()
            again, again_base = _boot_cli("ca-GrQc", "--port", str(port))
            processes.append(again)
            assert again_base == base
            assert _get(again_base, "/healthz")[0] == 200
            again.send_signal(signal.SIGTERM)
            assert again.wait(timeout=30) == 0
            deadline = time.monotonic() + 5.0
            while any(map(process_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(process_running, workers))
        finally:
            for pid in workers:  # pragma: no cover - cleanup on failure
                if process_running(pid):
                    os.kill(pid, signal.SIGKILL)
            for child in processes:
                if child.poll() is None:  # pragma: no cover - cleanup on failure
                    child.kill()
                    child.wait(timeout=10)
                child.stdout.close()


# ---------------------------------------------------------------------------
# PR 10 acceptance: concurrent clients over one warm database.
# ---------------------------------------------------------------------------


class TestAcceptance:
    NUM_CLIENTS = 8
    REQUESTS_PER_CLIENT = 50

    def test_eight_concurrent_clients_reconcile(self, http_server):
        service, base, _ = http_server
        database = service.database

        workload = [
            {"query": "3-cycle", "algorithm": "clftj"},
            {"query": "3-cycle", "algorithm": "lftj"},
            {"query": "3-path", "algorithm": "ytd"},
            {"query": "4-path", "algorithm": "clftj"},
            {"query": "4-cycle", "algorithm": "lftj"},
            {"query": "3-path", "algorithm": "lftj"},
            {"query": "4-path", "algorithm": "lftj"},
            {"query": "3-cycle", "algorithm": "clftj", "parallel": 2},
        ]
        metadata_sums = {name: 0 for name in SCOPED_COUNTERS}
        sums_lock = threading.Lock()

        def absorb(metadata):
            with sums_lock:
                for name in SCOPED_COUNTERS:
                    value = metadata.get(name)
                    if isinstance(value, int):
                        metadata_sums[name] += value

        # Serial warmup: one pass per workload item records the oracle
        # answer and pays every build exactly once.
        serial = []
        for item in workload:
            status, body, _ = _post(base, "/evaluate", dict(item))
            assert status == 200
            absorb(body["metadata"])
            serial.append((body["count"], body["rows"]))

        barrier = threading.Barrier(self.NUM_CLIENTS)
        failures = []

        def client(index):
            item = workload[index % len(workload)]
            expected_count, expected_rows = serial[index % len(workload)]
            token = None
            if index % 2 == 0:  # half the clients pin a session
                status, prep, _ = _post(base, "/prepare", dict(item))
                assert status == 200
                token = prep["session"]
            headers = {"X-Repro-Session": token} if token else {}
            barrier.wait(timeout=60)
            for _ in range(self.REQUESTS_PER_CLIENT):
                status, body, _ = _post(base, "/evaluate", dict(item), headers)
                if status != 200:
                    failures.append((index, status, body))
                    return
                absorb(body["metadata"])
                # Identical to the serial oracle, byte for byte.
                if body["count"] != expected_count or body["rows"] != expected_rows:
                    failures.append((index, "mismatch", body["count"]))
                    return
                # Zero misattributed builds: the database is warm, so any
                # nonzero build delta here was stolen from another client.
                for key in BUILD_COUNTERS:
                    if body["metadata"][key] != 0:
                        failures.append((index, "misattributed", key, body["metadata"]))
                        return

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(self.NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "an acceptance client hung"
        assert failures == []

        # /metrics reconciles exactly with the summed per-request metadata.
        status, text = _get(base, "/metrics")
        assert status == 200
        exposed = {}
        for line in text.splitlines():
            if line.startswith("repro_query_") and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                counter = name[len("repro_query_"):-len("_total")]
                if counter in SCOPED_COUNTERS:
                    exposed[counter] = int(value)
        for name in SCOPED_COUNTERS:
            assert exposed[name] == metadata_sums[name], (
                name,
                exposed[name],
                metadata_sums[name],
            )
        # And nothing global is unaccounted for: every build the database
        # performed belongs to exactly one served request.
        for name in BUILD_COUNTERS:
            assert getattr(database, name) == metadata_sums[name], name


# ---------------------------------------------------------------------------
# The pool forks from request-handler threads.
# ---------------------------------------------------------------------------


class TestForkFromHandlerThreads:
    """``repro serve`` answers ``parallel`` requests on the fork pool, so a
    handler thread forks while other handler threads hold the database,
    session, admission and stats locks.  A child that inherited one of them
    held would hang its request; a wrong snapshot would answer wrongly."""

    PARALLEL_CLIENTS = 4
    ROUNDS = 6
    #: No request may take longer than this (seconds).
    REQUEST_TIMEOUT = 30.0
    QUERIES = ("3-cycle", "4-path")

    def _traffic(self, base, serial):
        """Parallel clients beside one serial client with a ``/prepare``;
        returns the failures and every request's latency."""
        barrier = threading.Barrier(self.PARALLEL_CLIENTS + 1)
        failures = []
        latencies = []

        def timed_post(path, payload):
            started = time.perf_counter()
            status, body, _ = _post(base, path, payload)
            latencies.append(time.perf_counter() - started)
            return status, body

        def parallel_client(index):
            barrier.wait(timeout=60)
            for round_ in range(self.ROUNDS):
                query = self.QUERIES[(index + round_) % len(self.QUERIES)]
                status, body = timed_post("/count", {"query": query, "parallel": 2})
                if status != 200 or body["count"] != serial[query]:
                    failures.append((index, query, status, body))
                elif not body["metadata"]["parallel"]:
                    failures.append((index, query, "ran serial", body["metadata"]))

        def serial_client():
            barrier.wait(timeout=60)
            status, body = timed_post("/prepare", {"query": "4-path"})
            if status != 200 or not body.get("session"):
                failures.append(("prepare", status, body))
            for round_ in range(self.ROUNDS):
                query = self.QUERIES[round_ % len(self.QUERIES)]
                status, body = timed_post("/count", {"query": query})
                if status != 200 or body["count"] != serial[query]:
                    failures.append(("serial", query, status, body))

        threads = [
            threading.Thread(target=parallel_client, args=(index,))
            for index in range(self.PARALLEL_CLIENTS)
        ]
        threads.append(threading.Thread(target=serial_client))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a client hung behind a forked worker"
        assert len(latencies) == (self.PARALLEL_CLIENTS + 1) * self.ROUNDS + 1
        return failures, latencies

    def test_parallel_counts_beside_serial_traffic(self, http_server, two_cores):
        service, base, _ = http_server
        serial = {}
        for query in self.QUERIES:  # the oracle; builds every index and driver
            status, body, _ = _post(base, "/count", {"query": query})
            assert status == 200
            serial[query] = body["count"]
        # Cold pool: the first parallel request forks from a handler thread
        # while the other clients run.
        failures, latencies = self._traffic(base, serial)
        assert failures == []
        pool = service.database.worker_pool(2)
        spawns = pool.spawns
        assert spawns >= 2
        # Warm: the same traffic re-arms the same workers, no fork.
        failures, warm_latencies = self._traffic(base, serial)
        assert failures == []
        assert max(latencies + warm_latencies) < self.REQUEST_TIMEOUT
        assert service.database.worker_pool(2) is pool
        assert pool.spawns == spawns and pool.worker_restarts == 0

    def test_oversized_parallel_is_clamped_to_the_cores(self, http_server, two_cores):
        """Each distinct size is a pool the database keeps until shutdown, so
        a client asking for more workers than cores gets the cores' pool."""
        service, base, _ = http_server
        status, serial, _ = _post(base, "/count", {"query": "3-cycle"})
        assert status == 200
        for asked in (2, 3, 64, 2):
            status, body, _ = _post(base, "/count", {"query": "3-cycle", "parallel": asked})
            assert status == 200 and body["count"] == serial["count"]
            assert body["metadata"]["workers"] == 2
        pools = service.database._pools
        assert list(pools) == [2] and pools[2].spawns == 2
