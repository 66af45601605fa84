"""The rows ``POST /evaluate`` serves: JSON written straight from codes.

A response's ``rows`` is a :class:`~repro.engine.results.RowPage`: the text
:meth:`ValueDictionary.json_rows` writes from the result's code tuples
through the dictionary's JSON fragment table, spliced into the body by the
HTTP layer.  The contract held here:

* **Byte identity** — every body equals ``json.dumps`` of the same response
  with decoded rows, keys in the same order, over every value type the
  dictionary holds, encoded and value-space results, sessions, truncation,
  empty and parallel results, and inserts between requests;
* **Growth** — the fragment table grows under a lock while handler threads
  write pages and a writer inserts unseen values, and no code is ever
  written with another code's fragment;
* **Counters** — a written page charges ``decodes`` / ``decode_seconds``
  as ``head(n)`` does, ``repro_rows_returned_total`` counts the rows sent,
  and ``Database.memory_footprint()`` counts the fragment table.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.instrumentation import OperationCounter
from repro.engine.results import ExecutionResult, RowPage
from repro.query.parser import parse_query
from repro.query.patterns import path_query
from repro.server import http as http_module
from repro.server.http import serve
from repro.server.metrics import render_metrics
from repro.server.service import QueryService
from repro.storage.database import Database
from repro.storage.dictionary import ValueDictionary
from repro.storage.relation import Relation

from tests.conftest import random_edge_database

#: One relation per awkward value type; each column sorts on its own.
ODD_RELATIONS = {
    "S": [
        ('say "hi"', "back\\slash"),
        ("tab\tnew\nline\x00\x1f", "naïve ☃ \U0001d11e"),
        ("", "/ slash </script>"),
    ],
    # True, 1 and 1.0 share one code and decode to the first seen
    "A": [(True, 2), (1, 3), (1.0, 4), (0, 5)],
    "F": [(1e300, -0.0), (0.5, 2.5e-7), (-1.5e-300, 0.0), (float("inf"), 12345678901234.5)],
    "T": [((1, "a"), (2, "b")), ((1, "b"), (3, ("c", 4.5)))],
    "M": [('q"', 10**30), ("r", -(2**63)), ("s", 7)],
    "N": [(1, 2), (3, 4)],
}
ODD_QUERIES = (
    "S(x,y)",
    "S(x,y), S(x,z)",
    "A(x,y)",
    "A(x,y), A(x,z)",
    "F(x,y)",
    "T(x,y)",
    "M(x,y)",
    "N(x,y), N(y,z)",  # empty
)


def odd_database() -> Database:
    return Database([Relation(name, ("a", "b"), rows) for name, rows in ODD_RELATIONS.items()])


def decoded_body(response) -> bytes:
    """``json.dumps`` of ``response`` with its page read back as tuples."""
    return json.dumps(dict(response, rows=list(response["rows"]))).encode("utf-8")


def assert_byte_identical(response) -> bytes:
    assert isinstance(response["rows"], RowPage)
    body = http_module._json(response)
    assert body == decoded_body(response)
    return body


@pytest.fixture
def odd_service():
    svc = QueryService(odd_database(), max_concurrency=4)
    yield svc
    svc.shutdown(drain_timeout=5.0)


@pytest.fixture
def graph_service():
    svc = QueryService(random_edge_database(), max_concurrency=4)
    yield svc
    svc.shutdown(drain_timeout=5.0)


# ---------------------------------------------------------------------------
# Byte identity.
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("query", ODD_QUERIES)
    @pytest.mark.parametrize("algorithm", ["lftj", "clftj", "pairwise", "ytd"])
    def test_every_value_type_encoded_and_value_space(self, odd_service, query, algorithm):
        """``lftj`` / ``clftj`` rows are codes written from the fragment
        table; ``pairwise`` / ``ytd`` rows are values, written by
        ``json.dumps``."""
        response = odd_service.evaluate({"query": query, "algorithm": algorithm})
        assert_byte_identical(response)
        oracle = odd_service.engine.evaluate(parse_query(query), algorithm=algorithm)
        assert response["rows"] == oracle.rows
        assert json.loads(response["rows"].json) == json.loads(json.dumps(oracle.rows))

    def test_the_alias_writes_the_first_seen_value(self, odd_service):
        response = odd_service.evaluate({"query": "A(x,y)", "algorithm": "lftj"})
        assert_byte_identical(response)
        # the rows stored as (1, 3) and (1.0, 4) carry True's code
        assert "[true, 3], [true, 4]" in response["rows"].json
        assert {row[0] for row in response["rows"]} == {True, 0}

    def test_value_rows_keep_what_equal_values_would_merge(self):
        """Rows held as values (no dictionary) keep ``1``, ``True`` and
        ``1.0`` and both zeros apart, and each position writes its own value."""
        rows = [(1, True, 1.0), (0.0, -0.0, False), ((1, True), "1", 10**20)]
        result = ExecutionResult("pairwise", "q", len(rows), 0.0, OperationCounter(), rows=list(rows))
        for n in range(len(rows) + 2):
            page = result.page(n)
            assert page.json == json.dumps(rows[:n])
            assert list(page) == rows[:n] and len(page) == len(rows[:n])
        ints = [(3, "x"), (3, "y"), (10**20, "x")]
        result = ExecutionResult("pairwise", "q", 3, 0.0, OperationCounter(), rows=list(ints))
        assert result.page(3).json == json.dumps(ints)

    def test_a_count_only_result_has_no_page(self):
        result = ExecutionResult("lftj", "q", 5, 0.0, OperationCounter())
        assert result.page(10) is None

    @pytest.mark.parametrize("algorithm", ["lftj", "clftj"])
    def test_sessions_truncation_and_empty_pages(self, graph_service, algorithm):
        query = {"query": "3-path", "algorithm": algorithm}
        count = graph_service.count(query)["count"]
        token = graph_service.prepare(query)["session"]
        for max_rows in (0, 1, count // 2, count, count + 1):
            for session in (None, token):
                payload = dict(query, max_rows=max_rows)
                if session:
                    payload["session"] = session
                response = graph_service.evaluate(payload)
                body = assert_byte_identical(response)
                assert len(response["rows"]) == min(max_rows, count)
                assert response["rows_truncated"] is (max_rows < count)
                if max_rows == 0:
                    assert b'"rows": [], ' in body
                if session:
                    assert list(response)[-1] == "session"

    def test_an_empty_result(self, odd_service):
        for algorithm in ("lftj", "clftj", "pairwise"):
            response = odd_service.evaluate({"query": "N(x,y), N(y,z)", "algorithm": algorithm})
            body = assert_byte_identical(response)
            assert response["count"] == 0 and b'"rows": [], "rows_truncated": false' in body

    def test_a_parallel_evaluation(self, graph_service, two_cores):
        payload = {"query": "4-path", "algorithm": "lftj", "parallel": 2, "max_rows": 500}
        response = graph_service.evaluate(payload)
        assert_byte_identical(response)
        serial = graph_service.evaluate(dict(payload, parallel=False))
        assert response["rows"].json == serial["rows"].json
        assert response["rows"] == serial["rows"]

    def test_inserts_of_unseen_values_between_requests(self, odd_service):
        database = odd_service.database
        dictionary = database.dictionary
        query = {"query": "S(x,y), S(x,z)", "algorithm": "lftj"}
        assert_byte_identical(odd_service.evaluate(query))
        built = len(dictionary.fragments)
        for step in range(3):
            database.insert("S", [(f'new "{step}"', f"é\\{step}"), ("", f"tail {step}")])
            response = odd_service.evaluate(query)
            assert_byte_identical(response)
            oracle = odd_service.engine.evaluate(parse_query(query["query"]), algorithm="lftj")
            assert response["rows"] == oracle.rows
        assert len(dictionary.fragments) > built
        assert dictionary.fragments == [json.dumps(value) for value in dictionary._values[: len(dictionary.fragments)]]

    def test_the_http_body_is_the_decoded_json(self, odd_service, monkeypatch):
        """Over the socket: the body is byte for byte ``json.dumps`` of the
        response the service returned, with its rows decoded."""
        responses = []
        evaluate = odd_service.evaluate
        monkeypatch.setattr(
            odd_service, "evaluate", lambda payload: responses.append(evaluate(payload)) or responses[-1]
        )
        server = serve(odd_service, port=0)
        try:
            host, port = server.server_address[:2]
            for query in ODD_QUERIES:
                request = urllib.request.Request(
                    f"http://{host}:{port}/evaluate",
                    data=json.dumps({"query": query, "algorithm": "lftj", "max_rows": 2}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as reply:
                    body = reply.read()
                    assert reply.headers["Content-Length"] == str(len(body))
                assert body == decoded_body(responses[-1]), query
        finally:
            server.shutdown()
            server.server_close()

    def test_a_value_json_refuses_fails_only_the_page_holding_it(self):
        dictionary = ValueDictionary()
        codes = [dictionary.encode(value) for value in (1, b"raw", "x")]
        assert dictionary.json_rows([(codes[0], codes[2])]) == '[[1, "x"]]'
        before = dictionary.decodes
        with pytest.raises(TypeError, match="Object of type bytes is not JSON serializable"):
            dictionary.json_rows([(codes[0], codes[1])])
        assert dictionary.decodes == before
        assert dictionary.json_rows([(codes[2], codes[0])]) == '[["x", 1]]'

    def test_unknown_codes_and_ragged_rows(self):
        dictionary = ValueDictionary()
        for value in ("a", "b", "c"):
            dictionary.encode(value)
        for bad in ([(0, 3)], [(0, -1)], [(0, "1")]):
            with pytest.raises(ValueError, match="unknown dictionary code"):
                dictionary.json_rows(bad)
        assert dictionary.decodes == 0
        ragged = [(0,), (1, 2), ()]
        assert dictionary.json_rows(ragged) == json.dumps([("a",), ("b", "c"), ()])
        assert dictionary.decodes == 3
        assert dictionary.json_rows([]) == "[]"


# ---------------------------------------------------------------------------
# Growth under concurrency.
# ---------------------------------------------------------------------------


@pytest.fixture
def fine_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestGrowth:
    @pytest.mark.parametrize("round_", range(5))
    def test_readers_and_a_writer_on_one_dictionary(self, fine_switching, round_):
        """Two readers write pages of random codes while a writer encodes
        unseen values: each page must be the JSON of its own codes' values,
        and the table each code's own fragment (growth without the lock
        appended some codes twice in one or two of the five rounds)."""
        dictionary = ValueDictionary()
        for index in range(20):
            dictionary.encode(f"seed {index}")
        stop = threading.Event()
        failures = []

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                size = len(dictionary)
                # the newest code makes nearly every page grow the table
                rows = [(size - 1, rng.randrange(size))]
                rows += [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randrange(8))]
                text = dictionary.json_rows(rows)
                if text != json.dumps(dictionary.decode_rows_uncounted(rows)):
                    failures.append(rows)
                    return

        def writer():
            for index in range(20000):
                dictionary.encode(f"value {index} " + "x" * (index % 7))
            stop.set()

        threads = [threading.Thread(target=reader, args=(round_ * 2 + seed,)) for seed in (1, 2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        table = dictionary.fragments
        assert table == [json.dumps(value) for value in dictionary._values[: len(table)]]

    def test_handler_threads_and_an_inserting_writer(self, fine_switching):
        """Two handler threads render pages through the service while a
        writer inserts rows of unseen values into the relation they read."""
        database = Database([Relation("S", ("a", "b"), [(f"k{index}", f"v{index}") for index in range(30)])])
        service = QueryService(database, max_concurrency=4)
        stop = threading.Event()
        failures = []
        pages = [0, 0]

        def handler(slot, query):
            while not stop.is_set():
                response = service.evaluate({"query": query, "algorithm": "lftj", "max_rows": 400})
                if http_module._json(response) != decoded_body(response):
                    failures.append(response["rows"].json)
                    return
                pages[slot] += 1

        def writer():
            for index in range(150):
                database.insert("S", [(f"k{index % 30}", f'w "{index}"'), (f"new {index}", f"k{index}")])
            stop.set()

        threads = [
            threading.Thread(target=handler, args=(0, "S(x,y)")),
            threading.Thread(target=handler, args=(1, "S(x,y), S(y,z)")),
            threading.Thread(target=writer),
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            stop.set()
            service.shutdown(drain_timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert min(pages) > 0
        dictionary = database.dictionary
        table = dictionary.fragments
        assert table == [json.dumps(value) for value in dictionary._values[: len(table)]]


# ---------------------------------------------------------------------------
# Counters.
# ---------------------------------------------------------------------------


class TestCounters:
    @pytest.mark.parametrize("n", [0, 1, 7, 10**6])
    def test_a_page_charges_as_head_does(self, graph_service, n):
        engine, dictionary = graph_service.engine, graph_service.database.dictionary
        query = path_query(3)
        by_head = engine.evaluate(query, algorithm="lftj")
        by_page = engine.evaluate(query, algorithm="lftj")
        before = dictionary.decodes
        rows = by_head.head(n)
        head_decodes = dictionary.decodes - before
        page = by_page.page(n)
        assert dictionary.decodes - before == 2 * head_decodes
        assert by_page.metadata["decodes"] == by_head.metadata["decodes"] == head_decodes
        assert head_decodes == len(rows) * len(query.variables)
        assert by_page.metadata["decode_seconds"] > 0.0 and by_head.metadata["decode_seconds"] > 0.0
        # reading the page back decodes its rows, uncounted: the write paid
        assert page == rows and dictionary.decodes - before == 2 * head_decodes
        assert by_page.metadata["decodes"] == head_decodes

    def test_concurrent_evaluations_each_report_their_own_decodes(self, graph_service,
                                                                  fine_switching):
        """Three threads evaluate at once, through the library and through
        the service: every result reports exactly the cells it decoded,
        however the shared dictionary counter moves meanwhile."""
        engine, width = graph_service.engine, 4
        query = path_query(3)
        start = threading.Barrier(3)
        failures = []

        def worker(slot):
            start.wait()
            for step in range(20):
                rows = 50 + 10 * slot + step
                headed = engine.evaluate(query, algorithm="lftj")
                headed.head(rows)
                paged = engine.evaluate(query, algorithm="lftj")
                page = paged.page(rows)
                response = graph_service.evaluate(
                    {"query": "3-path", "algorithm": "lftj", "max_rows": rows})
                reported = tuple(result["decodes"] for result in (
                    headed.metadata, paged.metadata, response["metadata"]))
                if reported != (rows * width,) * 3 or len(page) != rows:
                    failures.append((slot, step, reported))

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_the_response_reports_the_decodes_it_caused(self, graph_service):
        dictionary = graph_service.database.dictionary
        before = dictionary.decodes
        response = graph_service.evaluate({"query": "3-path", "algorithm": "lftj", "max_rows": 9})
        assert response["metadata"]["decodes"] == dictionary.decodes - before == 9 * 4
        assert response["metadata"]["decode_seconds"] > 0.0

    def test_rows_returned_total_reconciles(self, graph_service):
        sent = 0
        for max_rows in (0, 3, 50, 10**4):
            for algorithm in ("lftj", "clftj", "ytd"):
                response = graph_service.evaluate(
                    {"query": "3-path", "algorithm": algorithm, "max_rows": max_rows}
                )
                sent += len(json.loads(http_module._json(response))["rows"])
        assert graph_service.stats()["rows_returned_total"] == sent > 0
        assert f"\nrepro_rows_returned_total {sent}\n" in render_metrics(graph_service)

    def test_memory_footprint_counts_the_fragment_table(self, graph_service):
        database = graph_service.database
        result = graph_service.engine.evaluate(path_query(3), algorithm="lftj")
        before = database.memory_footprint()
        assert database.dictionary.fragments == []
        result.page(10**6)
        table = database.dictionary.fragments
        assert len(table) > 0
        grown = database.memory_footprint() - before
        assert grown >= sys.getsizeof(table) - sys.getsizeof([])
        assert f"repro_db_memory_footprint_bytes {database.memory_footprint()}" in render_metrics(
            graph_service
        )

    def test_a_page_json_refuses_is_a_500_counted_once(self):
        """A stored value ``json.dumps`` refuses (bytes) fails the page: the
        client gets a 500 naming it, and the request ledger counts that 500
        and no 200 (the connection used to close without a response)."""
        database = Database([Relation("B", ("a", "b"), [(b"raw", 1), (b"two", 2)])])
        service = QueryService(database)
        server = serve(service, port=0)
        try:
            host, port = server.server_address[:2]
            request = urllib.request.Request(
                f"http://{host}:{port}/evaluate",
                data=json.dumps({"query": "B(x,y)", "algorithm": "lftj"}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=30)
            assert refused.value.code == 500
            assert "Object of type bytes is not JSON serializable" in json.loads(refused.value.read())["error"]
            assert service.count({"query": "B(x,y)"})["count"] == 2
            requests = service.stats()["requests_total"]
            assert requests == {("evaluate", 500): 1, ("count", 200): 1}
            assert service.stats()["queries_total"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain_timeout=5.0)
