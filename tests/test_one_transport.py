"""The pool has one transport, forked workers, or the execution runs serial.

* **No fork** — where the platform has no ``fork`` start method, a
  ``parallel=`` request declines with its own reason, in the words
  ``explain()`` prints and the result metadata carries — on a prepared
  handle, in ``repro run`` / ``repro explain`` and over HTTP too — and no
  pool is built.
* **Removed spellings** — ``parallel_backend=`` only still accepts
  ``"processes"``; any other name raises from every engine entry point,
  the HTTP parameter is gone (400) and so is the CLI flag (exit 2).
"""

import functools
import multiprocessing

import pytest

from repro.cli import main
from repro.engine import QueryEngine
from repro.query.patterns import cycle_query
from repro.server.http import serve
from repro.server.service import QueryService

from tests.conftest import random_edge_database
from tests.test_server import _post

NO_FORK = "the platform has no fork start method"


@pytest.fixture
def no_fork(monkeypatch):
    """A platform whose multiprocessing offers no ``fork`` start method."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
    )


@pytest.fixture
def http_service():
    """A live HTTP server over a small database: ``(base_url, service)``."""
    service = QueryService(random_edge_database())
    server = serve(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain_timeout=5.0)


@pytest.fixture
def engine():
    database = random_edge_database(num_nodes=60, num_edges=420, seed=11)
    yield QueryEngine(database)
    database.close_pools()


class TestNoForkPlatform:
    @pytest.mark.parametrize("algorithm", ["lftj", "clftj"])
    def test_parallel_declines_and_runs_serial(self, engine, no_fork, algorithm):
        query = cycle_query(3)
        serial = engine.evaluate(query, algorithm=algorithm)
        text = engine.explain(query, algorithm=algorithm, parallel=2)
        counted = engine.count(query, algorithm=algorithm, parallel=2)
        result = engine.evaluate(query, algorithm=algorithm, parallel=2)
        assert f"parallel: declined, runs serial ({NO_FORK})" in text.splitlines()
        for metadata in (counted.metadata, result.metadata):
            assert metadata["parallel"] is False
            assert metadata["parallel_reason"] == NO_FORK
            assert "workers" not in metadata
        assert counted.count == result.count == serial.count
        assert result.rows == serial.rows
        assert engine.database._pools == {}  # nothing was forked or built

    @pytest.mark.parametrize("algorithm", ["lftj", "clftj"])
    def test_prepared_handle_declines_on_every_execution(self, engine, no_fork,
                                                         algorithm):
        query = cycle_query(3)
        serial = engine.count(query, algorithm=algorithm)
        handle = engine.prepare(query, algorithm=algorithm, parallel=2)
        assert f"parallel: declined, runs serial ({NO_FORK})" in handle.explain()
        for result in (handle.count(), handle.count(), handle.evaluate()):
            assert result.count == serial.count
            assert result.metadata["parallel"] is False
            assert result.metadata["parallel_reason"] == NO_FORK
        assert engine.database._pools == {}

    def test_cli_run_and_explain_print_the_same_reason(self, no_fork, capsys):
        request = ["--dataset", "wiki-Vote", "--query", "3-cycle", "--scale", "0.3",
                   "--algorithm", "lftj", "--parallel", "2"]
        lines = []
        for command in ("run", "explain"):
            assert main([command, *request]) == 0
            lines.append([line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("parallel:")])
        assert lines[0] == lines[1] == [f"parallel: declined, runs serial ({NO_FORK})"]

    def test_http_count_reports_the_reason(self, no_fork, two_cores, http_service):
        base, _ = http_service
        status, serial, _ = _post(base, "/count", {"query": "3-cycle"})
        assert status == 200
        status, body, _ = _post(base, "/count", {"query": "3-cycle", "parallel": 2})
        assert status == 200
        assert body["count"] == serial["count"]
        assert body["metadata"]["parallel"] is False
        assert body["metadata"]["parallel_reason"] == NO_FORK


class TestRemovedSpellings:
    def test_processes_is_the_one_accepted_name(self, engine):
        query = cycle_query(3)
        plain = engine.count(query, algorithm="lftj", parallel=2)
        named = engine.count(query, algorithm="lftj", parallel=2,
                             parallel_backend="processes")
        assert named.count == plain.count and named.metadata["parallel"] is True
        assert "parallel_backend" not in named.metadata
        assert "splits" not in named.metadata

    # Every entry point refuses the retired transport; the near misses of
    # the one name (a start method, a case variant, a singular) and a name
    # that never was one are refused too.
    @pytest.mark.parametrize(
        "entry, name",
        [(entry, "threads")
         for entry in ("count", "evaluate", "prepare", "explain", "compare")]
        + [("count", name) for name in ("fork", "Processes", "process", "mpi")],
    )
    def test_any_other_name_raises(self, engine, entry, name):
        if entry == "compare":
            call = functools.partial(engine.compare, algorithms=("lftj", "clftj"))
        else:
            call = functools.partial(getattr(engine, entry), algorithm="lftj")
        with pytest.raises(
            ValueError,
            match=f"unknown parallel backend '{name}'.*one transport, 'processes'",
        ):
            call(cycle_query(3), parallel=2, parallel_backend=name)

    def test_http_parameter_is_unknown(self, http_service):
        base, _ = http_service
        status, body, _ = _post(
            base,
            "/count",
            {"query": "3-cycle", "parallel": 2, "parallel_backend": "processes"},
        )
        assert status == 400
        assert body["error"] == "unknown request parameters: parallel_backend"

    def test_cli_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                  "--algorithm", "lftj", "--parallel", "2",
                  "--parallel-backend", "processes"])
        assert info.value.code == 2
        assert "--parallel-backend" in capsys.readouterr().err
