"""Tests for the ``repro.bench`` table formatter (``repro.bench.reporting``)."""

from repro.bench.reporting import format_records, format_results, results_to_records
from repro.engine.engine import QueryEngine
from repro.query.patterns import path_query

from tests.conftest import random_edge_database


class TestReporting:
    def test_format_records_aligns_columns(self):
        table = format_records([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_records_empty(self):
        assert format_records([]) == "(no records)"

    def test_format_records_explicit_columns(self):
        table = format_records([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_float_formatting(self):
        table = format_records([{"v": 0.000012345}, {"v": 123456.0}])
        assert "e-05" in table or "1.234e-05" in table

    def test_results_to_records_and_format(self):
        engine = QueryEngine(random_edge_database(seed=1, num_edges=40))
        results = [engine.count(path_query(2), algorithm="lftj")]
        assert [record["dataset"] for record in results_to_records(results, "g1")] == ["g1"]
        table = format_results(results, dataset="g1")
        assert table.splitlines()[2].split()[:3] == ["g1", "2-path", "lftj"]
