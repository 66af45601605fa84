"""Tests for the QueryEngine facade and execution results."""

import pytest

from repro.core.cache import AdhesionCache, NeverCachePolicy
from repro.engine.engine import QueryEngine
from repro.engine.results import ExecutionResult
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query

from tests.conftest import ALGORITHM_CASES, brute_force_count, brute_force_evaluate


@pytest.fixture
def engine(small_graph_db) -> QueryEngine:
    return QueryEngine(small_graph_db)


class TestCount:
    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_every_algorithm_agrees_with_brute_force(
        self, engine, small_graph_db, algorithm, options
    ):
        query = cycle_query(4)
        result = engine.count(query, algorithm=algorithm, **options)
        assert result.count == brute_force_count(query, small_graph_db)

    def test_unknown_algorithm_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.count(path_query(2), algorithm="magic")

    def test_result_metadata_for_clftj(self, engine):
        result = engine.count(cycle_query(4), algorithm="clftj")
        assert result.algorithm == "clftj"
        assert result.metadata["num_bags"] >= 1
        assert "cache_entries" in result.metadata
        assert result.elapsed_seconds >= 0

    def test_explicit_cache_capacity(self, engine, small_graph_db):
        query = path_query(4)
        result = engine.count(query, algorithm="clftj", cache_capacity=3)
        assert result.count == brute_force_count(query, small_graph_db)

    def test_explicit_policy(self, engine, small_graph_db):
        query = path_query(3)
        result = engine.count(query, algorithm="clftj", policy=NeverCachePolicy())
        assert result.count == brute_force_count(query, small_graph_db)
        assert result.counter.cache_insertions == 0

    def test_external_cache_reused(self, engine):
        query = path_query(4)
        cache = AdhesionCache()
        first = engine.count(query, algorithm="clftj", cache=cache)
        second = engine.count(query, algorithm="clftj", cache=cache)
        assert first.count == second.count
        assert second.counter.trie_accesses < first.counter.trie_accesses

    def test_custom_decomposition(self, engine, small_graph_db):
        from repro.decomposition.generic import generic_decompose

        query = cycle_query(5)
        decomposition = generic_decompose(query)
        result = engine.count(query, algorithm="clftj", decomposition=decomposition)
        assert result.count == brute_force_count(query, small_graph_db)


class TestEvaluate:
    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_rows_match_brute_force(self, engine, small_graph_db, algorithm, options):
        query = path_query(3)
        result = engine.evaluate(query, algorithm=algorithm, **options)
        expected = brute_force_evaluate(query, small_graph_db)
        by_name = {variable: index for index, variable in enumerate(result.variable_order)}
        positions = [by_name[variable] for variable in query.variables]
        produced = {tuple(row[p] for p in positions) for row in result.rows}
        assert produced == expected
        assert result.count == len(expected)

    def test_rows_attached_to_result(self, engine):
        result = engine.evaluate(path_query(2), algorithm="clftj")
        assert result.rows is not None
        assert len(result.rows) == result.count


class TestCompare:
    def test_compare_runs_all_requested_algorithms(self, engine):
        results = engine.compare(cycle_query(4), algorithms=("lftj", "clftj", "ytd"))
        assert set(results) == {"lftj", "clftj", "ytd"}
        assert len({result.count for result in results.values()}) == 1

    def test_compare_evaluate_mode(self, engine):
        results = engine.compare(path_query(2), algorithms=("lftj", "clftj"), mode="evaluate")
        assert all(result.rows is not None for result in results.values())

    def test_compare_invalid_mode(self, engine):
        with pytest.raises(ValueError):
            engine.compare(path_query(2), mode="explain")


class TestExecutionResult:
    def test_as_record_flattens_counters(self, engine):
        result = engine.count(path_query(2), algorithm="clftj")
        record = result.as_record()
        assert record["algorithm"] == "clftj"
        assert "memory_accesses" in record
        assert "cache_hits" in record

    def test_speedup_over(self):
        from repro.core.instrumentation import OperationCounter

        fast = ExecutionResult("a", "q", 1, 1.0, OperationCounter())
        slow = ExecutionResult("b", "q", 1, 2.0, OperationCounter())
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_memory_accesses_property(self, engine):
        result = engine.count(path_query(2), algorithm="lftj")
        assert result.memory_accesses == result.counter.memory_accesses


class TestMultiRelationQueries:
    def test_engine_on_two_relations(self, two_relation_db):
        engine = QueryEngine(two_relation_db)
        query = parse_query("R(x, y), S(y, z), R(z, w)")
        counts = {
            algorithm: engine.count(query, algorithm=algorithm).count
            for algorithm in ("lftj", "clftj", "ytd", "pairwise")
        }
        assert len(set(counts.values())) == 1
        assert counts["lftj"] == brute_force_count(query, two_relation_db)
