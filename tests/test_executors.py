"""Tests for the executor protocol, registry and parameter contracts."""

import pytest

from repro.core.cache import AdhesionCache, NeverCachePolicy
from repro.core.instrumentation import OperationCounter
from repro.engine.engine import ALGORITHMS, QueryEngine
from repro.engine.executors import (
    AlgorithmSpec,
    ExecutorRequest,
    RowStreamAdapter,
    algorithm_spec,
    register_algorithm,
    registered_algorithms,
)
from repro.query.patterns import cycle_query, path_query

from tests.conftest import ALGORITHM_CASES, brute_force_evaluate, random_edge_database


@pytest.fixture
def database():
    return random_edge_database(seed=11, num_edges=45)


@pytest.fixture
def engine(database):
    return QueryEngine(database)


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        assert set(ALGORITHMS) == {
            "lftj", "clftj", "ytd", "pairwise",
        }
        assert registered_algorithms() == ALGORITHMS

    def test_unknown_algorithm_has_helpful_error(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm_spec("magic")

    def test_duplicate_registration_rejected(self):
        spec = algorithm_spec("lftj")
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(spec)
        register_algorithm(spec, replace=True)  # explicit replacement is fine

    def test_specs_declare_plan_needs(self):
        assert algorithm_spec("clftj").needs_plan
        assert algorithm_spec("ytd").needs_plan
        assert not algorithm_spec("lftj").needs_plan
        assert not algorithm_spec("pairwise").needs_plan


class TestParameterContracts:
    """Unused planning parameters are rejected loudly, never dropped."""

    @pytest.mark.parametrize(
        "algorithm,kwargs",
        [
            ("lftj", {"cache_capacity": 5}),
            ("lftj", {"policy": NeverCachePolicy()}),
            ("lftj", {"cache": AdhesionCache()}),
            ("pairwise", {"variable_order": ()}),
            ("pairwise", {"cache_capacity": 5}),
            ("ytd", {"policy": NeverCachePolicy()}),
            ("ytd", {"cache_capacity": 5}),
            ("ytd", {"variable_order": ()}),
        ],
    )
    def test_unused_parameters_rejected(self, engine, algorithm, kwargs):
        with pytest.raises(ValueError, match="does not use"):
            engine.count(path_query(2), algorithm=algorithm, **kwargs)

    def test_rejection_applies_to_evaluate_and_prepare(self, engine):
        with pytest.raises(ValueError, match="does not use"):
            engine.evaluate(path_query(2), algorithm="lftj", cache_capacity=5)
        with pytest.raises(ValueError, match="does not use"):
            engine.prepare(path_query(2), algorithm="pairwise", cache_capacity=5)

    def test_accepted_parameters_still_work(self, engine, database):
        from repro.query.terms import Variable

        query = path_query(2)
        order = tuple(reversed(query.variables))
        result = engine.count(query, algorithm="lftj", variable_order=order)
        assert result.variable_order == order

    def test_error_message_names_accepted_parameters(self, engine):
        with pytest.raises(ValueError, match="variable_order"):
            engine.count(path_query(2), algorithm="lftj", cache_capacity=5)


class TestUniformEvaluation:
    """Every executor yields rows as tuples in its declared variable order."""

    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_rows_follow_declared_order(self, engine, database, algorithm, options):
        query = cycle_query(3)
        result = engine.evaluate(query, algorithm=algorithm, **options)
        expected = brute_force_evaluate(query, database)
        positions = {variable: i for i, variable in enumerate(result.variable_order)}
        remap = [positions[variable] for variable in query.variables]
        assert {tuple(row[p] for p in remap) for row in result.rows} == expected

    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_execution_metadata_merged(self, engine, algorithm, options):
        result = engine.count(cycle_query(3), algorithm=algorithm, **options)
        # Every executor contributes at least one algorithm-specific fact.
        own_keys = set(result.metadata) - {
            "num_bags", "max_adhesion_size", "index_builds", "index_cache_hits",
            "plan_builds", "plan_cache_hits",
        }
        assert own_keys, f"{algorithm} reported no execution metadata"


class TestCodedRowStream:
    """``evaluate_coded()`` yields ``tuple``s of codes: the engine and the
    pool runner keep them with ``list(...)`` (no ``tuple(row)`` pass) and the
    batch decode kernel unpacks them."""

    POOLS = ({"parallel": 2},)

    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_coded_rows_are_tuples_and_decode_to_the_oracle(
        self, engine, database, algorithm, options
    ):
        spec = algorithm_spec(algorithm)
        query = path_query(3)  # two bags: clftj grafts cached subtrees too
        compiles = (False, None) if "compile" in spec.accepts else (None,)
        schedules = [options]
        if "parallel" in spec.accepts and not options:
            schedules += self.POOLS
        oracle = None
        try:
            for schedule in schedules:
                for compile in compiles:
                    executor = spec.factory(ExecutorRequest(
                        query=query, database=database, counter=OperationCounter(),
                        plan=engine.plan(query) if spec.needs_plan else None,
                        selector=engine.selector, compile=compile, **schedule,
                    ))
                    if not getattr(executor, "encoded", False):
                        # value space (ytd, pairwise): the engine takes evaluate()
                        assert not hasattr(executor, "evaluate_coded")
                        continue
                    getattr(executor, "build", lambda: None)()
                    coded = list(executor.evaluate_coded())
                    assert coded and all(type(row) is tuple for row in coded)
                    assert {type(code) for row in coded for code in row} == {int}
                    result = engine.evaluate(
                        query, algorithm=algorithm, compile=compile, **schedule
                    )
                    # The first run is serial and interpreted: the oracle.
                    oracle = result.rows if oracle is None else oracle
                    assert result.rows == oracle == database.dictionary.decode_rows(coded)
                    if schedule in self.POOLS:  # a pool ran it, not the template
                        assert result.metadata["parallel"] is True
        finally:
            database.close_pools()


class TestRowStreamAdapter:
    def test_adapter_streams_tuples(self, database):
        from repro.baselines.binary_join import PairwiseHashJoin

        query = path_query(2)
        inner = PairwiseHashJoin(query, database, OperationCounter())
        adapter = RowStreamAdapter(inner, query.variables)
        rows = set(adapter.evaluate())
        assert rows == brute_force_evaluate(query, database)
        assert adapter.counter is inner.counter
        assert adapter.execution_metadata()["join_order"]
