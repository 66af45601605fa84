"""Tests for prepared queries, the plan cache and cost-based auto selection."""

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.selector import AUTO_CANDIDATES, CostBasedSelector
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.relation import Relation
from repro.storage.views import query_signature

from tests.conftest import (
    ALGORITHM_CASES,
    brute_force_count,
    random_edge_database,
    skewed_edge_database,
)


@pytest.fixture
def database():
    return random_edge_database(seed=5, num_edges=50)


@pytest.fixture
def engine(database):
    return QueryEngine(database)


class TestQuerySignature:
    def test_renamed_queries_share_a_signature(self):
        left = parse_query("E(x,y), E(y,z), E(z,x)")
        right = parse_query("E(a,b), E(b,c), E(c,a)")
        assert query_signature(left) == query_signature(right)

    def test_cross_atom_structure_is_captured(self):
        chain = parse_query("E(x,y), E(y,z)")
        fork = parse_query("E(x,y), E(x,z)")
        assert query_signature(chain) != query_signature(fork)

    def test_constants_and_relations_distinguish(self):
        assert query_signature(parse_query("E(x,1)")) != query_signature(parse_query("E(x,2)"))
        assert query_signature(parse_query("E(x,y)")) != query_signature(parse_query("R(x,y)"))


class TestPlanCache:
    def test_second_execution_hits_plan_cache_with_zero_rebuilds(self, engine):
        query = cycle_query(4)
        first = engine.count(query, algorithm="clftj")
        second = engine.count(query, algorithm="clftj")
        assert first.count == second.count
        assert first.metadata["plan_builds"] == 1
        assert second.metadata["plan_builds"] == 0
        assert second.metadata["plan_cache_hits"] >= 1
        assert second.metadata["index_builds"] == 0

    def test_renamed_query_reuses_the_plan(self, engine, database):
        first = engine.count(parse_query("E(x,y), E(y,z), E(z,x)"), algorithm="clftj")
        renamed = parse_query("E(a,b), E(b,c), E(c,a)")
        second = engine.count(renamed, algorithm="clftj")
        assert second.metadata["plan_builds"] == 0
        assert second.metadata["plan_cache_hits"] >= 1
        assert first.count == second.count == brute_force_count(renamed, database)

    def test_renamed_plan_is_correctly_translated(self, engine):
        plan = engine.plan(parse_query("E(x,y), E(y,z), E(z,x), E(x, w)"))
        renamed = parse_query("E(p,q), E(q,r), E(r,p), E(p, s)")
        translated = engine.plan(renamed)
        assert tuple(v.name for v in plan.variable_order) != tuple(
            v.name for v in translated.variable_order
        )
        assert translated.decomposition.is_valid(renamed)
        assert {v.name for v in translated.decomposition.all_variables()} == {
            v.name for v in renamed.variables
        }

    def test_ytd_and_clftj_share_one_cached_plan(self, engine, database):
        query = cycle_query(4)
        engine.count(query, algorithm="clftj")
        result = engine.count(query, algorithm="ytd")
        assert result.metadata["plan_builds"] == 0
        assert result.metadata["plan_cache_hits"] >= 1

    def test_explicit_decomposition_bypasses_the_cache(self, engine, database):
        from repro.decomposition.generic import generic_decompose

        query = cycle_query(5)
        decomposition = generic_decompose(query)
        result = engine.count(query, algorithm="clftj", decomposition=decomposition)
        assert result.metadata["plan_builds"] == 0
        assert result.metadata["plan_cache_hits"] == 0
        assert result.count == brute_force_count(query, database)

    def test_replacing_a_relation_invalidates_plans(self, engine, database):
        query = cycle_query(4)
        engine.count(query, algorithm="clftj")
        assert database.plan_cache_size() == 1
        database.add_relation(
            Relation("E", ("src", "dst"), [(1, 2), (2, 1)]), replace=True
        )
        assert database.plan_cache_size() == 0
        result = engine.count(query, algorithm="clftj")
        assert result.metadata["plan_builds"] == 1

    def test_clear_plan_cache(self, engine, database):
        engine.count(cycle_query(4), algorithm="clftj")
        assert database.clear_plan_cache() == 1
        assert database.plan_cache_size() == 0


class TestPreparedQuery:
    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_prepared_count_agrees_with_fresh_runs(
        self, engine, database, algorithm, options
    ):
        query = cycle_query(3)
        prepared = engine.prepare(query, algorithm=algorithm, **options)
        first = prepared.count()
        second = prepared.count()
        fresh = engine.count(query, algorithm=algorithm, **options)
        expected = brute_force_count(query, database)
        assert first.count == second.count == fresh.count == expected

    @pytest.mark.parametrize("algorithm,options", ALGORITHM_CASES)
    def test_prepared_evaluate_agrees_with_fresh_runs(self, engine, algorithm, options):
        query = path_query(3)
        prepared = engine.prepare(query, algorithm=algorithm, **options)
        first = prepared.evaluate()
        second = prepared.evaluate()
        fresh = engine.evaluate(query, algorithm=algorithm, **options)
        assert set(first.rows) == set(second.rows) == set(fresh.rows)

    def test_reexecution_reports_plan_hit_and_zero_rebuilds(self, engine):
        prepared = engine.prepare(cycle_query(4), algorithm="clftj")
        prepared.count()
        result = prepared.count()
        assert result.metadata["plan_cache_hits"] >= 1
        assert result.metadata["plan_builds"] == 0
        assert result.metadata["index_builds"] == 0
        assert result.metadata["prepared_executions"] == 2

    def test_prepared_clftj_keeps_a_warm_adhesion_cache(self, engine):
        prepared = engine.prepare(cycle_query(4), algorithm="clftj")
        cold = prepared.count()
        warm = prepared.count()
        assert warm.counter.cache_hits > 0
        assert warm.counter.trie_accesses < cold.counter.trie_accesses

    def test_prepared_modes_use_separate_adhesion_caches(self, engine):
        prepared = engine.prepare(cycle_query(4), algorithm="clftj")
        count_result = prepared.count()
        evaluate_result = prepared.evaluate()  # must not trip the mode guard
        assert count_result.count == evaluate_result.count

    def test_prepared_auto_resolves_once(self, engine):
        prepared = engine.prepare(cycle_query(4), algorithm="auto")
        assert prepared.requested_algorithm == "auto"
        assert prepared.algorithm in AUTO_CANDIDATES
        result = prepared.count()
        assert result.metadata["selected_algorithm"] == prepared.algorithm
        assert result.count == engine.count(cycle_query(4), algorithm="lftj").count

    def test_prepared_drops_warm_caches_when_data_changes(self, engine, database):
        query = path_query(4)
        prepared = engine.prepare(query, algorithm="clftj")
        prepared.count()
        database.add_relation(
            Relation("E", ("src", "dst"), [(1, 2), (2, 3), (3, 4)]), replace=True
        )
        stale_free = prepared.count()
        fresh = QueryEngine(database).count(query, algorithm="clftj")
        assert stale_free.count == fresh.count == brute_force_count(query, database)

    def test_prepared_explain_mentions_the_plan_cache(self, engine):
        prepared = engine.prepare(cycle_query(4), algorithm="clftj")
        text = prepared.explain()
        assert "plan cache" in text
        assert "index cache" in text


class TestAutoSelection:
    def test_auto_rejects_explicit_planning_parameters(self, engine):
        with pytest.raises(ValueError, match="auto"):
            engine.count(cycle_query(4), algorithm="auto", cache_capacity=5)

    def test_auto_agrees_with_explicit_runs(self, engine, database):
        for query in (path_query(3), cycle_query(3), cycle_query(4)):
            auto = engine.count(query, algorithm="auto")
            explicit = engine.count(query, algorithm=auto.metadata["selected_algorithm"])
            assert auto.count == explicit.count == brute_force_count(query, database)

    def test_auto_covers_all_bench_workloads(self):
        from repro.bench.workloads import cycle_queries, path_queries

        database = skewed_edge_database(seed=2)
        engine = QueryEngine(database)
        for query in path_queries((3, 4, 5)) + cycle_queries((3, 4, 5)):
            result = engine.count(query, algorithm="auto")
            assert result.metadata["selected_algorithm"] in AUTO_CANDIDATES
            assert result.count == brute_force_count(query, database)

    def test_selector_prefers_lftj_on_single_bag_plans(self, engine):
        query = cycle_query(3)  # the triangle admits only the trivial bag
        selection = engine.selector.choose(query, engine.plan(query))
        assert selection.algorithm == "lftj"
        assert selection.costs["lftj"] < selection.costs["clftj"]

    def test_selector_prefers_caching_on_decomposable_queries(self, engine):
        # On a 6-cycle the partial-assignment estimate dwarfs the distinct
        # adhesion keys, so the caching discount dominates the probe overhead.
        query = cycle_query(6)
        selection = engine.selector.choose(query, engine.plan(query))
        assert selection.algorithm == "clftj"
        assert selection.costs["clftj"] < selection.costs["lftj"]

    def test_selection_describe_reports_costs_and_reasons(self, engine):
        query = cycle_query(4)
        selection = engine.selector.choose(query, engine.plan(query))
        text = selection.describe()
        assert "selected algorithm" in text
        for name in AUTO_CANDIDATES:
            assert name in text

    def test_selector_costs_are_finite_and_positive(self, engine):
        selection = engine.selector.choose(cycle_query(4), engine.plan(cycle_query(4)))
        for cost in selection.costs.values():
            assert cost > 0
            assert cost != float("inf")


class TestExplain:
    def test_explain_auto_shows_reasoning_and_cache_state(self, engine):
        text = engine.explain(cycle_query(4))
        assert "selected algorithm" in text
        assert "plan cache" in text
        assert "index cache" in text

    def test_explain_explicit_algorithm(self, engine):
        text = engine.explain(cycle_query(4), algorithm="clftj")
        assert "algorithm: clftj (explicit)" in text
        assert "variable order" in text

    def test_explain_reports_cached_plan_on_second_call(self, engine):
        engine.explain(cycle_query(4), algorithm="clftj")
        text = engine.explain(cycle_query(4), algorithm="clftj")
        assert "this query: cached" in text

    def test_explain_rejects_unused_parameters(self, engine):
        with pytest.raises(ValueError, match="does not use"):
            engine.explain(cycle_query(4), algorithm="lftj", cache_capacity=5)

    def test_explain_reports_newly_planned_on_a_cold_cache(self, engine):
        # The auto path consults the plan cache twice inside one explain
        # call; that internal hit must not masquerade as a warm cache.
        text = engine.explain(cycle_query(4))
        assert "this query: newly planned" in text
        assert "this query: cached" in engine.explain(cycle_query(4))

    def test_explain_reports_bypass_for_explicit_decompositions(self, engine):
        from repro.decomposition.generic import generic_decompose

        query = cycle_query(4)
        text = engine.explain(
            query, algorithm="clftj", decomposition=generic_decompose(query)
        )
        assert "bypassed (explicit decomposition)" in text

    def test_explain_planless_algorithm(self, engine):
        text = engine.explain(cycle_query(4), algorithm="lftj")
        assert "not planned" in text
