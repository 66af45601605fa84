"""Tests for the planner and execution plans."""

import pytest

from repro.core.cache import AlwaysCachePolicy, NeverCachePolicy, SupportThresholdPolicy
from repro.decomposition.generic import generic_decompose
from repro.decomposition.ordering import is_strongly_compatible
from repro.engine.engine import QueryEngine
from repro.engine.planner import ExecutionPlan, Planner
from repro.query.patterns import clique_query, cycle_query, path_query


class TestPlanner:
    def test_plan_produces_strongly_compatible_order(self, skewed_graph_db):
        planner = Planner(skewed_graph_db)
        plan = planner.plan(cycle_query(5))
        assert is_strongly_compatible(
            plan.decomposition.contract_ownerless_bags(), plan.variable_order
        )

    def test_plan_validates_against_query(self, skewed_graph_db):
        planner = Planner(skewed_graph_db)
        plan = planner.plan(path_query(5))
        plan.decomposition.validate(path_query(5))

    def test_plan_uses_provided_decomposition(self, skewed_graph_db):
        planner = Planner(skewed_graph_db)
        query = path_query(4)
        decomposition = generic_decompose(query)
        plan = planner.plan(query, decomposition=decomposition)
        assert plan.decomposition is decomposition

    def test_plan_default_policy_is_always(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(path_query(3))
        assert isinstance(plan.policy, AlwaysCachePolicy)

    def test_support_threshold_policy_injected(self, skewed_graph_db):
        query = path_query(3)
        policy = SupportThresholdPolicy(skewed_graph_db, query, threshold=2)
        plan = Planner(skewed_graph_db).plan(query, policy=policy)
        assert plan.policy is policy

    def test_explicit_policy_wins(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(path_query(3), policy=NeverCachePolicy())
        assert isinstance(plan.policy, NeverCachePolicy)

    def test_support_threshold_policy_runs_through_the_engine(self, skewed_graph_db):
        engine = QueryEngine(skewed_graph_db)
        query = path_query(3)
        policy = SupportThresholdPolicy(skewed_graph_db, query, threshold=2)
        result = engine.count(query, algorithm="clftj", policy=policy)
        assert result.count == engine.count(query, algorithm="lftj").count
        assert result.metadata["compiled_reason"] == (
            "cache policy SupportThresholdPolicy runs interpreted"
        )

    def test_clique_plan_falls_back_to_singleton(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(clique_query(3))
        assert plan.decomposition.num_nodes == 1


class TestExecutionPlan:
    def test_make_cache_unbounded_by_default(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(path_query(3))
        cache = plan.make_cache()
        assert cache.capacity is None

    def test_make_cache_respects_capacity(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(path_query(3), cache_capacity=7)
        cache = plan.make_cache()
        assert cache.capacity == 7
        assert cache.eviction == "lru"

    def test_describe_mentions_order_and_bags(self, skewed_graph_db):
        plan = Planner(skewed_graph_db).plan(cycle_query(4), cache_capacity=5)
        description = plan.describe()
        assert "variable order" in description
        assert "bags" in description
        assert "cache capacity: 5" in description
