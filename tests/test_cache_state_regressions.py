"""Regression tests for cache-state bugs fixed alongside the columnar backend.

Each test class documents one bug that existed in the seed implementation:
stale counter bindings on reused adhesion caches, self-join support
inflation, sticky per-node admission budgets, and ``QueryEngine.compare``
dropping its planning parameters.
"""

import pytest

from repro.core.cache import (
    AdhesionCache,
    BoundedCachePolicy,
    CompositePolicy,
    NeverCachePolicy,
    SupportThresholdPolicy,
)
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.decomposition.generic import generic_decompose
from repro.engine.engine import QueryEngine
from repro.query.patterns import clique_query, path_query
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation


class TestCacheCounterRebinding:
    """A cache reused across executions (the Figure 10 workflow) must record
    hits/misses on the *current* execution's counter, not the first one's."""

    def test_second_executor_sees_cache_traffic(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()

        first = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        first.count()
        assert first.counter.cache_lookups > 0

        second = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        second.count()
        # Before the fix the cache kept pointing at first.counter, so the
        # second execution reported zero lookups despite a warm cache.
        assert second.counter.cache_lookups > 0
        assert second.counter.cache_hits > 0
        assert cache.counter is second.counter

    def test_rebinding_overrides_a_foreign_counter(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        stale = OperationCounter()
        cache = AdhesionCache(counter=stale)
        joiner = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        joiner.count()
        assert stale.cache_lookups == 0
        assert joiner.counter.cache_lookups > 0


class TestCacheModeGuard:
    """Sharing one cache between count and evaluate must fail loudly, not
    crash deep inside a join on a type-confused entry."""

    def test_count_then_evaluate_raises_cleanly(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()
        CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache).count()
        assert len(cache) > 0
        joiner = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        with pytest.raises(ValueError, match="count.*mode"):
            list(joiner.evaluate())

    def test_empty_cache_may_switch_modes(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()
        first = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        expected = first.count()
        cache.invalidate()
        second = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        assert len(list(second.evaluate())) == expected

    def test_same_mode_reuse_still_works(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()
        a = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache).count()
        b = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache).count()
        assert a == b


class TestSupportThresholdSelfJoins:
    """Support must count each (relation, attribute) column once per variable;
    self-joins must not multiply it per atom."""

    @pytest.fixture
    def db(self) -> Database:
        # Value 5 occurs exactly 3 times in E.src and never in E.dst.
        rows = [(5, 10), (5, 11), (5, 12), (1, 2), (2, 3), (3, 1)]
        return Database([Relation("E", ("src", "dst"), rows)], name="support")

    def test_self_join_support_not_inflated(self, db):
        # In the triangle clique E(x1,x2), E(x1,x3), E(x2,x3) the variable x1
        # sits on E.src in two atoms; the seed summed that column twice.
        query = clique_query(3)
        policy = SupportThresholdPolicy(db, query, threshold=3)
        assert policy.support((Variable("x1"),), (5,)) == 3
        assert not policy.should_cache(0, (Variable("x1"),), (5,), 1)

    def test_distinct_columns_still_accumulate(self, db):
        # x2 appears on E.dst (atom 1) and E.src (atom 3): two different
        # columns, so their counts legitimately add up.
        query = clique_query(3)
        policy = SupportThresholdPolicy(db, query, threshold=0)
        counts = db.relation("E").value_counts("src")
        dst_counts = db.relation("E").value_counts("dst")
        value = 2
        assert policy.support((Variable("x2"),), (value,)) == (
            counts.get(value, 0) + dst_counts.get(value, 0)
        )


class TestBoundedPolicyReset:
    """The per-node admission budget must restart for every execution."""

    def test_unit_reset_restores_budget(self):
        policy = BoundedCachePolicy(max_entries_per_node=1)
        assert policy.should_cache(0, (), (), 1)
        assert not policy.should_cache(0, (), (), 1)
        policy.reset()
        assert policy.should_cache(0, (), (), 1)

    def test_composite_reset_is_recursive(self):
        inner = BoundedCachePolicy(max_entries_per_node=1)
        composite = CompositePolicy([CompositePolicy([inner]), NeverCachePolicy()])
        assert inner.should_cache(0, (), (), 1)
        composite.reset()
        assert inner.should_cache(0, (), (), 1)

    def test_second_execution_admits_again(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        policy = BoundedCachePolicy(max_entries_per_node=2)

        first = OperationCounter()
        CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition,
            policy=policy, cache=AdhesionCache(), counter=first,
        ).count()
        assert first.cache_insertions > 0

        second = OperationCounter()
        CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition,
            policy=policy, cache=AdhesionCache(), counter=second,
        ).count()
        # Before the fix the budget was already exhausted, so a fresh cache
        # silently admitted nothing on the second run.
        assert second.cache_insertions == first.cache_insertions


class TestCompareForwardsParameters:
    """compare() must parameterise runs like single-algorithm count/evaluate."""

    def test_variable_order_is_forwarded(self, small_graph_db):
        engine = QueryEngine(small_graph_db)
        query = path_query(3)
        x1, x2, x3, x4 = query.variables
        # Neither the textual nor the planned order, yet strongly compatible
        # with the decomposition CLFTJ plans for the path.
        order = (x3, x2, x1, x4)
        assert order != engine.plan(query).variable_order
        results = engine.compare(
            query, algorithms=("lftj", "clftj"), variable_order=order
        )
        assert results["lftj"].variable_order == order
        assert results["clftj"].variable_order == order
        assert results["lftj"].count == results["clftj"].count

    def test_policy_is_forwarded(self, skewed_graph_db):
        engine = QueryEngine(skewed_graph_db)
        query = path_query(4)
        results = engine.compare(
            query, algorithms=("clftj",), policy=NeverCachePolicy()
        )
        assert results["clftj"].counter.cache_insertions == 0

    def test_cache_capacity_is_forwarded(self, skewed_graph_db):
        engine = QueryEngine(skewed_graph_db)
        query = path_query(4)
        results = engine.compare(query, algorithms=("clftj",), cache_capacity=0)
        assert results["clftj"].metadata["cache_entries"] == 0

    def test_decomposition_is_forwarded(self, small_graph_db):
        engine = QueryEngine(small_graph_db)
        query = path_query(3)
        decomposition = generic_decompose(query)
        results = engine.compare(
            query, algorithms=("clftj", "ytd"), decomposition=decomposition
        )
        for result in results.values():
            assert result.metadata["num_bags"] == decomposition.num_nodes

    def test_evaluate_mode_forwards_too(self, small_graph_db):
        engine = QueryEngine(small_graph_db)
        query = path_query(3)
        order = tuple(reversed(query.variables))
        results = engine.compare(
            query, algorithms=("lftj",), mode="evaluate", variable_order=order
        )
        assert results["lftj"].variable_order == order

    def test_unknown_mode_still_rejected(self, small_graph_db):
        engine = QueryEngine(small_graph_db)
        with pytest.raises(ValueError):
            engine.compare(path_query(3), mode="explain")
