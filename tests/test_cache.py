"""Tests for the adhesion cache and the caching policies."""

import random
import sys

import pytest

from repro.core.cache import (
    AdhesionCache,
    AlwaysCachePolicy,
    BoundedCachePolicy,
    CompositePolicy,
    NeverCachePolicy,
    SupportThresholdPolicy,
)
from repro.core.factorized import FactorizedNode
from repro.core.instrumentation import OperationCounter
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation


class TestAdhesionCache:
    def test_miss_then_hit(self):
        cache = AdhesionCache()
        assert cache.get(1, (5,)) is None
        cache.put(1, (5,), 42)
        assert cache.get(1, (5,)) == 42

    def test_entries_keyed_per_node(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 10)
        cache.put(2, (5,), 20)
        assert cache.get(1, (5,)) == 10
        assert cache.get(2, (5,)) == 20
        assert len(cache) == 2

    def test_zero_value_is_a_hit(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 0)
        assert cache.get(1, (5,)) == 0

    def test_overwrite_existing_key(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 1)
        cache.put(1, (5,), 2)
        assert cache.get(1, (5,)) == 2
        assert len(cache) == 1

    def test_capacity_reject(self):
        cache = AdhesionCache(capacity=1, eviction="reject")
        assert cache.put(1, (1,), 10)
        assert not cache.put(1, (2,), 20)
        assert cache.get(1, (1,)) == 10
        assert cache.get(1, (2,)) is None

    def test_capacity_zero_never_stores(self):
        cache = AdhesionCache(capacity=0)
        assert not cache.put(1, (1,), 10)
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = AdhesionCache(capacity=2, eviction="lru")
        cache.put(1, (1,), "a")
        cache.put(1, (2,), "b")
        cache.get(1, (1,))          # touch (1,) so (2,) becomes LRU
        cache.put(1, (3,), "c")
        assert cache.get(1, (2,)) is None
        assert cache.get(1, (1,)) == "a"
        assert cache.get(1, (3,)) == "c"

    def test_counter_integration(self):
        counter = OperationCounter()
        cache = AdhesionCache(capacity=1, counter=counter)
        cache.get(1, (1,))
        cache.put(1, (1,), 5)
        cache.get(1, (1,))
        cache.put(1, (2,), 6)
        assert counter.cache_misses == 1
        assert counter.cache_hits == 1
        assert counter.cache_insertions == 1
        assert counter.cache_rejections == 1

    def test_invalidate_all(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(2, (1,), 1)
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_invalidate_single_node(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(2, (1,), 1)
        assert cache.invalidate(node=1) == 1
        assert cache.get(2, (1,)) == 1

    def test_entries_per_node(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(1, (2,), 1)
        cache.put(2, (1,), 1)
        assert cache.entries_per_node() == {1: 2, 2: 1}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdhesionCache(capacity=-1)
        with pytest.raises(ValueError):
            AdhesionCache(eviction="random")


def walked_memory_estimate(cache: AdhesionCache) -> int:
    """The estimate as the cache computed it before it kept a running sum:
    a ``sys.getsizeof`` walk over every entry.  Test-only reference."""
    total = sys.getsizeof(cache._entries)
    for (node, values), value in cache._entries.items():
        total += sys.getsizeof((node, values)) + sum(
            sys.getsizeof(component) for component in values
        )
        memory_entries = getattr(value, "memory_entries", None)
        if memory_entries is not None:
            total += 32 * memory_entries()
        else:
            total += sys.getsizeof(value)
    return total


def _count_value(rng: random.Random) -> int:
    # small, machine-word and multi-digit ints are different sizes, with
    # a size step at every 30-bit digit
    return rng.choice((0, 7, 2**30, 2**31, 2**60, 2**70)) + rng.randrange(100)


def _factorized_value(rng: random.Random) -> FactorizedNode:
    leaf = FactorizedNode((Variable("z"),))
    for value in range(rng.randrange(4)):
        leaf.add_entry((value,))
    root = FactorizedNode((Variable("y"),))
    for value in range(rng.randrange(1, 5)):
        root.add_entry((value,), (leaf,))
    return root


class TestRunningMemoryEstimate:
    """``memory_estimate()`` is a running sum; the walk is the reference."""

    @pytest.mark.parametrize("make_value", [_count_value, _factorized_value],
                             ids=["count", "evaluate"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"capacity": 12}, {"capacity": 12, "eviction": "lru"}],
        ids=["unbounded", "reject", "lru"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_walk_after_random_operations(self, make_value, options, seed):
        rng = random.Random(seed)
        cache = AdhesionCache(**options)
        # a count-mode cache recomputes a dropped sum at C level
        cache.bind_mode("count" if make_value is _count_value else "evaluate")
        assert cache.memory_estimate() == walked_memory_estimate(cache)
        for _step in range(400):
            roll = rng.random()
            if rng.random() < 0.05:
                cache.drop_byte_sum()  # what a store past put() does
            node = rng.randrange(1, 4)
            # keys of one and two components; few enough to collide, so a
            # put overwrites about as often as it inserts
            values = tuple(
                rng.choice((3, 4, 2**40, "a", "bc"))
                for _ in range(rng.randrange(1, 3))
            )
            if roll < 0.70:
                cache.put(node, values, make_value(rng))
            elif roll < 0.85:
                cache.get(node, values)  # reorders an LRU cache
            elif roll < 0.92:
                cache.invalidate(node)
            elif roll < 0.97:
                cache.invalidate_nodes(rng.sample((1, 2, 3), 2))
            else:
                cache.invalidate()
            # asking rebuilds the sum after an eviction, so ask only now and
            # then: the running sum has to survive the steps in between
            if rng.random() < 0.3:
                assert cache.memory_estimate() == walked_memory_estimate(cache)
        assert cache.memory_estimate() == walked_memory_estimate(cache)

    def test_an_unbounded_cache_never_walks(self):
        """Fill, overwrite and invalidate keep the sum; only an LRU eviction
        drops it until the next ``memory_estimate()``."""
        cache = AdhesionCache()
        for key in range(50):
            cache.put(1 + key % 2, (key,), key)
        cache.put(1, (0,), 2**70)
        cache.invalidate(2)
        assert cache._held_bytes is not None
        assert cache.memory_estimate() == walked_memory_estimate(cache)
        evicting = AdhesionCache(capacity=2, eviction="lru")
        for key in range(3):
            evicting.put(1, (key,), key)
        assert evicting._held_bytes is None
        assert evicting.memory_estimate() == walked_memory_estimate(evicting)
        assert evicting._held_bytes is not None

    @pytest.mark.parametrize("compile_flag", [None, False], ids=["compiled", "interpreted"])
    def test_execution_metadata_reports_the_walked_figure(self, compile_flag):
        rows = [(i, (i * 7 + 3) % 40) for i in range(120)]
        rows += [(i, (i * 3 + 1) % 40) for i in range(40)]
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query("E(a,b), E(b,c), E(c,d), E(d,e)")
        cache = AdhesionCache()
        for _run in range(2):  # the run that fills the cache, then a warm one
            result = engine.count(
                query, algorithm="clftj", cache=cache, compile=compile_flag
            )
            assert result.metadata["cache_entries"] == len(cache) > 0
            assert result.metadata["cache_memory_bytes"] == walked_memory_estimate(cache)


class TestSimplePolicies:
    def test_always(self):
        assert AlwaysCachePolicy().should_cache(1, (), (), 5)

    def test_never(self):
        policy = NeverCachePolicy()
        assert not policy.should_cache(1, (), (), 5)
        assert not policy.wants_intermediates(1)

    def test_composite_requires_all(self):
        policy = CompositePolicy([AlwaysCachePolicy(), NeverCachePolicy()])
        assert not policy.should_cache(1, (), (), 5)
        assert not policy.wants_intermediates(1)

    def test_composite_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositePolicy([])


class TestBoundedPolicy:
    def test_per_node_budget(self):
        policy = BoundedCachePolicy(max_entries_per_node=2)
        assert policy.should_cache(1, (), (1,), 0)
        assert policy.should_cache(1, (), (2,), 0)
        assert not policy.should_cache(1, (), (3,), 0)
        assert policy.should_cache(2, (), (1,), 0)  # separate budget per node

    def test_zero_budget_disables_intermediates(self):
        policy = BoundedCachePolicy(max_entries_per_node=0)
        assert not policy.wants_intermediates(1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BoundedCachePolicy(-1)


class TestSupportThresholdPolicy:
    @pytest.fixture
    def setup(self):
        rows = [(1, value) for value in range(10)] + [(2, 20), (3, 30)]
        database = Database([Relation("E", ("src", "dst"), rows)])
        query = parse_query("E(x, y), E(y, z)")
        return database, query

    def test_support_of_frequent_value(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        # value 1 occurs 10 times as a source of E -> support of x=1 is high
        assert policy.support((Variable("x"),), (1,)) >= 10

    def test_frequent_values_cached(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        assert policy.should_cache(0, (Variable("x"),), (1,), 99)

    def test_rare_values_not_cached(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        assert not policy.should_cache(0, (Variable("x"),), (3,), 99)

    def test_unknown_value_has_zero_support(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=0)
        assert policy.support((Variable("x"),), (999,)) == 0

    def test_empty_adhesion_support_is_zero(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=1)
        assert policy.support((), ()) == 0

    def test_multi_variable_support_is_minimum(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=0)
        support = policy.support((Variable("x"), Variable("y")), (1, 30))
        assert support == min(policy.support((Variable("x"),), (1,)),
                              policy.support((Variable("y"),), (30,)))

    def test_negative_threshold_rejected(self, setup):
        database, query = setup
        with pytest.raises(ValueError):
            SupportThresholdPolicy(database, query, threshold=-1)
