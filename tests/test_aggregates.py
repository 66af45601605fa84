"""Tests for semiring aggregates over the cached trie join."""

import random

import pytest

from repro.core.aggregates import (
    BooleanSemiring,
    CachedAggregateTrieJoin,
    CountingSemiring,
    MaxSemiring,
    MinSemiring,
    SumProductSemiring,
    aggregate_count,
    aggregate_exists,
    relation_weight_function,
)
from repro.core.cache import AdhesionCache, NeverCachePolicy, SupportThresholdPolicy
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import generic_decompose
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import brute_force_count


def _edge_weights(database: Database, relation: str = "E", seed: int = 5):
    rng = random.Random(seed)
    return {
        relation: {row: round(rng.uniform(0.5, 2.0), 3) for row in database.relation(relation).tuples}
    }


def _brute_force_aggregate(query, database, weights, combine, reduce_fn, empty):
    """Reference aggregate: enumerate results with LFTJ and fold their weights."""
    joiner = LeapfrogTrieJoin(query, database)
    order = joiner.variable_order
    values = []
    for row in joiner.evaluate():
        assignment = dict(zip(order, row))
        parts = []
        for atom in query.atoms:
            matched = tuple(
                assignment[term] if term in assignment else term.value
                for term in atom.terms
            )
            parts.append(weights[atom.relation].get(matched, 1.0))
        values.append(combine(parts))
    if not values:
        return empty
    return reduce_fn(values)


class TestCountingSemiring:
    @pytest.mark.parametrize("query_factory", [
        lambda: path_query(3),
        lambda: cycle_query(4),
        lambda: cycle_query(5),
    ])
    def test_equals_clftj_count(self, small_graph_db, query_factory):
        query = query_factory()
        decomposition = generic_decompose(query)
        expected = CachedLeapfrogTrieJoin(query, small_graph_db, decomposition).count()
        assert aggregate_count(query, small_graph_db, decomposition) == expected
        assert expected == brute_force_count(query, small_graph_db)

    def test_skewed_data(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        assert aggregate_count(query, skewed_graph_db, decomposition) == brute_force_count(
            query, skewed_graph_db
        )

    def test_policies_do_not_change_the_count(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        expected = brute_force_count(query, skewed_graph_db)
        never = CachedAggregateTrieJoin(
            query, skewed_graph_db, decomposition, CountingSemiring(),
            policy=NeverCachePolicy(),
        )
        bounded = CachedAggregateTrieJoin(
            query, skewed_graph_db, decomposition, CountingSemiring(),
            cache=AdhesionCache(capacity=3, eviction="lru"),
        )
        assert never.aggregate() == expected
        assert bounded.aggregate() == expected

    def test_caching_is_used(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        joiner = CachedAggregateTrieJoin(
            query, skewed_graph_db, decomposition, CountingSemiring()
        )
        joiner.aggregate()
        assert joiner.counter.cache_hits > 0

    def test_policy_is_bound_to_code_space_like_clftj(self):
        """The aggregate run prepares through CLFTJ (``policy.reset()`` /
        ``bind_space()``): a support-threshold policy over string values
        admits what it admits under ``count()`` — it used to be probed with
        codes against a value-space table and silently cached nothing."""
        rng = random.Random(3)
        edges = {(f"n{rng.randrange(40)}", f"n{rng.randrange(40)}") for _ in range(220)}
        database = Database([Relation("E", ("a", "b"), edges)])
        query = path_query(4)
        decomposition = generic_decompose(query)
        stored = {}
        for kind in ("count", "aggregate"):
            cache = AdhesionCache()
            policy = SupportThresholdPolicy(database, query, threshold=2)
            if kind == "count":
                joiner = CachedLeapfrogTrieJoin(
                    query, database, decomposition, policy=policy, cache=cache
                )
                value = joiner.count()
            else:
                joiner = CachedAggregateTrieJoin(
                    query, database, decomposition, CountingSemiring(),
                    policy=policy, cache=cache,
                )
                value = joiner.aggregate()
            stored[kind] = (value, len(cache))
        assert stored["aggregate"] == stored["count"]
        assert stored["count"][1] > 0

    def test_aggregate_cache_does_not_mix_with_a_count_cache(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()
        CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache).count()
        joiner = CachedAggregateTrieJoin(
            query, skewed_graph_db, decomposition, SumProductSemiring(), cache=cache
        )
        with pytest.raises(ValueError, match="aggregate:sum-product"):
            joiner.aggregate()


class TestWeightedSemirings:
    def test_sum_product_matches_brute_force(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        weights = _edge_weights(small_graph_db)
        weigh = relation_weight_function(small_graph_db, weights)
        joiner = CachedAggregateTrieJoin(
            query, small_graph_db, decomposition, SumProductSemiring(), weight=weigh
        )
        expected = _brute_force_aggregate(
            query, small_graph_db, weights,
            combine=lambda parts: __import__("math").prod(parts),
            reduce_fn=sum, empty=0.0,
        )
        assert joiner.aggregate() == pytest.approx(expected, rel=1e-9)

    def test_sum_product_on_cycles(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        weights = _edge_weights(small_graph_db, seed=11)
        weigh = relation_weight_function(small_graph_db, weights)
        joiner = CachedAggregateTrieJoin(
            query, small_graph_db, decomposition, SumProductSemiring(), weight=weigh
        )
        expected = _brute_force_aggregate(
            query, small_graph_db, weights,
            combine=lambda parts: __import__("math").prod(parts),
            reduce_fn=sum, empty=0.0,
        )
        assert joiner.aggregate() == pytest.approx(expected, rel=1e-9)

    def test_min_plus_matches_brute_force(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        weights = _edge_weights(small_graph_db, seed=3)
        weigh = relation_weight_function(small_graph_db, weights)
        joiner = CachedAggregateTrieJoin(
            query, small_graph_db, decomposition, MinSemiring(), weight=weigh
        )
        expected = _brute_force_aggregate(
            query, small_graph_db, weights,
            combine=sum, reduce_fn=min, empty=float("inf"),
        )
        assert joiner.aggregate() == pytest.approx(expected, rel=1e-9)

    def test_max_plus_matches_brute_force(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        weights = _edge_weights(small_graph_db, seed=9)
        weigh = relation_weight_function(small_graph_db, weights)
        joiner = CachedAggregateTrieJoin(
            query, small_graph_db, decomposition, MaxSemiring(), weight=weigh
        )
        expected = _brute_force_aggregate(
            query, small_graph_db, weights,
            combine=sum, reduce_fn=max, empty=float("-inf"),
        )
        assert joiner.aggregate() == pytest.approx(expected, rel=1e-9)

    def test_weighted_aggregate_is_cache_invariant(self, skewed_graph_db):
        """Bounded and unbounded caches must give the same weighted answer."""
        query = path_query(4)
        decomposition = generic_decompose(query)
        weights = _edge_weights(skewed_graph_db, seed=2)
        weigh = relation_weight_function(skewed_graph_db, weights)

        def run(cache):
            joiner = CachedAggregateTrieJoin(
                query, skewed_graph_db, decomposition, SumProductSemiring(),
                weight=weigh, cache=cache,
            )
            return joiner.aggregate()

        unbounded = run(AdhesionCache())
        tiny = run(AdhesionCache(capacity=2, eviction="lru"))
        disabled = run(AdhesionCache(capacity=0))
        assert unbounded == pytest.approx(tiny, rel=1e-9)
        assert unbounded == pytest.approx(disabled, rel=1e-9)


class TestBooleanSemiring:
    def test_non_empty_query(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        assert aggregate_exists(query, small_graph_db, decomposition)

    def test_empty_query(self):
        database = Database([Relation("E", ("src", "dst"), [(1, 2)])])
        query = cycle_query(3)
        decomposition = generic_decompose(query)
        assert not aggregate_exists(query, database, decomposition)


class TestSemiringLaws:
    @pytest.mark.parametrize("semiring", [
        CountingSemiring(), SumProductSemiring(), MinSemiring(), MaxSemiring(), BooleanSemiring(),
    ])
    def test_identities(self, semiring):
        sample = semiring.one
        assert semiring.add(semiring.zero, sample) == sample
        assert semiring.multiply(semiring.one, sample) == sample

    @pytest.mark.parametrize("semiring", [CountingSemiring(), SumProductSemiring()])
    def test_distributivity_on_samples(self, semiring):
        a, b, c = 2, 3, 4
        left = semiring.multiply(a, semiring.add(b, c))
        right = semiring.add(semiring.multiply(a, b), semiring.multiply(a, c))
        assert left == right

    def test_validation_mirrors_clftj(self, small_graph_db):
        query = path_query(3)
        wrong = generic_decompose(path_query(4))
        with pytest.raises(ValueError):
            CachedAggregateTrieJoin(query, small_graph_db, wrong, CountingSemiring())
