"""Tests for the extended caching policies (admission, skew-aware)."""

import pytest

from repro.core.cache import AdhesionCache
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.policies import (
    FrequencyAdmissionPolicy,
    SkewAwarePolicy,
    policy_suite,
)
from repro.decomposition.generic import generic_decompose
from repro.engine import QueryEngine
from repro.query.patterns import cycle_query, path_query
from repro.query.terms import Variable

from tests.conftest import brute_force_count, random_edge_database


class TestFrequencyAdmissionPolicy:
    def test_first_touch_not_admitted(self):
        policy = FrequencyAdmissionPolicy(min_occurrences=2)
        assert not policy.should_cache(1, (), (5,), 10)
        assert policy.should_cache(1, (), (5,), 10)

    def test_min_occurrences_one_behaves_like_always(self):
        policy = FrequencyAdmissionPolicy(min_occurrences=1)
        assert policy.should_cache(1, (), (5,), 10)

    def test_counts_are_per_key(self):
        policy = FrequencyAdmissionPolicy(min_occurrences=2)
        policy.should_cache(1, (), (5,), 10)
        assert not policy.should_cache(1, (), (6,), 10)
        assert not policy.should_cache(2, (), (5,), 10)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            FrequencyAdmissionPolicy(min_occurrences=0)

    def test_correctness_under_clftj(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        joiner = CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition,
            policy=FrequencyAdmissionPolicy(min_occurrences=2),
        )
        assert joiner.count() == brute_force_count(query, skewed_graph_db)

    def test_reset_starts_every_execution_fresh(self, skewed_graph_db):
        """``CachePolicy.reset``'s contract: one instance reused across runs
        admits the same entries every time (it used to remember the previous
        runs' misses: 936, 664, 664 hits)."""
        engine = QueryEngine(skewed_graph_db)
        policy = FrequencyAdmissionPolicy(min_occurrences=2)
        runs = [
            engine.count(path_query(4), algorithm="clftj", policy=policy)
            for _ in range(3)
        ]
        assert runs[0].counter.cache_hits > 0
        assert (
            runs[0].counter.as_dict()
            == runs[1].counter.as_dict()
            == runs[2].counter.as_dict()
        )
        policy.should_cache(1, (), (5,), 10)
        policy.reset()
        assert not policy._seen

    def test_pool_workers_run_their_own_copy(self):
        """Every forked worker unpickles the job's policy for itself, so a
        stateful policy is never shared: the caller's instance stays
        untouched and the parallel count equals the serial one."""
        database = random_edge_database(num_nodes=60, num_edges=420, seed=11)
        engine = QueryEngine(database)
        query = path_query(4)
        serial = engine.count(query, algorithm="clftj")
        policy = FrequencyAdmissionPolicy(min_occurrences=2)
        result = engine.count(query, algorithm="clftj", policy=policy, parallel=2)
        assert result.metadata["parallel"] is True
        assert result.count == serial.count
        assert result.counter.cache_hits > 0 and not policy._seen
        database.close_pools()


class TestSkewAwarePolicy:
    def test_skewed_adhesion_enabled(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        policy = SkewAwarePolicy(skewed_graph_db, query, decomposition, min_skew=0.01)
        cached_nodes = [
            node for node in decomposition.preorder()
            if node != decomposition.root and policy.node_enabled(node)
        ]
        assert cached_nodes

    def test_impossible_threshold_disables_everything(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        policy = SkewAwarePolicy(skewed_graph_db, query, decomposition, min_skew=1.0)
        assert not any(
            policy.node_enabled(node) for node in decomposition.preorder()
        )

    def test_root_never_enabled(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        policy = SkewAwarePolicy(skewed_graph_db, query, decomposition)
        assert not policy.node_enabled(decomposition.root)

    def test_invalid_threshold(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        with pytest.raises(ValueError):
            SkewAwarePolicy(skewed_graph_db, query, decomposition, min_skew=2.0)

    def test_correctness_under_clftj(self, skewed_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        policy = SkewAwarePolicy(skewed_graph_db, query, decomposition)
        joiner = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, policy=policy)
        assert joiner.count() == brute_force_count(query, skewed_graph_db)


class TestPolicySuite:
    def test_suite_contains_all_named_policies(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        suite = policy_suite(skewed_graph_db, query, decomposition)
        assert set(suite) == {
            "always", "never", "support>=2", "second-touch", "skew-aware", "bounded-1k"
        }

    def test_every_policy_in_the_suite_is_correct(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        expected = brute_force_count(query, skewed_graph_db)
        for name, policy in policy_suite(skewed_graph_db, query, decomposition).items():
            joiner = CachedLeapfrogTrieJoin(
                query, skewed_graph_db, decomposition,
                policy=policy, cache=AdhesionCache(),
            )
            assert joiner.count() == expected, name
