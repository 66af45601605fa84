"""Tests for Cached Leapfrog Trie Join (the paper's Figure 2 algorithm)."""

import pytest

from repro.core.cache import (
    AdhesionCache,
    AlwaysCachePolicy,
    BoundedCachePolicy,
    NeverCachePolicy,
    SupportThresholdPolicy,
)
from repro.core.clftj import CachedLeapfrogTrieJoin, clftj_count
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import enumerate_tree_decompositions, generic_decompose
from repro.decomposition.ordering import strongly_compatible_order
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.patterns import clique_query, cycle_query, lollipop_query, path_query
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import brute_force_count, brute_force_evaluate, random_edge_database


def _paper_example_query():
    """The query of the paper's Figure 3 / Example 3.1."""
    return parse_query(
        "R(x1, x2), R(x2, x3), R(x2, x4), R(x3, x4), R(x3, x5), R(x4, x6)",
        name="figure3",
    )


def _paper_example_td() -> TreeDecomposition:
    """The ordered TD on the right of Figure 3."""
    return TreeDecomposition.build(
        (
            ["x1", "x2"],
            [
                (
                    ["x2", "x3", "x4"],
                    [
                        (["x3", "x5"], []),
                        (["x4", "x6"], []),
                    ],
                )
            ],
        )
    )


class TestPaperExample:
    def test_count_on_example_database(self, tiny_db):
        query = _paper_example_query()
        decomposition = _paper_example_td()
        order = tuple(Variable(f"x{i}") for i in range(1, 7))
        joiner = CachedLeapfrogTrieJoin(query, tiny_db, decomposition, order)
        # Every variable ranges freely over {1, 2}: 2^6 results.
        assert joiner.count() == 64
        assert joiner.count() == brute_force_count(query, tiny_db)

    def test_cache_stores_the_value_16_for_the_subtree(self, tiny_db):
        """Example 3.1: the subtree owning x3..x6 has 16 assignments per x2 value."""
        query = _paper_example_query()
        decomposition = _paper_example_td()
        order = tuple(Variable(f"x{i}") for i in range(1, 7))
        cache = AdhesionCache()
        CachedLeapfrogTrieJoin(query, tiny_db, decomposition, order, cache=cache).count()
        subtree_node = 1  # the child bag {x2, x3, x4}
        # Adhesion keys live in dictionary-code space.
        code = tiny_db.dictionary.code_of
        assert cache.get(subtree_node, (code(1),)) == 16
        assert cache.get(subtree_node, (code(2),)) == 16

    def test_cache_hits_occur_on_second_x2_value(self, tiny_db):
        query = _paper_example_query()
        counter = OperationCounter()
        joiner = CachedLeapfrogTrieJoin(
            query, tiny_db, _paper_example_td(),
            tuple(Variable(f"x{i}") for i in range(1, 7)),
            counter=counter,
        )
        joiner.count()
        assert counter.cache_hits >= 1

    def test_evaluation_matches_brute_force(self, tiny_db):
        query = _paper_example_query()
        joiner = CachedLeapfrogTrieJoin(query, tiny_db, _paper_example_td())
        produced = {
            tuple(row[variable] for variable in query.variables)
            for row in joiner.evaluate_all()
        }
        assert produced == brute_force_evaluate(query, tiny_db)


class TestAgreementWithLftjAndBruteForce:
    @pytest.mark.parametrize("query_factory", [
        lambda: path_query(3),
        lambda: path_query(4),
        lambda: cycle_query(4),
        lambda: cycle_query(5),
        lambda: lollipop_query(3, 2),
    ])
    def test_counts_agree(self, small_graph_db, query_factory):
        query = query_factory()
        expected = brute_force_count(query, small_graph_db)
        decomposition = generic_decompose(query)
        assert clftj_count(query, small_graph_db, decomposition) == expected
        assert LeapfrogTrieJoin(query, small_graph_db).count() == expected

    def test_counts_agree_on_every_enumerated_decomposition(self, small_graph_db):
        query = cycle_query(5)
        expected = brute_force_count(query, small_graph_db)
        decompositions = list(enumerate_tree_decompositions(query, max_decompositions=6))
        assert decompositions
        for decomposition in decompositions:
            assert clftj_count(query, small_graph_db, decomposition) == expected

    def test_counts_agree_on_skewed_data(self, skewed_graph_db):
        query = path_query(4)
        expected = brute_force_count(query, skewed_graph_db)
        decomposition = generic_decompose(query)
        assert clftj_count(query, skewed_graph_db, decomposition) == expected

    def test_evaluation_sets_agree(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        joiner = CachedLeapfrogTrieJoin(query, small_graph_db, decomposition)
        produced = {
            tuple(row[variable] for variable in query.variables)
            for row in joiner.evaluate_all()
        }
        assert produced == brute_force_evaluate(query, small_graph_db)

    def test_multi_relation_query(self, two_relation_db):
        query = parse_query("R(x, y), S(y, z), R(z, w)")
        decomposition = generic_decompose(query)
        assert clftj_count(query, two_relation_db, decomposition) == brute_force_count(
            query, two_relation_db
        )

    def test_clique_degenerates_to_singleton_decomposition(self, small_graph_db):
        query = clique_query(3)
        decomposition = TreeDecomposition.singleton(query.variables)
        counter = OperationCounter()
        joiner = CachedLeapfrogTrieJoin(query, small_graph_db, decomposition, counter=counter)
        assert joiner.count() == brute_force_count(query, small_graph_db)
        # A single bag has no adhesions, so nothing can ever be cached.
        assert counter.cache_hits == 0
        assert counter.cache_insertions == 0


#: The end-to-end benchmark's query shapes, by their benchmark names.
PARITY_QUERIES = {
    "tri": "E(a,b), E(b,c), E(c,a)",
    "p2": "E(a,b), E(b,c)",
    "p3": "E(a,b), E(b,c), E(c,d)",
    "p4": "E(a,b), E(b,c), E(c,d), E(d,e)",
    "c4": "E(a,b), E(b,c), E(c,d), E(d,a)",
    "c5": "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
    "lol": "E(a,b), E(a,c), E(b,c), E(c,d), E(d,e)",
}


def _parity_database(storage: str, query) -> Database:
    """The random graph over compacted tries, or with a resident delta level.

    ``delta``: the tries are built from all but the last ten edges, then an
    insert of those and a delete of five others land as an unmerged LSM
    delta level (no compaction floor, a threshold above the stream).  Its
    impure merged levels expose no run, which is what sends the walk to the
    per-key ``LeapfrogJoin``.
    """
    edges = sorted(random_edge_database(num_edges=70).relation("E").tuples)
    if storage == "compacted":
        return Database([Relation("E", ("src", "dst"), edges)])
    database = Database(
        [Relation("E", ("src", "dst"), edges[:-10])],
        compaction_floor=0, compaction_threshold=100.0,
    )
    LeapfrogTrieJoin(query, database)  # build the tries the updates patch
    database.insert("E", edges[-10:])
    database.delete("E", edges[:5])
    return database


class TestNoCachingCoincidesWithLftj:
    """Section 3.2: with no caching the two algorithms coincide."""

    @pytest.mark.parametrize("storage", ["compacted", "delta"])
    @pytest.mark.parametrize("mode", ["count", "evaluate_coded"])
    @pytest.mark.parametrize("name", sorted(PARITY_QUERIES))
    def test_never_cache_runs_lftjs_trie_operations(self, name, mode, storage):
        """Under the planner's decomposition and order, CLFTJ with
        ``NeverCachePolicy`` gives LFTJ's result (rows in the same order)
        and every counter but the misses its cache consults record."""
        query = parse_query(PARITY_QUERIES[name], name=name)
        database = _parity_database(storage, query)
        plan = QueryEngine(database).plan(query)
        lftj = LeapfrogTrieJoin(query, database, plan.variable_order, OperationCounter())
        clftj = CachedLeapfrogTrieJoin(
            query, database, plan.decomposition, plan.variable_order,
            policy=NeverCachePolicy(), counter=OperationCounter(),
        )
        if storage == "delta":
            assert lftj.execution_metadata()["delta_tries"] > 0
        if mode == "count":
            expected = brute_force_count(query, database)
            assert lftj.count() == clftj.count() == expected
        else:
            rows = list(lftj.evaluate_coded())
            assert rows == list(clftj.evaluate_coded())
            assert len(rows) == brute_force_count(query, database)
        lftj_counts = lftj.counter.as_dict()
        clftj_counts = clftj.counter.as_dict()
        assert lftj_counts.pop("cache_misses") == 0
        clftj_counts.pop("cache_misses")
        assert clftj_counts == lftj_counts

    def test_zero_capacity_cache_behaves_like_lftj(self, small_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        order = strongly_compatible_order(decomposition)
        lftj_counter = OperationCounter()
        LeapfrogTrieJoin(query, small_graph_db, order, lftj_counter).count()
        clftj_counter = OperationCounter()
        CachedLeapfrogTrieJoin(
            query, small_graph_db, decomposition, order,
            cache=AdhesionCache(capacity=0), counter=clftj_counter,
        ).count()
        assert clftj_counter.trie_accesses == lftj_counter.trie_accesses
        assert clftj_counter.cache_hits == 0


class TestCachingBenefits:
    def test_caching_reduces_trie_traffic_on_skewed_data(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        order = strongly_compatible_order(decomposition)

        lftj_counter = OperationCounter()
        LeapfrogTrieJoin(query, skewed_graph_db, order, lftj_counter).count()

        clftj_counter = OperationCounter()
        CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition, order, counter=clftj_counter
        ).count()

        assert clftj_counter.cache_hits > 0
        assert clftj_counter.trie_accesses < lftj_counter.trie_accesses

    def test_bounded_cache_still_correct_and_smaller(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        expected = brute_force_count(query, skewed_graph_db)
        bounded = AdhesionCache(capacity=5, eviction="lru")
        joiner = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=bounded)
        assert joiner.count() == expected
        assert len(bounded) <= 5

    def test_support_threshold_policy_correct(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        policy = SupportThresholdPolicy(skewed_graph_db, query, threshold=3)
        expected = brute_force_count(query, skewed_graph_db)
        assert clftj_count(query, skewed_graph_db, decomposition, policy=policy) == expected

    def test_bounded_per_node_policy_correct(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        policy = BoundedCachePolicy(max_entries_per_node=2)
        expected = brute_force_count(query, skewed_graph_db)
        assert clftj_count(query, skewed_graph_db, decomposition, policy=policy) == expected

    def test_cache_report_structure(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        joiner = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition)
        joiner.count()
        report = joiner.cache_report()
        assert report["entries"] == len(joiner.cache)
        assert report["hits"] == joiner.counter.cache_hits
        assert 0.0 <= report["hit_rate"] <= 1.0

    def test_cache_reuse_across_runs(self, skewed_graph_db):
        """A warm cache turns the second count into mostly cache hits."""
        query = path_query(4)
        decomposition = generic_decompose(query)
        cache = AdhesionCache()
        first = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        cold_count = first.count()
        second = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition, cache=cache)
        warm_count = second.count()
        assert cold_count == warm_count
        assert second.counter.trie_accesses < first.counter.trie_accesses


class TestEvaluationVariant:
    def test_counts_match_evaluation_cardinality(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        count = CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition).count()
        rows = list(CachedLeapfrogTrieJoin(query, skewed_graph_db, decomposition).evaluate())
        assert count == len(rows)
        assert len(rows) == len(set(rows))

    def test_never_cache_evaluation_matches_lftj(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        order = strongly_compatible_order(decomposition)
        clftj_rows = set(
            CachedLeapfrogTrieJoin(
                query, small_graph_db, decomposition, order, policy=NeverCachePolicy()
            ).evaluate()
        )
        lftj_rows = set(LeapfrogTrieJoin(query, small_graph_db, order).evaluate())
        assert clftj_rows == lftj_rows

    def test_evaluation_with_bounded_cache(self, skewed_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        expected = brute_force_evaluate(query, skewed_graph_db)
        joiner = CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition,
            cache=AdhesionCache(capacity=4, eviction="lru"),
        )
        produced = {
            tuple(row[variable] for variable in query.variables)
            for row in joiner.evaluate_all()
        }
        assert produced == expected


class TestValidation:
    def test_incompatible_order_rejected(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        order = strongly_compatible_order(decomposition)
        bad_order = tuple(reversed(order))
        with pytest.raises(ValueError):
            CachedLeapfrogTrieJoin(query, small_graph_db, decomposition, bad_order)

    def test_decomposition_must_match_query(self, small_graph_db):
        query = path_query(3)
        other = generic_decompose(path_query(4))
        with pytest.raises(ValueError):
            CachedLeapfrogTrieJoin(query, small_graph_db, other)

    def test_ownerless_bags_are_contracted(self, small_graph_db):
        query = path_query(2)
        # Node 1's bag is contained in the root bag, so it owns nothing.
        decomposition = TreeDecomposition(
            [["x1", "x2", "x3"], ["x2", "x3"]], [None, 0]
        )
        joiner = CachedLeapfrogTrieJoin(query, small_graph_db, decomposition)
        assert joiner.decomposition.num_nodes == 1
        assert joiner.count() == brute_force_count(query, small_graph_db)
