"""Tests for the YTD baseline (Yannakakis over a tree decomposition)."""

import pytest

from repro.baselines.yannakakis import YannakakisTreeJoin, ytd_count
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import enumerate_tree_decompositions, generic_decompose
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.parser import parse_query
from repro.query.patterns import (
    clique_query,
    cycle_query,
    lollipop_query,
    path_query,
    star_query,
)

from tests.conftest import brute_force_count, brute_force_evaluate


class TestCounts:
    @pytest.mark.parametrize("query_factory", [
        lambda: path_query(3),
        lambda: path_query(5),
        lambda: cycle_query(4),
        lambda: cycle_query(5),
        lambda: star_query(3),
        lambda: lollipop_query(3, 2),
    ])
    def test_matches_brute_force(self, small_graph_db, query_factory):
        query = query_factory()
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == (
            brute_force_count(query, small_graph_db)
        )

    def test_skewed_data(self, skewed_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, skewed_graph_db, decomposition).count() == (
            brute_force_count(query, skewed_graph_db)
        )

    def test_singleton_decomposition(self, small_graph_db):
        query = cycle_query(3)
        decomposition = TreeDecomposition.singleton(query.variables)
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == (
            brute_force_count(query, small_graph_db)
        )

    def test_multi_relation_query(self, two_relation_db):
        query = parse_query("R(x, y), S(y, z), R(z, w)")
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, two_relation_db, decomposition).count() == (
            brute_force_count(query, two_relation_db)
        )

    def test_manual_decomposition(self, small_graph_db):
        query = path_query(4)
        decomposition = TreeDecomposition.path(
            [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x5"]]
        )
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == (
            brute_force_count(query, small_graph_db)
        )

    def test_convenience_wrapper(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        assert ytd_count(query, small_graph_db, decomposition) == brute_force_count(
            query, small_graph_db
        )

    def test_empty_result(self, small_graph_db):
        query = parse_query("E(x, y), E(y, x), E(x, 99999)")
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == 0


class TestEvaluation:
    def test_assignments_match_brute_force(self, small_graph_db):
        query = path_query(3)
        decomposition = generic_decompose(query)
        joiner = YannakakisTreeJoin(query, small_graph_db, decomposition)
        produced = {
            tuple(row[variable] for variable in query.variables)
            for row in joiner.evaluate()
        }
        assert produced == brute_force_evaluate(query, small_graph_db)

    def test_evaluate_tuples_helper(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        rows = YannakakisTreeJoin(query, small_graph_db, decomposition).evaluate_tuples()
        assert set(rows) == brute_force_evaluate(query, small_graph_db)

    def test_count_equals_evaluation_cardinality(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        count = YannakakisTreeJoin(query, small_graph_db, decomposition).count()
        rows = YannakakisTreeJoin(query, small_graph_db, decomposition).evaluate_tuples()
        assert count == len(set(rows)) == len(rows)


class TestBehaviour:
    def test_bag_sizes_reported(self, small_graph_db):
        query = path_query(4)
        decomposition = generic_decompose(query)
        joiner = YannakakisTreeJoin(query, small_graph_db, decomposition)
        joiner.count()
        sizes = joiner.bag_sizes()
        assert sizes
        assert all(size >= 0 for size in sizes.values())

    def test_materialisation_is_counted(self, small_graph_db):
        counter = OperationCounter()
        query = path_query(4)
        decomposition = generic_decompose(query)
        YannakakisTreeJoin(query, small_graph_db, decomposition, counter).count()
        assert counter.tuples_materialized > 0
        assert counter.hash_probes > 0

    def test_ytd_materialises_more_than_clftj(self, skewed_graph_db):
        """The paper's point: YTD always materialises full bag relations."""
        from repro.core.clftj import CachedLeapfrogTrieJoin

        query = path_query(4)
        decomposition = generic_decompose(query)
        ytd_counter = OperationCounter()
        YannakakisTreeJoin(query, skewed_graph_db, decomposition, ytd_counter).count()
        clftj_counter = OperationCounter()
        CachedLeapfrogTrieJoin(
            query, skewed_graph_db, decomposition, counter=clftj_counter
        ).count()
        assert ytd_counter.tuples_materialized > clftj_counter.tuples_materialized

    def test_invalid_decomposition_rejected(self, small_graph_db):
        query = path_query(3)
        wrong = generic_decompose(path_query(4))
        with pytest.raises(ValueError):
            YannakakisTreeJoin(query, small_graph_db, wrong)


class TestBagJoins:
    """Every bag is joined by LFTJ over the database's shared tries."""

    @pytest.mark.parametrize("query_factory", [
        pytest.param(lambda: path_query(2), id="path2"),
        pytest.param(lambda: path_query(4), id="path4"),
        pytest.param(lambda: cycle_query(3), id="cycle3"),
        pytest.param(lambda: clique_query(3), id="clique3"),
        pytest.param(lambda: star_query(4), id="star4"),
    ])
    def test_matches_brute_force(self, small_graph_db, query_factory):
        query = query_factory()
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == (
            brute_force_count(query, small_graph_db)
        )

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_every_enumerated_decomposition_agrees(self, small_graph_db, length):
        query = cycle_query(length)
        expected = brute_force_count(query, small_graph_db)
        decompositions = list(enumerate_tree_decompositions(query))
        assert decompositions
        for decomposition in decompositions:
            assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == expected

    def test_matches_lftj_on_skewed_data(self, skewed_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, skewed_graph_db, decomposition).count() == (
            LeapfrogTrieJoin(query, skewed_graph_db).count()
        )

    def test_two_relation_bag(self, two_relation_db):
        query = parse_query("R(x, y), S(y, z)")
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, two_relation_db, decomposition).count() == (
            brute_force_count(query, two_relation_db)
        )

    @pytest.mark.parametrize("text", [
        pytest.param("E(x, y), E(y, 3)", id="one-bag"),
        pytest.param("E(x, y), E(y, z), E(z, w), E(w, 3)", id="across-bags"),
    ])
    def test_query_with_constant(self, small_graph_db, text):
        query = parse_query(text)
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, small_graph_db, decomposition).count() == (
            brute_force_count(query, small_graph_db)
        )

    def test_evaluate_tuples_follow_a_custom_order(self, small_graph_db):
        query = cycle_query(4)
        decomposition = generic_decompose(query)
        reversed_order = tuple(reversed(query.variables))
        rows = YannakakisTreeJoin(query, small_graph_db, decomposition).evaluate_tuples(
            reversed_order
        )
        expected = {tuple(reversed(row)) for row in brute_force_evaluate(query, small_graph_db)}
        assert set(rows) == expected

    def test_bag_joins_are_counted_in_trie_accesses(self, small_graph_db):
        counter = OperationCounter()
        query = cycle_query(5)
        decomposition = generic_decompose(query)
        YannakakisTreeJoin(query, small_graph_db, decomposition, counter).count()
        assert counter.trie_seeks > 0
        assert counter.trie_accesses > 0
        assert counter.memory_accesses > counter.hash_probes + counter.tuples_materialized

    def test_repeated_counts_rematerialise_the_same_bags(self, small_graph_db):
        query = cycle_query(5)
        decomposition = generic_decompose(query)
        joiner = YannakakisTreeJoin(query, small_graph_db, decomposition)
        first = joiner.count()
        first_sizes = joiner.bag_sizes()
        assert joiner.count() == first
        assert joiner.bag_sizes() == first_sizes
