"""Tests for GenericDecompose / RecursiveTD and the TD enumerator."""

import pytest

from repro.decomposition.generic import (
    ROOT_SEPARATORS,
    GenericDecomposer,
    enumerate_tree_decompositions,
    generic_decompose,
)
from repro.decomposition.ordering import strongly_compatible_order, is_strongly_compatible
from repro.query.parser import parse_query
from repro.query.patterns import (
    clique_query,
    cycle_query,
    lollipop_query,
    path_query,
    random_pattern_query,
    star_query,
)


class TestGenericDecompose:
    @pytest.mark.parametrize("query_factory", [
        lambda: path_query(4),
        lambda: path_query(7),
        lambda: cycle_query(4),
        lambda: cycle_query(6),
        lambda: lollipop_query(3, 2),
        lambda: star_query(4),
        lambda: random_pattern_query(6, 0.5, seed=2),
    ])
    def test_produces_valid_decompositions(self, query_factory):
        query = query_factory()
        decomposition = generic_decompose(query)
        decomposition.validate(query)

    def test_path_decomposition_has_unit_adhesions(self):
        decomposition = generic_decompose(path_query(6))
        assert decomposition.max_adhesion_size == 1
        assert decomposition.num_nodes >= 2

    def test_cycle_decomposition_has_two_node_adhesions(self):
        decomposition = generic_decompose(cycle_query(6))
        assert decomposition.max_adhesion_size == 2
        assert decomposition.num_nodes >= 2

    def test_triangle_gives_singleton(self):
        decomposition = generic_decompose(cycle_query(3))
        assert decomposition.num_nodes == 1

    def test_clique_gives_singleton(self):
        decomposition = generic_decompose(clique_query(4))
        assert decomposition.num_nodes == 1

    def test_lollipop_keeps_triangle_in_one_bag(self):
        query = lollipop_query(3, 2)
        decomposition = generic_decompose(query)
        decomposition.validate(query)
        triangle_vars = {f"x{i}" for i in (1, 2, 3)}
        assert any(
            triangle_vars <= {v.name for v in decomposition.bag(node)}
            for node in decomposition.preorder()
        )

    def test_max_adhesion_bound_respected(self):
        decomposition = generic_decompose(cycle_query(6), max_adhesion_size=2)
        assert decomposition.max_adhesion_size <= 2

    def test_derived_order_is_strongly_compatible(self):
        for query in (path_query(5), cycle_query(5), lollipop_query()):
            decomposition = generic_decompose(query)
            order = strongly_compatible_order(decomposition)
            assert is_strongly_compatible(decomposition, order)

    def test_invalid_adhesion_size_rejected(self):
        with pytest.raises(ValueError):
            GenericDecomposer(max_adhesion_size=0)


class TestEnumeration:
    def test_yields_multiple_distinct_decompositions(self):
        decompositions = list(
            enumerate_tree_decompositions(path_query(5), max_decompositions=8)
        )
        assert len(decompositions) >= 2
        assert len({d.canonical_form() for d in decompositions}) == len(decompositions)

    def test_all_enumerated_are_valid(self):
        query = cycle_query(5)
        for decomposition in enumerate_tree_decompositions(query, max_decompositions=6):
            decomposition.validate(query)

    def test_respects_max_decompositions(self):
        decompositions = list(
            enumerate_tree_decompositions(path_query(6), max_decompositions=3)
        )
        assert len(decompositions) <= 3

    def test_expands_at_most_the_first_root_separators(self):
        # A path's inner nodes are its one-node separators, and each one
        # expanded at the root gives another decomposition.
        def count(length):
            return len(list(enumerate_tree_decompositions(
                path_query(length), max_adhesion_size=1, max_decompositions=None
            )))

        assert count(6) == 5
        assert count(12) == ROOT_SEPARATORS < 11

    def test_clique_falls_back_to_singleton(self):
        decompositions = list(enumerate_tree_decompositions(clique_query(4)))
        assert len(decompositions) == 1
        assert decompositions[0].num_nodes == 1

    def test_enumerated_decompositions_have_small_adhesions(self):
        for decomposition in enumerate_tree_decompositions(
            cycle_query(6), max_adhesion_size=2, max_decompositions=5
        ):
            assert decomposition.max_adhesion_size <= 2

    def test_multi_relation_query(self):
        query = parse_query("R(a, b), S(b, c), R(c, d), S(d, e)")
        decompositions = list(enumerate_tree_decompositions(query, max_decompositions=4))
        assert decompositions
        for decomposition in decompositions:
            decomposition.validate(query)
