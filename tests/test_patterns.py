"""Tests for the query-pattern generators (paths, cycles, cliques, lollipops, ...)."""

import pytest

from repro.query.gaifman import gaifman_graph
from repro.query.patterns import (
    bipartite_cycle_query,
    clique_query,
    cycle_query,
    graph_pattern_query,
    lollipop_query,
    path_query,
    random_pattern_query,
    star_query,
)
from repro.query.terms import Variable


class TestPathQuery:
    def test_atom_count_matches_length(self):
        assert len(path_query(4)) == 4

    def test_variable_count_is_length_plus_one(self):
        assert len(path_query(4).variables) == 5

    def test_chained_structure(self):
        query = path_query(3)
        assert query.atoms[0].terms[1] == query.atoms[1].terms[0]

    def test_name(self):
        assert path_query(5).name == "5-path"

    def test_length_zero_rejected(self):
        with pytest.raises(ValueError):
            path_query(0)


class TestCycleQuery:
    def test_atom_count(self):
        assert len(cycle_query(5)) == 5

    def test_variables_equal_length(self):
        assert len(cycle_query(5).variables) == 5

    def test_closes_the_cycle(self):
        query = cycle_query(4)
        assert query.atoms[-1].terms[1] == query.atoms[0].terms[0]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            cycle_query(2)

    def test_gaifman_graph_is_a_cycle(self):
        graph = gaifman_graph(cycle_query(6))
        assert all(len(graph.neighbors(node)) == 2 for node in graph.nodes)


class TestCliqueAndStar:
    def test_clique_atom_count(self):
        assert len(clique_query(4)) == 6

    def test_clique_gaifman_is_complete(self):
        graph = gaifman_graph(clique_query(5))
        assert len(graph.edges) == 10

    def test_star_structure(self):
        query = star_query(4)
        assert len(query) == 4
        hub = Variable("x1")
        assert all(hub in atom.variable_set() for atom in query.atoms)

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            clique_query(1)
        with pytest.raises(ValueError):
            star_query(0)


class TestLollipop:
    def test_default_is_3_2(self):
        query = lollipop_query()
        # triangle (3 atoms) + tail of 2 edges
        assert len(query) == 5
        assert len(query.variables) == 5

    def test_name(self):
        assert lollipop_query(3, 2).name == "{3,2}-lollipop"

    def test_tail_attaches_to_the_clique(self):
        query = lollipop_query(3, 2)
        tail_atom = query.atoms[3]
        assert Variable("x3") in tail_atom.variable_set()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lollipop_query(2, 2)
        with pytest.raises(ValueError):
            lollipop_query(3, 0)


class TestGraphPatternQuery:
    def test_explicit_edges(self):
        query = graph_pattern_query([(1, 2), (2, 3)])
        assert len(query) == 2
        assert query.variables == (Variable("x1"), Variable("x2"), Variable("x3"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            graph_pattern_query([])


class TestRandomPatternQuery:
    def test_deterministic_for_seed(self):
        first = random_pattern_query(5, 0.5, seed=7)
        second = random_pattern_query(5, 0.5, seed=7)
        assert first == second

    def test_connected_by_default(self):
        query = random_pattern_query(6, 0.4, seed=3)
        graph = gaifman_graph(query)
        assert len(graph.connected_components()) == 1

    def test_name_mentions_parameters(self):
        assert "5-rand(0.4)" == random_pattern_query(5, 0.4, seed=1).name

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_pattern_query(5, 0.0, seed=1)


class TestBipartiteCycle:
    def test_four_cycle_shape(self):
        query = bipartite_cycle_query(4)
        assert len(query) == 4
        assert len(query.variables) == 4
        assert set(query.relation_names) == {"male_cast", "female_cast"}

    def test_six_cycle_shape(self):
        query = bipartite_cycle_query(6)
        assert len(query) == 6
        assert len(query.variables) == 6

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            bipartite_cycle_query(5)

    def test_gaifman_is_a_cycle(self):
        graph = gaifman_graph(bipartite_cycle_query(6))
        assert all(len(graph.neighbors(node)) == 2 for node in graph.nodes)
