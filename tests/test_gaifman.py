"""Tests for Gaifman-graph construction and the planner's graph type."""

from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.gaifman import Graph, gaifman_graph
from repro.query.patterns import cycle_query, path_query
from repro.query.terms import Variable


class TestGaifmanGraph:
    def test_path_query_gaifman_is_a_path(self):
        graph = gaifman_graph(path_query(4))
        assert len(graph.nodes) == 5
        assert len(graph.edges) == 4
        assert len(graph.connected_components()) == 1

    def test_cycle_query_gaifman_is_a_cycle(self):
        graph = gaifman_graph(cycle_query(5))
        assert len(graph.edges) == 5
        assert all(len(graph.neighbors(node)) == 2 for node in graph.nodes)
        assert len(graph.connected_components()) == 1

    def test_ternary_atom_becomes_a_triangle(self):
        query = ConjunctiveQuery([Atom("R", ("x", "y", "z"))])
        graph = gaifman_graph(query)
        assert len(graph.edges) == 3

    def test_isolated_variable_kept(self):
        query = ConjunctiveQuery([Atom("U", ("x",)), Atom("E", ("y", "z"))])
        graph = gaifman_graph(query)
        assert Variable("x") in graph.nodes
        assert len(graph.neighbors(Variable("x"))) == 0

    def test_repeated_cooccurrence_single_edge(self):
        query = ConjunctiveQuery([Atom("E", ("x", "y")), Atom("F", ("x", "y"))])
        assert len(gaifman_graph(query).edges) == 1

    def test_nodes_follow_the_query_variables(self):
        query = path_query(6)
        assert list(gaifman_graph(query).nodes) == list(query.variables)


class TestGraph:
    def test_edges_are_listed_once_in_node_order(self):
        graph = Graph("abcd", [("c", "a"), ("a", "b"), ("d", "c")])
        assert graph.edges == [("a", "c"), ("a", "b"), ("c", "d")]

    def test_subgraph_keeps_the_parent_node_order_and_is_independent(self):
        graph = Graph(range(8), [(node, node + 1) for node in range(7)])
        induced = graph.subgraph({6, 2, 5, 1})
        assert list(induced.nodes) == [1, 2, 5, 6]
        assert sorted(induced.edges) == [(1, 2), (5, 6)]
        induced.remove_nodes_from([2])
        assert 2 in graph.nodes and list(graph.neighbors(2)) == [1, 3]

    def test_copy_and_remove_nodes(self):
        graph = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        remaining = graph.copy()
        remaining.remove_nodes_from([1, 7])
        assert list(remaining.nodes) == [0, 2, 3]
        assert remaining.edges == [(0, 3), (2, 3)]
        assert len(graph.edges) == 4

    def test_connected_components_in_first_node_order(self):
        graph = Graph([5, 0, 3, 9, 1], [(0, 1), (3, 9)])
        assert graph.connected_components() == [{5}, {0, 1}, {3, 9}]
