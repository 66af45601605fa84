"""Tests for constrained separators and their ranked enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition.separators import (
    component_side,
    enumerate_constrained_separators,
    is_separating_set,
    minimum_constrained_separator,
)
from repro.query.gaifman import Graph


def path_graph(length: int) -> Graph:
    return Graph(range(length), zip(range(length - 1), range(1, length)))


def cycle_graph(length: int) -> Graph:
    return Graph(range(length), [(node, (node + 1) % length) for node in range(length)])


def complete_graph(size: int) -> Graph:
    return Graph(range(size), [(u, v) for u in range(size) for v in range(u + 1, size)])


def star_graph(rays: int) -> Graph:
    return Graph(range(rays + 1), [(0, leaf) for leaf in range(1, rays + 1)])


class TestIsSeparatingSet:
    def test_middle_of_a_path_separates(self):
        assert is_separating_set(path_graph(5), {2})

    def test_endpoint_does_not_separate(self):
        assert not is_separating_set(path_graph(5), {0})

    def test_cycle_needs_two_nodes(self):
        assert not is_separating_set(cycle_graph(5), {0})
        assert is_separating_set(cycle_graph(5), {0, 2})

    def test_constraint_side_must_be_avoidable(self):
        # {2} separates the path 0-1-2-3-4, and the component {3,4} avoids C={0}.
        assert is_separating_set(path_graph(5), {2}, constraint={0})
        # With C covering both sides no component is disjoint from C.
        assert not is_separating_set(path_graph(5), {2}, constraint={0, 4})

    def test_removing_everything_is_not_separating(self):
        assert not is_separating_set(path_graph(3), {0, 1, 2})

    def test_nodes_outside_the_graph_are_ignored(self):
        assert is_separating_set(path_graph(5), {2, 9})
        assert not is_separating_set(path_graph(5), {0, 9})


class TestMinimumConstrainedSeparator:
    def test_path_minimum_is_single_node(self):
        separator = minimum_constrained_separator(path_graph(5))
        assert separator is not None
        assert len(separator) == 1
        assert is_separating_set(path_graph(5), separator)

    def test_cycle_minimum_is_two_nodes(self):
        separator = minimum_constrained_separator(cycle_graph(6))
        assert separator is not None
        assert len(separator) == 2

    def test_star_centre_is_the_only_separator(self):
        star = star_graph(4)  # centre 0
        separator = minimum_constrained_separator(star)
        assert separator == frozenset({0})

    def test_clique_has_no_separator(self):
        assert minimum_constrained_separator(complete_graph(4)) is None

    def test_constraint_respected(self):
        separator = minimum_constrained_separator(path_graph(5), constraint={0, 1})
        assert separator is not None
        assert is_separating_set(path_graph(5), separator, constraint={0, 1})

    def test_constraint_is_never_cut(self):
        # The middle node 2 would split the path 0-1-2-3-4, but it is in C;
        # the first node outside C that separates is 1 (side {0} avoids C).
        assert minimum_constrained_separator(path_graph(5), constraint={2}) == frozenset({1})

    def test_first_node_ranks_last(self):
        # Every two non-adjacent nodes of the 6-cycle separate it; with node
        # 0 ranked last the first such pair is {1, 3}, not {0, 2}.
        assert minimum_constrained_separator(cycle_graph(6)) == frozenset({1, 3})

    def test_max_size_bound(self):
        assert minimum_constrained_separator(complete_graph(5), max_size=2) is None
        assert minimum_constrained_separator(path_graph(5), max_size=1) is not None

    def test_disconnected_graph_has_empty_separator(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        separator = minimum_constrained_separator(graph)
        assert separator == frozenset()

    def test_constraint_naming_a_node_outside_the_graph(self):
        # Node 9 is in no component, so C = {9} constrains nothing.
        graph = path_graph(5)
        for constraint, same_as in (({9}, ()), ({0, 9}, {0})):
            assert minimum_constrained_separator(graph, constraint) == (
                minimum_constrained_separator(graph, same_as)
            )
            assert list(enumerate_constrained_separators(graph, constraint)) == list(
                enumerate_constrained_separators(graph, same_as)
            )


class TestEnumeration:
    def test_sizes_non_decreasing(self):
        sizes = [len(s) for s in enumerate_constrained_separators(cycle_graph(6), max_results=10)]
        assert sizes == sorted(sizes)

    def test_no_duplicates(self):
        separators = list(enumerate_constrained_separators(cycle_graph(6), max_results=20))
        assert len(separators) == len(set(separators))

    def test_all_results_are_valid_separators(self):
        graph = cycle_graph(5)
        for separator in enumerate_constrained_separators(graph, max_results=10):
            assert is_separating_set(graph, separator)

    def test_path_enumerates_all_single_node_separators_first(self):
        separators = list(enumerate_constrained_separators(path_graph(5), max_size=1))
        assert set(separators) == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_max_size_respected(self):
        for separator in enumerate_constrained_separators(cycle_graph(6), max_size=2, max_results=20):
            assert len(separator) <= 2

    def test_constraint_respected_in_enumeration(self):
        graph = path_graph(6)
        for separator in enumerate_constrained_separators(graph, constraint={0}, max_results=10):
            assert is_separating_set(graph, separator, constraint={0})

    def test_clique_yields_nothing(self):
        assert list(enumerate_constrained_separators(complete_graph(4), max_results=5)) == []

    def test_supersets_of_a_separator_are_skipped(self):
        # {1, 3} separates the path too, but it contains {1} and {3}.
        assert is_separating_set(path_graph(5), {1, 3})
        assert list(enumerate_constrained_separators(path_graph(5), max_size=2)) == [
            frozenset({1}), frozenset({2}), frozenset({3})
        ]

    def test_a_disconnected_graph_yields_only_the_empty_set(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        assert list(enumerate_constrained_separators(graph)) == [frozenset()]

    def test_zero_results_yields_nothing(self):
        assert list(enumerate_constrained_separators(path_graph(5), max_results=0)) == []


class TestComponentSide:
    def test_component_side_contains_constraint(self):
        graph = path_graph(5)
        side = component_side(graph, {2}, {0})
        assert side == frozenset({0, 1})

    def test_component_side_arbitrary_when_constraint_inside_separator(self):
        graph = path_graph(5)
        side = component_side(graph, {2}, {2})
        assert side in (frozenset({0, 1}), frozenset({3, 4}))


@given(st.integers(min_value=4, max_value=8))
@settings(max_examples=5, deadline=None)
def test_cycle_two_node_separators_count(length):
    """A cycle of length n has exactly n*(n-3)/2 two-node separating sets."""
    graph = cycle_graph(length)
    separators = [
        s for s in enumerate_constrained_separators(graph, max_size=2, max_results=1000)
    ]
    expected = length * (length - 3) // 2
    assert len(separators) == expected


def labelled_graphs(size):
    """Every graph on the nodes ``0 .. size - 1``, as an edge list."""
    pairs = list(itertools.combinations(range(size), 2))
    for mask in range(1 << len(pairs)):
        yield [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]


def separates(neighbours, removed, constraint):
    """The definition, independently of the module: removing ``removed``
    leaves two or more components, one of them disjoint from ``constraint``."""
    unplaced = set(neighbours) - removed
    components = []
    while unplaced:
        component, frontier = set(), [unplaced.pop()]
        while frontier:
            node = frontier.pop()
            component.add(node)
            frontier.extend(neighbours[node] & unplaced)
            unplaced -= neighbours[node]
        components.append(component)
    return len(components) >= 2 and any(not component & constraint for component in components)


class TestDefinition:
    """The scan against the definition: every labelled graph of 3-5 nodes,
    and random graphs of 6-7 nodes inserted in a shuffled node order."""

    CONSTRAINTS = (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1, 3}))

    def check(self, graph, max_sizes):
        """Minimum and enumeration under every constraint and each bound in
        ``max_sizes``; the definition's subsets go up to the largest bound."""
        nodes = list(graph.nodes)
        rank = {node: (index - 1) % len(nodes) for index, node in enumerate(nodes)}  # first last
        neighbours = {node: set(graph.neighbors(node)) for node in nodes}
        largest = None if None in max_sizes else max(max_sizes)
        for constraint in self.CONSTRAINTS:
            free = [node for node in nodes if node not in constraint]
            separating = [
                frozenset(subset)
                for count in range(len(free) + 1 if largest is None else largest + 1)
                for subset in itertools.combinations(free, count)
                if separates(neighbours, set(subset), constraint)
            ]
            minimal = sorted(
                (s for s in separating if not any(other < s for other in separating)),
                key=lambda s: (len(s), sorted(rank[node] for node in s)),
            )
            case = (nodes, graph.edges, set(constraint))
            for max_size in max_sizes:
                fitting = [s for s in minimal if max_size is None or len(s) <= max_size]
                found = minimum_constrained_separator(graph, constraint, max_size=max_size)
                if found is None:
                    assert not fitting, case
                else:
                    assert not found & constraint, case
                    assert is_separating_set(graph, found, constraint), case
                    assert max_size is None or len(found) <= max_size, case
                    assert len(found) == len(fitting[0]), case
                listed = list(enumerate_constrained_separators(graph, constraint, max_size))
                assert listed == fitting, case
            for max_results in (1, 2):
                assert list(enumerate_constrained_separators(
                    graph, constraint, largest, max_results
                )) == minimal[:max_results], case

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_every_labelled_graph(self, size):
        for edges in labelled_graphs(size):
            self.check(Graph(range(size), edges), (None, 1, 2))

    def test_random_graphs_of_six_and_seven_nodes(self):
        rng = random.Random(0)
        for _ in range(100):
            nodes = list(range(rng.choice((6, 7))))
            rng.shuffle(nodes)
            density = rng.uniform(0.25, 0.7)
            edges = [pair for pair in itertools.combinations(nodes, 2) if rng.random() < density]
            self.check(Graph(nodes, edges), (1, 2, 3))
