"""Tests for constrained separators and their ranked enumeration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition.separators import (
    component_side,
    constrained_separator,
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

    def test_include_constraint(self):
        separator = minimum_constrained_separator(path_graph(5), include={3})
        assert separator is not None
        assert 3 in separator

    def test_exclude_constraint(self):
        separator = minimum_constrained_separator(cycle_graph(6), exclude={0})
        assert separator is not None
        assert 0 not in separator

    def test_conflicting_constraints(self):
        assert minimum_constrained_separator(path_graph(5), include={2}, exclude={2}) is None

    def test_max_size_bound(self):
        assert minimum_constrained_separator(complete_graph(5), max_size=2) is None
        assert minimum_constrained_separator(path_graph(5), max_size=1) is not None

    def test_disconnected_graph_has_empty_separator(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        separator = minimum_constrained_separator(graph)
        assert separator == frozenset()


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


class TestConstrainedSeparatorHelper:
    def test_returns_separator_and_side(self):
        result = constrained_separator(path_graph(5), constraint={0})
        assert result is not None
        separator, side = result
        assert is_separating_set(path_graph(5), separator, constraint={0})
        assert 0 in side or 0 in separator

    def test_component_side_contains_constraint(self):
        graph = path_graph(5)
        side = component_side(graph, {2}, {0})
        assert side == frozenset({0, 1})

    def test_component_side_arbitrary_when_constraint_inside_separator(self):
        graph = path_graph(5)
        side = component_side(graph, {2}, {2})
        assert side in (frozenset({0, 1}), frozenset({3, 4}))

    def test_none_for_clique(self):
        assert constrained_separator(complete_graph(4)) is None


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
