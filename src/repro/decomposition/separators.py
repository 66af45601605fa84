"""Constrained graph separators and their ranked enumeration (Section 4.2).

The *side-constrained graph separation problem* asks, for an undirected graph
``g`` and a node set ``C``, for a separating set ``S`` (``g - S`` is
disconnected) such that at least one connected component of ``g - S`` is
disjoint from ``C``.  Here ``S`` also avoids ``C``: ``C`` holds the parent
separator, which is never cut.

Both answers come from one ranked scan, :func:`_ranked`, which is the
definition read as a loop: it visits the subsets of the nodes outside ``C``
by size, and subsets of one size in rank order, and yields each subset that
:func:`is_separating_set` accepts.  The rank is node order with the graph's
first node ranked last; it breaks ties between separators of one size.

* :func:`minimum_constrained_separator` -- the scan's first item.
* :func:`enumerate_constrained_separators` -- the scan's inclusion-minimal
  items (every superset of an earlier item is skipped), by size, then rank.

The planner's Gaifman graphs have 3-9 nodes and ask for at most
``max_adhesion_size`` <= 3 nodes, so a scan costs at most
``sum(comb(n, i) for i <= k)`` <= 130 separation checks.  An induced
subgraph keeps its parent's node order, so a plan never depends on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.query.gaifman import Graph


def is_separating_set(graph: Graph, separator: Iterable, constraint: Iterable = ()) -> bool:
    """Check whether ``separator`` is a C-constrained separating set of ``graph``.

    ``separator`` must disconnect the graph and leave at least one connected
    component disjoint from ``constraint``.
    """
    constraint = set(constraint)
    unplaced = set(graph.nodes).difference(separator)
    components, free_side = 0, False
    while unplaced:
        component = {unplaced.pop()}
        frontier = list(component)
        while frontier:
            for other in graph.neighbors(frontier.pop()):
                if other in unplaced:
                    unplaced.remove(other)
                    component.add(other)
                    frontier.append(other)
        components += 1
        free_side = free_side or component.isdisjoint(constraint)
        if components >= 2 and free_side:
            return True
    return False


def _ranked(graph: Graph, constraint: FrozenSet, max_size: Optional[int]) -> Iterator[FrozenSet]:
    """Every C-avoiding separating set of at most ``max_size`` nodes, by size, then rank."""
    nodes = list(graph.nodes)
    candidates = [node for node in nodes[1:] + nodes[:1] if node not in constraint]
    largest = len(candidates) if max_size is None else min(max_size, len(candidates))
    for size in range(largest + 1):
        for subset in combinations(candidates, size):
            if is_separating_set(graph, subset, constraint):
                yield frozenset(subset)


def minimum_constrained_separator(
    graph: Graph,
    constraint: Iterable = (),
    max_size: Optional[int] = None,
) -> Optional[FrozenSet]:
    """A minimum C-constrained separating set avoiding ``constraint``.

    Returns ``None`` when no such separator exists (or none within
    ``max_size``).
    """
    return next(_ranked(graph, frozenset(constraint), max_size), None)


def enumerate_constrained_separators(
    graph: Graph,
    constraint: Iterable = (),
    max_size: Optional[int] = None,
    max_results: Optional[int] = None,
) -> Iterator[FrozenSet]:
    """The inclusion-minimal C-constrained separating sets, by size, then rank.

    At most ``max_results`` of them, each of at most ``max_size`` nodes.
    """
    if max_results is not None and max_results <= 0:
        return
    found: List[FrozenSet] = []
    for separator in _ranked(graph, frozenset(constraint), max_size):
        if any(earlier <= separator for earlier in found):
            continue
        found.append(separator)
        yield separator
        if len(found) == max_results:
            return


def component_side(graph: Graph, separator: Iterable, constraint: Iterable) -> FrozenSet:
    """The set ``U`` of Section 4.1 for a given separator.

    ``U`` is the union of the connected components of ``g - S`` intersecting
    ``C``; if no component intersects ``C`` (i.e. ``C ⊆ S``), an arbitrary
    component is returned.
    """
    separator = set(separator)
    constraint = set(constraint)
    remaining = graph.copy()
    remaining.remove_nodes_from(separator)
    components = [frozenset(component) for component in remaining.connected_components()]
    if not components:
        return frozenset()
    intersecting = [component for component in components if component & constraint]
    if intersecting:
        union: Set = set()
        for component in intersecting:
            union |= component
        return frozenset(union)
    return min(components, key=lambda component: tuple(sorted(map(repr, component))))
