"""The networkx separator oracle for :mod:`repro.decomposition.separators`.

The planner's Section 4.2 code as it was written against networkx: every
vertex cut builds an ``nx.DiGraph`` over the node-split network and asks
``nx.minimum_cut`` (preflow-push) for it.  ``repro`` itself runs a
unit-capacity augmenting-path cut over :class:`repro.query.gaifman.Graph`
and must return exactly these separators; ``tests/test_separators.py``
compares the two.  Test-only: networkx is a test dependency.

:class:`NxGraph` is ``nx.Graph`` with the two methods the decomposer calls
on the planner's graph type.  Its induced subgraph keeps the parent's node
order, as the planner's does (a networkx subgraph view iterates a hash
ordered ``set`` when the induced set is under half the graph), so
:func:`planned_with_oracle` re-plans with networkx doing every graph and
flow computation and nothing else changed.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import count as _counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx

_INFINITY = float("inf")


class NxGraph(nx.Graph):
    """``nx.Graph`` answering the decomposer's ``subgraph`` / ``connected_components``."""

    def subgraph(self, nodes):
        keep = set(nodes)
        graph = NxGraph()
        graph.add_nodes_from(node for node in self.nodes if node in keep)
        graph.add_edges_from((u, v) for u, v in self.edges if u in keep and v in keep)
        return graph

    def connected_components(self):
        return list(nx.connected_components(self))


def gaifman_graph(query) -> NxGraph:
    graph = NxGraph()
    graph.add_nodes_from(query.variables)
    graph.add_edges_from(query.gaifman_edges())
    return graph


@contextmanager
def planned_with_oracle():
    """Within the block, the decomposer plans over networkx graphs and cuts."""
    from repro.decomposition import generic

    names = (
        "component_side",
        "enumerate_constrained_separators",
        "gaifman_graph",
        "minimum_constrained_separator",
    )
    saved = {name: getattr(generic, name) for name in names}
    try:
        for name in names:
            setattr(generic, name, globals()[name])
        yield
    finally:
        for name, value in saved.items():
            setattr(generic, name, value)


def is_separating_set(graph: nx.Graph, separator: Iterable, constraint: Iterable = ()) -> bool:
    """Check whether ``separator`` is a C-constrained separating set of ``graph``.

    ``separator`` must disconnect the graph and leave at least one connected
    component disjoint from ``constraint``.
    """
    separator = set(separator)
    constraint = set(constraint)
    remaining = graph.copy()
    remaining.remove_nodes_from(separator)
    if remaining.number_of_nodes() == 0:
        return False
    components = list(nx.connected_components(remaining))
    if len(components) < 2:
        return False
    return any(not (component & constraint) for component in components)


#: Cut problem -> networkx's answer.  The cut ``nx.minimum_cut`` reports is
#: the one closest to the target, a function of the problem alone (not of
#: node order or of the maximum flow found), so a problem seen recently is
#: not solved again: the differential tests and the oracle planner repeat
#: most of theirs within one graph or query.  Emptied when full.
_CUTS: Dict[Tuple, Optional[FrozenSet]] = {}
_MAX_CUTS = 2048


def _vertex_cut(graph: nx.Graph, sources: Set, target, exclude: Set) -> Optional[FrozenSet]:
    nodes = frozenset(graph.nodes)
    problem = (
        nodes,
        frozenset(frozenset(edge) for edge in graph.edges),
        frozenset(sources),
        target,
        frozenset(exclude) & nodes,
    )
    if problem not in _CUTS:
        if len(_CUTS) >= _MAX_CUTS:
            _CUTS.clear()
        _CUTS[problem] = _networkx_vertex_cut(graph, sources, target, exclude)
    return _CUTS[problem]


def _networkx_vertex_cut(
    graph: nx.Graph,
    sources: Set,
    target,
    exclude: Set,
) -> Optional[FrozenSet]:
    """Minimum set of non-terminal nodes whose removal separates ``sources`` from ``target``.

    Nodes in ``exclude`` (and the terminals themselves) may not be cut.
    Returns ``None`` when no finite cut exists (e.g. the target is adjacent
    to a source through non-cuttable nodes only).
    """
    flow_graph = nx.DiGraph()
    source_label = ("S",)
    target_label = ("T",)
    for node in graph.nodes:
        capacity = _INFINITY if node in exclude or node in sources or node == target else 1
        flow_graph.add_edge(("in", node), ("out", node), capacity=capacity)
    for left, right in graph.edges:
        flow_graph.add_edge(("out", left), ("in", right), capacity=_INFINITY)
        flow_graph.add_edge(("out", right), ("in", left), capacity=_INFINITY)
    for node in sources:
        flow_graph.add_edge(source_label, ("in", node), capacity=_INFINITY)
    flow_graph.add_edge(("out", target), target_label, capacity=_INFINITY)

    try:
        cut_value, (reachable, _) = nx.minimum_cut(flow_graph, source_label, target_label)
    except nx.NetworkXUnbounded:
        # An infinite-capacity path between the terminals: no finite vertex cut.
        return None
    if cut_value == _INFINITY:
        return None
    separator = {
        node
        for node in graph.nodes
        if ("in", node) in reachable and ("out", node) not in reachable
    }
    return frozenset(separator)


def minimum_constrained_separator(
    graph: nx.Graph,
    constraint: Iterable = (),
    include: Iterable = (),
    exclude: Iterable = (),
    max_size: Optional[int] = None,
) -> Optional[FrozenSet]:
    """A minimum C-constrained separating set honouring membership constraints.

    ``include`` lists nodes that must belong to the separator, ``exclude``
    lists nodes that must not.  Returns ``None`` when no valid separator
    exists (or none within ``max_size``).
    """
    constraint = set(constraint)
    include = frozenset(include)
    exclude = frozenset(exclude)
    if include & exclude:
        return None
    if not set(graph.nodes) >= include:
        return None

    residual = graph.copy()
    residual.remove_nodes_from(include)
    best: Optional[FrozenSet] = None

    if is_separating_set(graph, include, constraint):
        best = include

    if best is None or len(best) > len(include):
        remaining_constraint = constraint - include
        terminal_pairs: List[Tuple[Set, object]] = []
        if remaining_constraint:
            # Separate C from every possible target node.
            terminal_pairs.extend(
                (set(remaining_constraint), target)
                for target in residual.nodes
                if target not in remaining_constraint
            )
        else:
            # No side constraint left: any pair of nodes may end up on the
            # two sides of the separator, so try every unordered pair.
            ordered_nodes = sorted(residual.nodes, key=repr)
            terminal_pairs.extend(
                ({source}, target)
                for index, source in enumerate(ordered_nodes)
                for target in ordered_nodes[index + 1:]
            )
        for sources, target in terminal_pairs:
            if not sources or target in sources:
                continue
            cut = _vertex_cut(residual, sources, target, exclude)
            if cut is None:
                continue
            candidate = frozenset(cut | include)
            if candidate & exclude:
                continue
            if not is_separating_set(graph, candidate, constraint):
                continue
            if best is None or len(candidate) < len(best):
                best = candidate

    if best is None:
        return None
    if max_size is not None and len(best) > max_size:
        return None
    return best


def enumerate_constrained_separators(
    graph: nx.Graph,
    constraint: Iterable = (),
    max_size: Optional[int] = None,
    max_results: Optional[int] = None,
    exclude: Iterable = (),
) -> Iterator[FrozenSet]:
    """Enumerate C-constrained separating sets by non-decreasing size.

    Lawler–Murty's procedure: repeatedly solve the optimisation problem under
    membership constraints, emit the best solution of the current region, and
    split the region by including/excluding the solution's elements.  The
    emission order is by increasing separator size (ties broken
    deterministically); duplicates are suppressed.
    """
    constraint = frozenset(constraint)
    base_exclude = frozenset(exclude)
    emitted: Set[FrozenSet] = set()
    tie_breaker = _counter()

    heap: List[Tuple[int, Tuple, int, FrozenSet, FrozenSet, FrozenSet]] = []

    def push(include: FrozenSet, excluded: FrozenSet) -> None:
        solution = minimum_constrained_separator(
            graph, constraint, include=include, exclude=excluded, max_size=max_size
        )
        if solution is None:
            return
        ordering_key = tuple(sorted(map(repr, solution)))
        heapq.heappush(
            heap, (len(solution), ordering_key, next(tie_breaker), solution, include, excluded)
        )

    push(frozenset(), base_exclude)

    results = 0
    while heap:
        size, _, _, solution, include, excluded = heapq.heappop(heap)
        if max_size is not None and size > max_size:
            return
        if solution not in emitted:
            emitted.add(solution)
            yield solution
            results += 1
            if max_results is not None and results >= max_results:
                return
        # Partition the remaining space (Lawler-Murty branching): the i-th
        # child keeps the first i-1 elements and forbids the i-th.
        free_elements = sorted(solution - include, key=repr)
        forced = set(include)
        for element in free_elements:
            push(frozenset(forced), frozenset(excluded | {element}))
            forced.add(element)


def constrained_separator(
    graph: nx.Graph,
    constraint: Iterable = (),
    max_size: Optional[int] = None,
) -> Optional[Tuple[FrozenSet, FrozenSet]]:
    """The paper's ``ConstrainedSep(g, C)``: a separator plus the C-side node set.

    Returns ``(S, U)`` where ``S`` is a minimum C-constrained separating set
    and ``U`` is the union of the connected components of ``g - S`` that
    intersect ``C`` (or an arbitrary component when none does), so that
    ``C ⊆ S ∪ U``.  Returns ``None`` when no (small enough) separator exists.
    """
    separator = minimum_constrained_separator(graph, constraint, max_size=max_size)
    if separator is None:
        return None
    return separator, component_side(graph, separator, constraint)


def component_side(graph: nx.Graph, separator: Iterable, constraint: Iterable) -> FrozenSet:
    """The set ``U`` of Section 4.1 for a given separator.

    ``U`` is the union of the connected components of ``g - S`` intersecting
    ``C``; if no component intersects ``C`` (i.e. ``C ⊆ S``), an arbitrary
    component is returned.
    """
    separator = set(separator)
    constraint = set(constraint)
    remaining = graph.copy()
    remaining.remove_nodes_from(separator)
    components = [frozenset(component) for component in nx.connected_components(remaining)]
    if not components:
        return frozenset()
    intersecting = [component for component in components if component & constraint]
    if intersecting:
        union: Set = set()
        for component in intersecting:
            union |= component
        return frozenset(union)
    return min(components, key=lambda component: tuple(sorted(map(repr, component))))
