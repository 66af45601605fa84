"""Gaifman (primal) graph construction for conjunctive queries.

The Gaifman graph of a full CQ has the query variables as nodes and an edge
between every pair of variables that co-occur in some atom (Section 2.2 of
the paper).  The tree-decomposition machinery in
:mod:`repro.decomposition` operates on this graph.

:class:`Graph` is the planner's one graph type: an insertion-ordered
adjacency map with exactly the operations Section 4 uses.  Every iteration
follows node insertion order (an induced subgraph keeps its parent's), so a
plan never depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, KeysView, List, Set, Tuple

from repro.query.atoms import ConjunctiveQuery


class Graph:
    """An undirected graph whose nodes iterate in insertion order."""

    __slots__ = ("_adjacency",)

    def __init__(
        self,
        nodes: Iterable[Hashable] = (),
        edges: Iterable[Tuple[Hashable, Hashable]] = (),
    ) -> None:
        adjacency: Dict[Hashable, Dict[Hashable, None]] = {}
        for node in nodes:
            adjacency.setdefault(node, {})
        for left, right in edges:
            adjacency.setdefault(left, {})[right] = None
            adjacency.setdefault(right, {})[left] = None
        self._adjacency = adjacency

    @classmethod
    def _from_adjacency(cls, adjacency: Dict[Hashable, Dict[Hashable, None]]) -> "Graph":
        graph = cls.__new__(cls)
        graph._adjacency = adjacency
        return graph

    @property
    def nodes(self) -> KeysView:
        """The nodes, in insertion order (supports ``in`` and ``len``)."""
        return self._adjacency.keys()

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """Every edge once, as ``(u, v)`` with ``u`` the earlier node."""
        edges = []
        done: Set[Hashable] = set()
        for node, neighbours in self._adjacency.items():
            edges.extend((node, other) for other in neighbours if other not in done)
            done.add(node)
        return edges

    def neighbors(self, node: Hashable) -> KeysView:
        """The neighbours of ``node``, in the order their edges were added."""
        return self._adjacency[node].keys()

    def copy(self) -> "Graph":
        return Graph._from_adjacency(
            {node: dict(neighbours) for node, neighbours in self._adjacency.items()}
        )

    def remove_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        """Remove ``nodes`` and their edges; nodes not in the graph are ignored."""
        adjacency = self._adjacency
        for node in nodes:
            neighbours = adjacency.pop(node, None)
            if neighbours is None:
                continue
            for other in neighbours:
                if other != node:
                    del adjacency[other][node]

    def subgraph(self, nodes: Iterable[Hashable]) -> "Graph":
        """The subgraph induced by ``nodes``: a new graph in this graph's node order."""
        keep = set(nodes)
        return Graph._from_adjacency({
            node: {other: None for other in neighbours if other in keep}
            for node, neighbours in self._adjacency.items()
            if node in keep
        })

    def connected_components(self) -> List[Set[Hashable]]:
        """The connected components, ordered by their first node."""
        adjacency = self._adjacency
        components: List[Set[Hashable]] = []
        placed: Set[Hashable] = set()
        for start in adjacency:
            if start in placed:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for other in adjacency[frontier.pop()]:
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
            placed |= component
            components.append(component)
        return components


def gaifman_graph(query: ConjunctiveQuery) -> Graph:
    """Build the Gaifman graph of ``query``.

    Every variable becomes a node even if it never co-occurs with another
    variable (e.g. a unary atom), so isolated variables are preserved.
    Nodes are in ``query.variables`` order.
    """
    return Graph(query.variables, query.gaifman_edges())
