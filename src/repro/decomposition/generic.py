"""GenericDecompose / RecursiveTD and the tree-decomposition enumerator (Section 4.1).

``GenericDecomposer`` implements the algorithm of Figure 4: it repeatedly
solves the side-constrained separation problem and recursively decomposes the
C-side (``S ∪ U``) and each remaining component (``S ∪ V_i``), connecting the
resulting subtrees under the C-side root.  Swapping the separator oracle for
the ranked enumeration of :mod:`repro.decomposition.separators` turns the
single-TD construction into an enumeration of TDs biased towards small
adhesions (the cache dimensions of CLFTJ).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.decomposition.separators import (
    component_side,
    enumerate_constrained_separators,
    minimum_constrained_separator,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.gaifman import Graph, gaifman_graph

#: The enumerator expands this many of the smallest root separators.
ROOT_SEPARATORS = 8


class _MutableNode:
    """Builder node used while assembling a decomposition tree."""

    __slots__ = ("bag", "children")

    def __init__(self, bag: FrozenSet, children: Optional[List["_MutableNode"]] = None) -> None:
        self.bag = frozenset(bag)
        self.children = children if children is not None else []


def _to_tree_decomposition(root: _MutableNode) -> TreeDecomposition:
    bags: List[FrozenSet] = []
    parents: List[Optional[int]] = []

    def visit(node: _MutableNode, parent: Optional[int]) -> None:
        index = len(bags)
        bags.append(node.bag)
        parents.append(parent)
        for child in node.children:
            visit(child, index)

    visit(root, None)
    return TreeDecomposition(bags, parents)


class GenericDecomposer:
    """The recursive decomposer of Figure 4.

    Each graph of more than two nodes is split at a minimum C-constrained
    separating set of at most ``max_adhesion_size`` nodes; a graph without
    one becomes a single bag.
    """

    def __init__(self, max_adhesion_size: int = 2) -> None:
        if max_adhesion_size < 1:
            raise ValueError("max_adhesion_size must be at least 1")
        self.max_adhesion_size = max_adhesion_size

    # -------------------------------------------------------------- decompose
    def decompose(self, query: ConjunctiveQuery) -> TreeDecomposition:
        """Build one ordered TD of ``query`` (``GenericDecompose`` of Figure 4)."""
        graph = gaifman_graph(query)
        root = self._recursive_td(graph, frozenset())
        decomposition = _to_tree_decomposition(root).remove_redundant_bags()
        decomposition.validate(query)
        return decomposition

    def _recursive_td(self, graph: Graph, constraint: FrozenSet) -> _MutableNode:
        separator = None
        if len(graph.nodes) > 2:
            separator = minimum_constrained_separator(
                graph, constraint, max_size=self.max_adhesion_size
            )
        if separator is None:
            return _MutableNode(frozenset(graph.nodes))
        side = component_side(graph, separator, constraint)
        return self._expand(graph, constraint, separator, side)

    def _expand(
        self,
        graph: Graph,
        constraint: FrozenSet,
        separator: FrozenSet,
        side: FrozenSet,
    ) -> _MutableNode:
        """Lines 4-10 of ``RecursiveTD``: recurse on the C-side and each component."""
        c_side_nodes = set(separator) | set(side)
        c_side_root = self._recursive_td(
            graph.subgraph(c_side_nodes), frozenset(constraint | separator)
        )
        remaining = graph.copy()
        remaining.remove_nodes_from(c_side_nodes)
        components = sorted(
            remaining.connected_components(),
            key=lambda component: tuple(sorted(map(repr, component))),
        )
        for component in components:
            child = self._recursive_td(
                graph.subgraph(set(component) | set(separator)),
                frozenset(separator),
            )
            c_side_root.children.append(child)
        return c_side_root


def generic_decompose(query: ConjunctiveQuery, max_adhesion_size: int = 2) -> TreeDecomposition:
    """Convenience wrapper: one TD from the generic decomposer."""
    return GenericDecomposer(max_adhesion_size).decompose(query)


def enumerate_tree_decompositions(
    query: ConjunctiveQuery,
    max_adhesion_size: int = 2,
    max_decompositions: Optional[int] = 16,
) -> Iterator[TreeDecomposition]:
    """Enumerate distinct TDs of ``query`` biased towards small adhesions.

    The top-level separator choice of ``RecursiveTD`` is replaced by the
    ranked enumeration of C-constrained separating sets (so the first
    :data:`ROOT_SEPARATORS` smallest separators are each expanded into a
    decomposition); deeper levels split at a minimum separator.
    Duplicates (structurally identical TDs) are suppressed.

    When the query admits no decomposition within the adhesion bound (e.g. a
    clique), the singleton decomposition is yielded, mirroring the paper's
    observation that CLFTJ degenerates to LFTJ on cliques.
    """
    graph = gaifman_graph(query)
    decomposer = GenericDecomposer(max_adhesion_size)
    seen: Set[Tuple] = set()
    produced = 0

    def emit(decomposition: TreeDecomposition) -> Optional[TreeDecomposition]:
        fingerprint = decomposition.canonical_form()
        if fingerprint in seen:
            return None
        seen.add(fingerprint)
        return decomposition

    root_separators = enumerate_constrained_separators(
        graph, frozenset(), max_size=max_adhesion_size, max_results=ROOT_SEPARATORS
    )
    found_any = False
    for separator in root_separators:
        found_any = True
        side = component_side(graph, separator, frozenset())
        root = decomposer._expand(graph, frozenset(), separator, side)
        decomposition = _to_tree_decomposition(root).remove_redundant_bags()
        if not decomposition.is_valid(query):
            continue
        unique = emit(decomposition)
        if unique is not None:
            produced += 1
            yield unique
            if max_decompositions is not None and produced >= max_decompositions:
                return

    if not found_any:
        singleton = TreeDecomposition.singleton(query.variables)
        unique = emit(singleton)
        if unique is not None:
            yield unique
