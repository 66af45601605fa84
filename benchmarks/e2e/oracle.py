"""Expected answers computed without the engine.

Every benchmark query is a graph pattern over one edge relation, so its
count is a number of homomorphisms: walks for paths, closed walks for
cycles, and triangles-times-tails for the lollipop.  Those are sums over
sparse vector-matrix products, O(nodes * length * edges) here, and share no
code with ``repro`` — a wrong join cannot agree with them by construction.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]

QUERY_TEXT: Dict[str, str] = {
    "tri": "E(a,b), E(b,c), E(c,a)",
    "c4": "E(a,b), E(b,c), E(c,d), E(d,a)",
    "c5": "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
    "p2": "E(a,b), E(b,c)",
    "p3": "E(a,b), E(b,c), E(c,d)",
    "p4": "E(a,b), E(b,c), E(c,d), E(d,e)",
    # the paper's {3,2}-lollipop: a triangle a,b,c with the path c-d-e
    "lol": "E(a,b), E(a,c), E(b,c), E(c,d), E(d,e)",
}


def _endpoints(edges: Sequence[Edge]) -> Tuple[np.ndarray, np.ndarray]:
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def counts(edges: Sequence[Edge], num_nodes: int) -> Dict[str, int]:
    """The count of every query in :data:`QUERY_TEXT` over ``edges``."""
    sources, targets = _endpoints(edges)

    def step(row: np.ndarray) -> np.ndarray:
        """``row @ A``: walks extended by one edge (exact below 2**53)."""
        return np.bincount(targets, weights=row[sources], minlength=num_nodes)

    out_degree = np.bincount(sources, minlength=num_nodes).astype(np.float64)
    two_walks_from = np.bincount(sources, weights=out_degree[targets], minlength=num_nodes)
    totals = dict.fromkeys(QUERY_TEXT, 0.0)
    for node in range(num_nodes):
        if not out_degree[node]:
            continue
        row1 = np.zeros(num_nodes)
        row1[targets[sources == node]] = 1.0
        row2 = step(row1)
        row3 = step(row2)
        row4 = step(row3)
        row5 = step(row4)
        totals["p2"] += row2.sum()
        totals["p3"] += row3.sum()
        totals["p4"] += row4.sum()
        totals["tri"] += row3[node]
        totals["c4"] += row4[node]
        totals["c5"] += row5[node]
        # a=node: b and c are both successors of a, c a successor of b
        totals["lol"] += float((row2 * row1 * two_walks_from).sum())
    return {name: int(round(value)) for name, value in totals.items()}


def walks(edges: Sequence[Edge], num_nodes: int, longest: int) -> List[int]:
    """Walks of 0..``longest`` edges: the counts of the path queries."""
    sources, targets = _endpoints(edges)
    ending_here = np.ones(num_nodes)
    totals = [num_nodes]
    for _ in range(longest):
        ending_here = np.bincount(targets, weights=ending_here[sources], minlength=num_nodes)
        totals.append(int(round(ending_here.sum())))
    return totals


def atom_positions(query: str, variable_names: Sequence[str]) -> List[Tuple[int, int]]:
    """For each atom of ``query``, the row positions of its two variables."""
    position = {name: index for index, name in enumerate(variable_names)}
    return [
        (position[left], position[right])
        for left, right in re.findall(r"E\((\w+),(\w+)\)", QUERY_TEXT[query])
    ]


def rows_are_answers(
    rows: Sequence[Sequence[int]], positions: Sequence[Tuple[int, int]], edges: Set[Edge]
) -> bool:
    return all((row[left], row[right]) in edges for row in rows for left, right in positions)


class TriangleCounter:
    """Triangle homomorphisms (closed 3-walks) maintained under updates."""

    def __init__(self, edges: Sequence[Edge]) -> None:
        self.successors: Dict[int, Set[int]] = {}
        self.predecessors: Dict[int, Set[int]] = {}
        self.count = 0
        for edge in edges:
            self.insert(edge)

    def _through(self, edge: Edge) -> int:
        """Closed 3-walks using ``edge``: one per position, three positions."""
        source, target = edge
        closing = self.successors.get(target, set()) & self.predecessors.get(source, set())
        return 3 * len(closing)

    def insert(self, edge: Edge) -> None:
        self.successors.setdefault(edge[0], set()).add(edge[1])
        self.predecessors.setdefault(edge[1], set()).add(edge[0])
        self.count += self._through(edge)

    def delete(self, edge: Edge) -> None:
        self.count -= self._through(edge)
        self.successors[edge[0]].discard(edge[1])
        self.predecessors[edge[1]].discard(edge[0])
