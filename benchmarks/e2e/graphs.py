"""Seeded edge lists for the end-to-end benchmark.

The benchmark owns its inputs so that refactors of ``repro.datasets`` or
``repro.bench`` cannot move the load.  Two shapes, after the paper's
Section 5.2.1: ``skewed`` (Zipf out-/in-degrees, wiki-Vote-like: hubs make
adhesion caches pay) and ``flat`` (every node the same degree,
p2p-Gnutella-like: the paper's worst case for caching).

The degree sequence and the wiring are part of the workload definition and
come from ``STRUCTURE_SEED``; ``--seed`` chooses the node labels and the
input order.  Wiring per seed was measured and rejected: it moves the
cycle counts by 8 % and the heavy queries' time by 4 % between seeds,
which is most of the regression bound, while relabelled graphs stay
within the box's own run-to-run noise.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

Edge = Tuple[int, int]

STRUCTURE_SEED = 20170321


def _zipf_degrees(num_nodes: int, num_edges: int, alpha: float) -> List[int]:
    """Degrees proportional to ``1 / rank**alpha`` summing to ``num_edges``."""
    weights = [1.0 / (rank + 1) ** alpha for rank in range(num_nodes)]
    total = sum(weights)
    exact = [weight / total * num_edges for weight in weights]
    degrees = [int(value) for value in exact]
    by_remainder = sorted(
        range(num_nodes), key=lambda node: exact[node] - degrees[node], reverse=True
    )
    for node in by_remainder[: num_edges - sum(degrees)]:
        degrees[node] += 1
    return degrees


def _wire(out_degrees: Sequence[int], in_degrees: Sequence[int]) -> Set[Edge]:
    """A simple directed graph with exactly these degrees (stub matching)."""
    rng = random.Random(STRUCTURE_SEED)
    sources = [node for node, degree in enumerate(out_degrees) for _ in range(degree)]
    targets = [node for node, degree in enumerate(in_degrees) for _ in range(degree)]
    rng.shuffle(targets)
    pairs = list(zip(sources, targets))
    edges: Set[Edge] = set()
    clashes = []
    for position, edge in enumerate(pairs):
        if edge[0] == edge[1] or edge in edges:
            clashes.append(position)
        else:
            edges.add(edge)
    # Repair self loops and duplicates by swapping targets with a good pair.
    while clashes:
        position = clashes[-1]
        source, target = pairs[position]
        other = rng.randrange(len(pairs))
        other_source, other_target = pairs[other]
        first, second = (source, other_target), (other_source, target)
        if (
            (other_source, other_target) not in edges
            or first[0] == first[1]
            or second[0] == second[1]
            or first == second
            or first in edges
            or second in edges
        ):
            continue
        edges.remove((other_source, other_target))
        edges.update((first, second))
        pairs[position], pairs[other] = first, second
        clashes.pop()
    return edges


def _relabel(edges: Set[Edge], num_nodes: int, seed: int) -> List[Edge]:
    rng = random.Random(seed)
    labels = list(range(num_nodes))
    rng.shuffle(labels)
    relabelled = sorted((labels[source], labels[target]) for source, target in edges)
    rng.shuffle(relabelled)
    return relabelled


def skewed(num_nodes: int, num_edges: int, seed: int) -> List[Edge]:
    """Zipf-skewed directed graph; the hubs are hubs in both directions."""
    edges = _wire(
        _zipf_degrees(num_nodes, num_edges, 0.9),
        _zipf_degrees(num_nodes, num_edges, 0.6),
    )
    return _relabel(edges, num_nodes, seed)


def flat(num_nodes: int, num_edges: int, seed: int) -> List[Edge]:
    """Directed graph whose out- and in-degrees differ by at most one."""
    degrees = _zipf_degrees(num_nodes, num_edges, 0.0)
    return _relabel(_wire(degrees, degrees), num_nodes, seed)
