"""Figure-by-figure workload definitions.

Each benchmark module in ``benchmarks/`` pulls its datasets, queries and
parameters from here, so the workload definitions live in exactly one place
and the tests can validate them independently of pytest-benchmark.

The scales default to sizes that keep the pure-Python algorithms within a few
seconds per cell; pass a larger ``scale`` to stress the system (at the cost
of LFTJ, which enumerates every result, becoming the bottleneck — exactly as
in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.datasets.imdb import ImdbSpec, imdb_cast
from repro.datasets.snap import (
    ca_grqc,
    ego_facebook,
    ego_twitter,
    p2p_gnutella04,
    wiki_vote,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.patterns import (
    bipartite_cycle_query,
    cycle_query,
    lollipop_query,
    path_query,
    random_pattern_query,
)
from repro.storage.database import Database

#: Datasets of Figure 5 (count queries across the SNAP stand-ins).
FIGURE5_DATASETS: Tuple[str, ...] = (
    "wiki-Vote",
    "p2p-Gnutella04",
    "ca-GrQc",
    "ego-Facebook",
)

#: Queries of Figure 5: 5-path, 5-cycle and a representative 5-rand pattern.
FIGURE5_QUERIES: Tuple[str, ...] = ("5-path", "5-cycle", "5-rand(0.4)")


def snap_databases(
    names: Sequence[str] = FIGURE5_DATASETS,
    scale: float = 1.0,
) -> Dict[str, Database]:
    """Build the requested SNAP stand-ins, keyed by their paper names."""
    factories = {
        "wiki-Vote": wiki_vote,
        "p2p-Gnutella04": p2p_gnutella04,
        "ca-GrQc": ca_grqc,
        "ego-Facebook": ego_facebook,
        "ego-Twitter": ego_twitter,
    }
    return {name: factories[name](scale=scale) for name in names}


def evaluation_datasets(scale: float = 0.7) -> Dict[str, Database]:
    """Smaller datasets for full-evaluation figures (8 and 9).

    The paper restricts evaluation to materialised results that fit in RAM;
    here the limiting factor is Python's per-tuple cost, so the default scale
    is lower than for count queries.
    """
    return snap_databases(("wiki-Vote", "p2p-Gnutella04", "ca-GrQc"), scale=scale)


def path_queries(lengths: Sequence[int] = (3, 4, 5, 6, 7)) -> List[ConjunctiveQuery]:
    """The {3-7}-path queries of Figure 6."""
    return [path_query(length) for length in lengths]


def cycle_queries(lengths: Sequence[int] = (3, 4, 5, 6)) -> List[ConjunctiveQuery]:
    """The {3-6}-cycle queries of Figure 7."""
    return [cycle_query(length) for length in lengths]


def random_queries(
    num_nodes: int = 5,
    probabilities: Sequence[float] = (0.4, 0.6),
    patterns_per_setting: int = 2,
) -> List[ConjunctiveQuery]:
    """N-rand(P) pattern queries (Section 5.2.2 uses six per setting; two by default)."""
    queries: List[ConjunctiveQuery] = []
    for probability in probabilities:
        for index in range(patterns_per_setting):
            queries.append(
                random_pattern_query(
                    num_nodes, probability, seed=100 * index + int(probability * 10)
                )
            )
    return queries


def figure10_cache_sizes() -> Tuple[int, ...]:
    """The cache-capacity sweep of Figure 10 (scaled to the synthetic data sizes)."""
    return (0, 10, 50, 100, 500, 1000, 10000)


def figure10_queries() -> List[ConjunctiveQuery]:
    """The 4-cycle and 6-cycle IMDB count queries used in Figure 10."""
    return [bipartite_cycle_query(4), bipartite_cycle_query(6)]


def imdb_database(scale: float = 1.0, seed: int = 17) -> Database:
    """The IMDB cast stand-in used by Figures 10, 13 and 14."""
    spec = ImdbSpec(
        num_people=max(int(80 * scale), 10),
        num_movies=max(int(120 * scale), 10),
        rows_per_relation=max(int(500 * scale), 20),
        seed=seed,
    )
    return imdb_cast(spec)


def lollipop_workload() -> Tuple[ConjunctiveQuery, Dict[str, Database]]:
    """The {3,2}-lollipop query of Figure 11 over two SNAP stand-ins."""
    return lollipop_query(3, 2), snap_databases(("wiki-Vote", "ca-GrQc"))

