"""Synthetic stand-ins for the SNAP datasets of Section 5.2.1.

Each stand-in is a deterministic scaled-down graph matching the original's
qualitative shape:

================  ==========================  ===========================
paper dataset     original size               property the paper exploits
================  ==========================  ===========================
wiki-Vote         7.1 k nodes / 104 k edges   skewed, medium density
p2p-Gnutella04    10.9 k nodes / 40 k edges   small, *balanced* degrees
ca-GrQc           5.2 k nodes / 14 k edges    collaboration graph, skewed
ego-Facebook      4 k nodes / 88 k edges      dense, skewed
ego-Twitter       81 k nodes / 1.8 M edges    large, very skewed
================  ==========================  ===========================

The default ``scale=1.0`` sizes keep every benchmark runnable in pure Python
(result cardinalities in the 1e3–1e6 range); larger scales grow the graphs
proportionally.  Each factory returns a :class:`~repro.storage.database.Database`
with a single directed binary relation ``E(src, dst)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.datasets.generators import (
    erdos_renyi_edges,
    powerlaw_edges,
    preferential_attachment_edges,
)
from repro.storage.database import Database
from repro.storage.loaders import relation_from_edges


@dataclass(frozen=True)
class SnapDatasetSpec:
    """Shape parameters of one SNAP stand-in."""

    name: str
    num_nodes: int
    num_edges: int
    skewed: bool
    description: str


_SPECS: Dict[str, SnapDatasetSpec] = {
    "wiki-Vote": SnapDatasetSpec(
        "wiki-Vote", 110, 480, True,
        "voting graph: moderately skewed in/out degrees",
    ),
    "p2p-Gnutella04": SnapDatasetSpec(
        "p2p-Gnutella04", 150, 420, False,
        "peer-to-peer topology: small and fairly balanced (the paper's worst case for caching)",
    ),
    "ca-GrQc": SnapDatasetSpec(
        "ca-GrQc", 120, 360, True,
        "collaboration graph: clustered with skewed degrees",
    ),
    "ego-Facebook": SnapDatasetSpec(
        "ego-Facebook", 90, 520, True,
        "dense ego network with heavy-tailed degrees",
    ),
    "ego-Twitter": SnapDatasetSpec(
        "ego-Twitter", 140, 700, True,
        "large, highly skewed ego network (the paper's best case for caching)",
    ),
}

#: Registry behind ``load_snap_standin`` and the CLI: dataset name -> factory.
SNAP_DATASETS: Dict[str, Callable[..., Database]] = {}


def _scaled(value: int, scale: float) -> int:
    return max(int(round(value * scale)), 4)


def _build(
    spec: SnapDatasetSpec, edges: List[Tuple[int, int]], symmetric: bool = False
) -> Database:
    relation = relation_from_edges(
        edges, name="E", attributes=("src", "dst"), symmetric=symmetric
    )
    return Database([relation], name=spec.name)


def wiki_vote(scale: float = 1.0, seed: int = 11) -> Database:
    """The wiki-Vote stand-in: skewed directed voting graph."""
    spec = _SPECS["wiki-Vote"]
    edges = powerlaw_edges(
        _scaled(spec.num_nodes, scale), _scaled(spec.num_edges, scale),
        source_alpha=0.9, target_alpha=0.6, seed=seed,
    )
    return _build(spec, edges)


def p2p_gnutella04(scale: float = 1.0, seed: int = 4) -> Database:
    """The p2p-Gnutella04 stand-in: balanced degree distribution."""
    spec = _SPECS["p2p-Gnutella04"]
    nodes = _scaled(spec.num_nodes, scale)
    target_edges = _scaled(spec.num_edges, scale)
    probability = min(1.0, target_edges / (nodes * (nodes - 1)))
    edges = erdos_renyi_edges(nodes, probability, seed=seed, directed=True)
    return _build(spec, edges)


def ca_grqc(scale: float = 1.0, seed: int = 7) -> Database:
    """The ca-GrQc stand-in: clustered collaboration graph with skew.

    Collaboration graphs are undirected, so the relation stores both edge
    directions (as the SNAP file does).
    """
    spec = _SPECS["ca-GrQc"]
    nodes = _scaled(spec.num_nodes, scale)
    undirected = preferential_attachment_edges(nodes, edges_per_node=2, seed=seed)
    limit = _scaled(spec.num_edges, scale) // 2
    return _build(spec, undirected[:limit], symmetric=True)


def ego_facebook(scale: float = 1.0, seed: int = 21) -> Database:
    """The ego-Facebook stand-in: dense, heavy-tailed, undirected ego network."""
    spec = _SPECS["ego-Facebook"]
    nodes = _scaled(spec.num_nodes, scale)
    undirected = preferential_attachment_edges(nodes, edges_per_node=3, seed=seed)
    limit = _scaled(spec.num_edges, scale) // 2
    return _build(spec, undirected[:limit], symmetric=True)


def ego_twitter(scale: float = 1.0, seed: int = 42) -> Database:
    """The ego-Twitter stand-in: the most skewed (and most cache-friendly) graph."""
    spec = _SPECS["ego-Twitter"]
    edges = powerlaw_edges(
        _scaled(spec.num_nodes, scale), _scaled(spec.num_edges, scale),
        source_alpha=1.3, target_alpha=0.9, seed=seed,
    )
    return _build(spec, edges)


SNAP_DATASETS.update(
    {
        "wiki-Vote": wiki_vote,
        "p2p-Gnutella04": p2p_gnutella04,
        "ca-GrQc": ca_grqc,
        "ego-Facebook": ego_facebook,
        "ego-Twitter": ego_twitter,
    }
)


def load_snap_standin(name: str, scale: float = 1.0) -> Database:
    """Load one stand-in by its paper name (see :data:`SNAP_DATASETS`)."""
    try:
        factory = SNAP_DATASETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown SNAP stand-in {name!r}; available: {sorted(SNAP_DATASETS)}"
        ) from exc
    return factory(scale=scale)


def dataset_specs() -> Dict[str, SnapDatasetSpec]:
    """The shape parameters of every stand-in (documentation / tests)."""
    return dict(_SPECS)
