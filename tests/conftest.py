"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

import repro.server.service as service_module
from repro.engine.engine import ALGORITHMS
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.storage.database import Database
from repro.storage.relation import Relation


#: Every registered algorithm as ``(name, engine options)``, then the two trie
#: joins asking for a pool schedule.  ``algorithm="plftj"`` was
#: ``algorithm="lftj", parallel=True`` under a registry name of its own
#: (``pclftj`` likewise); the ids keep those cases' test names.
ALGORITHM_CASES = [pytest.param(name, {}, id=name) for name in ALGORITHMS] + [
    pytest.param("lftj", {"parallel": True}, id="plftj"),
    pytest.param("clftj", {"parallel": True}, id="pclftj"),
]


def brute_force_evaluate(query: ConjunctiveQuery, database: Database) -> Set[Tuple[object, ...]]:
    """A tiny, obviously-correct nested-loop join used as the oracle in tests.

    Returns the set of result tuples ordered by ``query.variables``.
    """
    assignments: List[Dict[str, object]] = [dict()]
    for atom in query.atoms:
        relation = database.relation(atom.relation)
        extended: List[Dict[str, object]] = []
        for assignment in assignments:
            for row in relation.tuples:
                candidate = dict(assignment)
                consistent = True
                for term, value in zip(atom.terms, row):
                    if isinstance(term, Constant):
                        if term.value != value:
                            consistent = False
                            break
                        continue
                    name = term.name
                    if name in candidate and candidate[name] != value:
                        consistent = False
                        break
                    candidate[name] = value
                if consistent:
                    extended.append(candidate)
        assignments = extended
    return {
        tuple(assignment[variable.name] for variable in query.variables)
        for assignment in assignments
    }


def brute_force_count(query: ConjunctiveQuery, database: Database) -> int:
    """Count of :func:`brute_force_evaluate`."""
    return len(brute_force_evaluate(query, database))


def random_edge_database(
    num_nodes: int = 20,
    num_edges: int = 60,
    seed: int = 0,
    relation_name: str = "E",
) -> Database:
    """A small random directed graph database used across tests."""
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    while len(edges) < num_edges and attempts < num_edges * 50:
        attempts += 1
        source, target = rng.randint(1, num_nodes), rng.randint(1, num_nodes)
        if source != target:
            edges.add((source, target))
    relation = Relation(relation_name, ("src", "dst"), edges)
    return Database([relation], name=f"random-{seed}")


def skewed_edge_database(
    num_nodes: int = 25,
    num_edges: int = 90,
    seed: int = 3,
) -> Database:
    """A skewed graph: a few hub nodes carry most edges (cache-friendly)."""
    rng = random.Random(seed)
    hubs = list(range(1, 4))
    edges = set()
    attempts = 0
    while len(edges) < num_edges and attempts < num_edges * 60:
        attempts += 1
        if rng.random() < 0.7:
            source = rng.choice(hubs)
        else:
            source = rng.randint(1, num_nodes)
        target = rng.randint(1, num_nodes)
        if source != target:
            edges.add((source, target))
    relation = Relation("E", ("src", "dst"), edges)
    return Database([relation], name="skewed")


def process_running(pid: int) -> bool:
    """True while ``pid`` runs; an unreaped zombie counts as exited (an
    orphan's new parent may never reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.fixture
def two_cores(monkeypatch):
    """A two-core host as the HTTP service sees it.  The service clamps a
    request's ``parallel`` to the cores, so ``parallel: 2`` asks for a
    pool of two workers on any host."""
    monkeypatch.setattr(service_module, "available_workers", lambda: 2)


@pytest.fixture
def tiny_db() -> Database:
    """The four-fact example database of the paper's Example 3.1."""
    relation = Relation("R", ("a", "b"), [(1, 1), (1, 2), (2, 1), (2, 2)])
    return Database([relation], name="example-3.1")


@pytest.fixture
def small_graph_db() -> Database:
    """A deterministic 20-node / 60-edge random graph."""
    return random_edge_database()


@pytest.fixture
def skewed_graph_db() -> Database:
    """A deterministic skewed graph with hub nodes."""
    return skewed_edge_database()


@pytest.fixture
def two_relation_db() -> Database:
    """Two binary relations sharing a value domain (for multi-relation queries)."""
    rng = random.Random(9)
    rows_r = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}
    rows_s = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}
    return Database(
        [
            Relation("R", ("a", "b"), [row for row in rows_r if row[0] != row[1]]),
            Relation("S", ("a", "b"), [row for row in rows_s if row[0] != row[1]]),
        ],
        name="two-relations",
    )
