"""Leapfrog Trie Join (LFTJ) — the vanilla algorithm of Figure 1.

LFTJ binds the query variables one by one along a global variable order.  At
depth ``d`` the atoms containing variable ``x_d`` each expose a sorted list of
candidate values (one trie level below their currently bound prefix); a
leapfrog intersection enumerates the common values, and the algorithm recurses
for each.  No intermediate result is ever materialised, which is both LFTJ's
key advantage (tiny memory footprint) and the weakness the paper's CLFTJ
addresses (recurring sub-joins are recomputed from scratch).

The paper builds CLFTJ by incorporating caches into LFTJ, and this module
runs that the other way round: :class:`LeapfrogTrieJoin` is
:class:`repro.core.clftj.CachedLeapfrogTrieJoin` over the one-bag
decomposition, whose walk enters no node below depth 0 — so it probes and
stores nothing, and its ``count`` / ``evaluate`` are Figure 1's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database


class LeapfrogTrieJoin(CachedLeapfrogTrieJoin):
    """Vanilla LFTJ: worst-case-optimal multiway join without caching.

    The variable order defaults to the query's own variable order.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[Variable]] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        super().__init__(
            query,
            database,
            TreeDecomposition.singleton(query.variables),
            variable_order if variable_order is not None else query.variables,
            counter=counter,
        )

    def execution_metadata(self) -> Dict[str, object]:
        """The walk's facts, without the cache a one-bag plan never reads."""
        metadata = super().execution_metadata()
        del metadata["cache_entries"], metadata["cache_memory_bytes"]
        return metadata


def lftj_count(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]] = None,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`LeapfrogTrieJoin.count`."""
    return LeapfrogTrieJoin(query, database, variable_order, counter).count()


def lftj_evaluate(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]] = None,
    counter: Optional[OperationCounter] = None,
) -> List[Tuple[object, ...]]:
    """One-shot convenience wrapper returning all result tuples."""
    return list(LeapfrogTrieJoin(query, database, variable_order, counter).evaluate())
