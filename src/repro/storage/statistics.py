"""Relation and attribute statistics: one catalog per database.

Section 4.3's cost walk (:mod:`repro.decomposition.cost`, after Chu et
al.) prices an order from per-attribute distinct counts; the skew-aware
caching policy reads a skew measure; the partition planner weighs a
parallel query's top-variable keys by their frequencies.  That is all any
reader asks for, so that is all :class:`StatisticsCatalog` derives: per
attribute, the value -> frequency map it keeps, the distinct count and the
skew.  Each :class:`~repro.storage.database.Database` owns one catalog
(``database.statistics``); every reader uses it.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Tuple

from repro.storage.relation import DeltaBatch

if TYPE_CHECKING:  # the database owns the catalog
    from repro.storage.database import Database


@dataclass(frozen=True)
class AttributeStatistics:
    """Statistics for one attribute of one relation."""

    attribute: str
    cardinality: int
    distinct: int
    skew: float


@dataclass(frozen=True)
class RelationStatistics:
    """Statistics for a whole relation."""

    name: str
    cardinality: int
    attributes: Mapping[str, AttributeStatistics]

    def attribute(self, name: str) -> AttributeStatistics:
        """Statistics of one attribute."""
        try:
            return self.attributes[name]
        except KeyError as exc:
            raise KeyError(f"no statistics for attribute {name!r} of {self.name!r}") from exc

    def distinct(self, attribute: str) -> int:
        """Number of distinct values of ``attribute``."""
        return self.attribute(attribute).distinct


def _skew_measure(counts: Iterable[int], total: int) -> float:
    """Normalised skew in [0, 1]: 0 = perfectly uniform, 1 = single value.

    The measure is ``1 - H / H_max`` where ``H`` is the Shannon entropy of the
    value-frequency distribution: heavy-tailed SNAP-style attributes score
    high, balanced attributes (e.g. p2p-Gnutella04 endpoints) score low.
    """
    counts = list(counts)
    if total == 0 or len(counts) <= 1:
        return 0.0 if len(counts) <= 1 and total == 0 else (1.0 if len(counts) == 1 else 0.0)
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    max_entropy = math.log2(len(counts))
    if max_entropy == 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - entropy / max_entropy))


class StatisticsCatalog:
    """Lazily-computed statistics of one database's relations.

    The database builds one (``database.statistics``) and every reader
    shares it: the cost walk, the algorithm selector, the partition
    planner, the pairwise baseline's join order and the skew-aware policy.
    It holds its database weakly, so it serves only while the database
    lives.
    Each memoised entry is keyed on the relation's version
    (:meth:`~repro.storage.database.Database.relation_version`), so stale
    statistics are never served after a replacement or update.  When the
    database can supply the delta batches applied since the memoised version
    (:meth:`~repro.storage.database.Database.deltas_since`), the catalog
    *refreshes incrementally*: it maintains the per-attribute value-frequency
    maps, applies the batch tuples to them, and re-derives the aggregate
    statistics — no rescan of the relation.  Whole-relation replacement (or
    a trimmed delta log) falls back to a full recompute.

    **Locking model**: one re-entrant lock serialises every cache fill and
    incremental refresh, so the catalog may be consulted concurrently (the
    parallel executor's partition planner and a cost-based selection can
    race) without ever serving a half-refreshed entry.  Reads of a fresh
    entry still pay the lock — statistics lookups are planner-frequency,
    not join-hot-loop-frequency, so contention is negligible.  The catalog
    never takes the database's lock, so a plan built under the database's
    lock may read it.
    """

    def __init__(self, database: "Database") -> None:
        # Held weakly: the database owns its catalog, and a strong reference
        # back would make every database a cycle that only the cyclic
        # collector frees, tries and compiled drivers with it.
        self._database = weakref.proxy(database)
        self._lock = threading.RLock()
        self._cache: Dict[str, RelationStatistics] = {}
        self._versions: Dict[str, int] = {}
        self._counts: Dict[str, Dict[str, Dict[object, int]]] = {}
        self._cardinalities: Dict[str, int] = {}
        #: Number of from-scratch statistics computations.
        self.full_recomputes: int = 0
        #: Number of delta-applied incremental refreshes.
        self.incremental_refreshes: int = 0

    def relation(self, name: str) -> RelationStatistics:
        """Statistics of ``name`` (computed on first use, version-checked)."""
        with self._lock:
            current_version = self._database.relation_version(name)
            stats = self._cache.get(name)
            if stats is not None and self._versions.get(name) == current_version:
                return stats
            if stats is not None:
                deltas = self._database.deltas_since(name, self._versions[name])
                if deltas is not None:
                    return self._refresh_incrementally(name, current_version, deltas)
            return self._recompute(name, current_version)

    def value_frequencies(self, name: str, attribute: str) -> Dict[object, int]:
        """A fresh copy of one attribute's value -> frequency map.

        The live per-value counts the catalog maintains across delta
        batches; the partition planner weighs top-variable keys with them
        to balance parallel shards.  Returns a copy so callers can never
        observe (or cause) concurrent mutation.
        """
        with self._lock:
            self.relation(name)  # ensure the counts are fresh
            counts = self._counts[name]
            if attribute not in counts:
                raise KeyError(
                    f"no statistics for attribute {attribute!r} of {name!r}"
                )
            return dict(counts[attribute])

    def _recompute(self, name: str, version: int) -> RelationStatistics:
        relation = self._database.relation(name)
        counts = {
            attribute: dict(relation.value_counts(attribute))
            for attribute in relation.attributes
        }
        self._counts[name] = counts
        self._cardinalities[name] = len(relation)
        self.full_recomputes += 1
        return self._store(name, version, relation.attributes)

    def _refresh_incrementally(
        self, name: str, version: int, deltas: "Iterable[DeltaBatch]"
    ) -> RelationStatistics:
        counts = self._counts[name]
        attributes = self._database.relation(name).attributes
        cardinality = self._cardinalities[name]
        for batch in deltas:
            for row in batch.inserted:
                for position, attribute in enumerate(attributes):
                    per_value = counts[attribute]
                    per_value[row[position]] = per_value.get(row[position], 0) + 1
            for row in batch.deleted:
                for position, attribute in enumerate(attributes):
                    per_value = counts[attribute]
                    remaining = per_value.get(row[position], 0) - 1
                    if remaining > 0:
                        per_value[row[position]] = remaining
                    else:
                        per_value.pop(row[position], None)
            cardinality += len(batch.inserted) - len(batch.deleted)
        self._cardinalities[name] = cardinality
        self.incremental_refreshes += 1
        return self._store(name, version, attributes)

    def _store(
        self, name: str, version: int, attributes: Tuple[str, ...]
    ) -> RelationStatistics:
        cardinality = self._cardinalities[name]
        per_attribute = {}
        for attribute in attributes:
            counts = self._counts[name][attribute]
            per_attribute[attribute] = AttributeStatistics(
                attribute=attribute,
                cardinality=cardinality,
                distinct=len(counts),
                skew=_skew_measure(counts.values(), cardinality),
            )
        stats = RelationStatistics(
            name=name, cardinality=cardinality, attributes=per_attribute
        )
        self._cache[name] = stats
        self._versions[name] = version
        return stats

    def attribute(self, relation_name: str, attribute: str) -> AttributeStatistics:
        """Statistics of one attribute of one relation."""
        return self.relation(relation_name).attribute(attribute)
