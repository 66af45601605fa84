"""Immutable relations: named, schema'd, duplicate-free tuple sets.

Relations are stored as sorted tuples of hashable values.  The trie index in
:mod:`repro.storage.trie` is built over a *permutation* of the attributes
(the variable order restricted to an atom), so the relation itself stays
order-agnostic.

Mutability lives one layer up: :class:`VersionedRelation` wraps an immutable
base :class:`Relation` plus a set of pending inserted/deleted tuples, so that
:meth:`repro.storage.database.Database.insert` / ``delete`` can apply small
delta batches without rebuilding the base snapshot (or the indexes built over
it).  Each applied batch is kept in a bounded :class:`DeltaBatch` log, which
is how downstream consumers (the statistics catalog, cached indexes) refresh
themselves incrementally instead of rescanning the relation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.storage.dictionary import ValueEncodingError


def _value_error(
    name: str, attributes: Sequence[str], rows: Iterable[Tuple[object, ...]]
) -> ValueEncodingError:
    """The typed error for ``rows`` that failed to hash or to sort.

    Names the first unhashable value, else the pair of values a second,
    watched sort of ``rows`` trips over (error path only, so the cost of
    that sort does not matter).
    """

    def error(column: int, value: object, problem: str) -> ValueEncodingError:
        return ValueEncodingError(
            f"relation {name!r}, column {attributes[column]!r}: value "
            f"{value!r} of type {type(value).__name__} {problem}"
        )

    rows = list(rows)
    for row in rows:
        for column, value in enumerate(row):
            try:
                hash(value)
            except TypeError:
                return error(column, value, "is not hashable")
    compared: List[Tuple[object, ...]] = []

    def watch(left: Tuple[object, ...], right: Tuple[object, ...]) -> int:
        compared[:] = (left, right)
        return -1 if left < right else 1

    try:
        sorted(rows, key=cmp_to_key(watch))
    except TypeError:
        left, right = compared
        column = next(i for i, pair in enumerate(zip(left, right)) if pair[0] != pair[1])
        other = right[column]
        return error(
            column, left[column],
            f"cannot be ordered against {other!r} of type {type(other).__name__}",
        )
    return ValueEncodingError(f"relation {name!r}: its tuples do not sort")


class Relation:
    """A named relation with a fixed attribute schema and a set of tuples.

    The storage layer's value contract is checked here, where values enter:
    every value must be hashable and the tuples must sort, else
    :class:`~repro.storage.dictionary.ValueEncodingError` names the value.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        tuples: Iterable[Sequence[object]] = (),
    ) -> None:
        if not name:
            raise ValueError("relation name must be non-empty")
        if not attributes:
            raise ValueError("relation must have at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"duplicate attribute names in {attributes!r}")
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        arity = len(self.attributes)
        deduplicated = set()
        for row in tuples:
            row_tuple = tuple(row)
            if len(row_tuple) != arity:
                raise ValueError(
                    f"tuple {row_tuple!r} does not match arity {arity} "
                    f"of relation {name!r}"
                )
            try:
                deduplicated.add(row_tuple)
            except TypeError:
                raise _value_error(name, self.attributes, [row_tuple]) from None
        try:
            self._tuples: Tuple[Tuple[object, ...], ...] = tuple(sorted(deduplicated))
        except TypeError:
            raise _value_error(name, self.attributes, deduplicated) from None

    @classmethod
    def _from_sorted(
        cls,
        name: str,
        attributes: Sequence[str],
        rows: Sequence[Tuple[object, ...]],
    ) -> "Relation":
        """Construct from already-sorted, deduplicated, arity-checked rows.

        Internal fast path for :meth:`VersionedRelation.snapshot`, which
        merges two sorted sources and must not pay the full re-sort and
        per-row validation of ``__init__``.
        """
        relation = cls.__new__(cls)
        relation.name = name
        relation.attributes = tuple(attributes)
        relation._tuples = tuple(rows)
        return relation

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def tuples(self) -> Tuple[Tuple[object, ...], ...]:
        """The tuples of the relation in sorted order."""
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        return iter(self._tuples)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in set(self._tuples) if len(self._tuples) < 32 else (
            tuple(row) in self._tuple_set()
        )

    def _tuple_set(self) -> frozenset:
        cached = getattr(self, "_cached_tuple_set", None)
        if cached is None:
            cached = frozenset(self._tuples)
            self._cached_tuple_set = cached
        return cached

    def attribute_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise KeyError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from exc

    def column(self, attribute: str) -> List[object]:
        """All values (with duplicates) of one attribute."""
        index = self.attribute_index(attribute)
        return [row[index] for row in self._tuples]

    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Project onto ``attributes`` (duplicates removed)."""
        indices = [self.attribute_index(attribute) for attribute in attributes]
        projected = {tuple(row[i] for i in indices) for row in self._tuples}
        return Relation(name or f"{self.name}_proj", attributes, projected)

    def select_equal(self, attribute: str, value: object, name: Optional[str] = None) -> "Relation":
        """Select the tuples whose ``attribute`` equals ``value``."""
        index = self.attribute_index(attribute)
        selected = [row for row in self._tuples if row[index] == value]
        return Relation(name or f"{self.name}_sel", self.attributes, selected)

    def rename(self, name: str) -> "Relation":
        """Return a copy of the relation under a different name."""
        return Relation(name, self.attributes, self._tuples)

    def with_attributes(self, attributes: Sequence[str]) -> "Relation":
        """Return a copy with a different schema of the same arity."""
        return Relation(self.name, attributes, self._tuples)

    def value_counts(self, attribute: str) -> Dict[object, int]:
        """Frequency of each value of ``attribute`` (the basis of skew measures)."""
        index = self.attribute_index(attribute)
        return Counter(row[index] for row in self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self._tuples == other._tuples
        )

    def __hash__(self) -> int:
        # Relations are immutable, so the (potentially expensive, all-tuples)
        # hash is computed once and memoised.
        cached = getattr(self, "_cached_hash", None)
        if cached is None:
            cached = hash((self.name, self.attributes, self._tuples))
            self._cached_hash = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attributes={list(self.attributes)!r}, "
            f"cardinality={len(self._tuples)})"
        )


@dataclass(frozen=True)
class DeltaBatch:
    """One applied update batch: the *effective* changes at some version.

    ``inserted`` holds tuples that were genuinely new and ``deleted`` tuples
    that were genuinely present — no-op rows (inserting an existing tuple,
    deleting a missing one) are filtered out before the batch is recorded, so
    consumers may apply batches blindly without membership checks.
    """

    version: int
    inserted: Tuple[Tuple[object, ...], ...]
    deleted: Tuple[Tuple[object, ...], ...]

    @property
    def is_empty(self) -> bool:
        """True when the batch changed nothing."""
        return not self.inserted and not self.deleted

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)


#: How many applied batches a :class:`VersionedRelation` retains for
#: incremental consumers before the oldest are dropped (forcing those
#: consumers onto the full-recompute fallback).
DELTA_LOG_LIMIT = 64


def merge_sorted_rows(
    left: List[Tuple[object, ...]], right: List[Tuple[object, ...]]
) -> List[Tuple[object, ...]]:
    """Merge two sorted, disjoint tuple lists in linear time.

    Shared by :meth:`VersionedRelation.snapshot` and the LSM trie's
    compaction (:meth:`repro.storage.trie.LsmTrieIndex.compact`).
    """
    if not right:
        return left
    if not left:
        return right
    result: List[Tuple[object, ...]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            result.append(left[i])
            i += 1
        else:
            result.append(right[j])
            j += 1
    result.extend(left[i:])
    result.extend(right[j:])
    return result


class VersionedRelation:
    """A mutable relation: an immutable base plus pending delta tuples.

    The wrapper keeps the *net* difference against ``base`` — a set of
    pending inserts (tuples not in the base) and pending deletes (base
    tuples) — so repeated insert/delete round-trips collapse instead of
    accumulating.  :meth:`snapshot` materialises (and caches) the merged
    :class:`Relation`; :meth:`compact` folds the pending deltas into a new
    base once they grow past the database's configured fraction.

    Versions are owned by the :class:`~repro.storage.database.Database`
    (they must survive whole-relation replacement); the wrapper just tags
    its delta-log entries with the version the database hands it.
    """

    def __init__(self, base: Relation, created_version: int = 0) -> None:
        self.base = base
        self._pending_inserts: Set[Tuple[object, ...]] = set()
        self._pending_deletes: Set[Tuple[object, ...]] = set()
        self._snapshot: Optional[Relation] = base
        self._current: Optional[Set[Tuple[object, ...]]] = None
        self._log: List[DeltaBatch] = []
        # Versions below this floor predate the wrapper (a replaced
        # relation): the log cannot describe how to get from them to here.
        self._log_base_version = created_version

    # -------------------------------------------------------------- contents
    @property
    def name(self) -> str:
        """Name of the wrapped relation."""
        return self.base.name

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Schema of the wrapped relation."""
        return self.base.attributes

    def __len__(self) -> int:
        return len(self.base) - len(self._pending_deletes) + len(self._pending_inserts)

    @property
    def delta_size(self) -> int:
        """Number of pending delta tuples (inserts plus deletes)."""
        return len(self._pending_inserts) + len(self._pending_deletes)

    def delta_fraction(self) -> float:
        """Pending delta tuples relative to the base cardinality."""
        return self.delta_size / max(len(self.base), 1)

    def _current_set(self) -> Set[Tuple[object, ...]]:
        if self._current is None:
            current = set(self.base.tuples)
            current -= self._pending_deletes
            current |= self._pending_inserts
            self._current = current
        return self._current

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self._current_set()

    # --------------------------------------------------------------- updates
    def _check_rows(self, rows: Iterable[Sequence[object]]) -> List[Tuple[object, ...]]:
        arity = len(self.base.attributes)
        checked = []
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != arity:
                raise ValueError(
                    f"tuple {row_tuple!r} does not match arity {arity} "
                    f"of relation {self.base.name!r}"
                )
            checked.append(row_tuple)
        return checked

    def apply(
        self,
        version: int,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> DeltaBatch:
        """Apply one update batch (deletes first) and return the effective delta.

        ``version`` is the relation version this batch produces (assigned by
        the database).  The returned batch lists only genuinely new inserts
        and genuinely present deletes; an all-no-op batch comes back empty
        and leaves the wrapper untouched (callers then skip the version bump
        and every cache notification).  An unhashable value, or an insert
        that does not order against the base (rows pending deletion
        included: they stay there until compaction) and the pending inserts,
        raises :class:`~repro.storage.dictionary.ValueEncodingError` and
        changes nothing.
        """
        deletes = self._check_rows(deletes)
        inserts = self._check_rows(inserts)
        current = self._current_set()
        # Everything that can raise on the values — hashing them, ordering
        # the batch against the rows it will be merged with — happens before
        # the first state change, so a rejected batch leaves no trace.
        try:
            effective_deletes: Dict[Tuple[object, ...], None] = {}
            for row in deletes:
                if row in current and row not in effective_deletes:
                    effective_deletes[row] = None
            effective_inserts: Dict[Tuple[object, ...], None] = {}
            for row in inserts:
                if row in effective_deletes:
                    # Deleted and re-inserted within one batch: a net no-op.
                    del effective_deletes[row]
                elif row not in current and row not in effective_inserts:
                    effective_inserts[row] = None
        except TypeError:
            raise _value_error(self.name, self.attributes, deletes + inserts) from None
        batch = DeltaBatch(
            version=version,
            inserted=tuple(effective_inserts),
            deleted=tuple(effective_deletes),
        )
        if batch.is_empty:
            return batch
        # An inserted row is a base row pending deletion (resurrected) or
        # brand new; only brand-new rows can fail to order.
        fresh = effective_inserts.keys() - self._pending_deletes
        if fresh:
            pending = self._pending_inserts.difference(effective_deletes).union(fresh)
            try:
                sorted(pending)  # what snapshot() will merge into the base
                for row in fresh:
                    # Both neighbours of the row's slot in the base get compared.
                    bisect_left(self.base.tuples, row)
            except TypeError:
                raise _value_error(
                    self.name, self.attributes, [*self.base.tuples, *pending]
                ) from None
        # A deleted row is a pending insert (retracted) or a live base row.
        self._pending_deletes.update(effective_deletes.keys() - self._pending_inserts)
        self._pending_inserts.difference_update(effective_deletes)
        self._pending_deletes.difference_update(effective_inserts)
        self._pending_inserts.update(fresh)
        current.difference_update(effective_deletes)
        current.update(effective_inserts)
        self._snapshot = None
        self._log.append(batch)
        while len(self._log) > DELTA_LOG_LIMIT:
            dropped = self._log.pop(0)
            self._log_base_version = dropped.version
        return batch

    def deltas_since(self, version: int) -> Optional[List[DeltaBatch]]:
        """The batches applied after ``version``, oldest first.

        Returns ``None`` when ``version`` predates the wrapper or the log no
        longer reaches back that far (the caller must then fall back to a
        full recompute).
        """
        if version < self._log_base_version:
            return None
        return [batch for batch in self._log if batch.version > version]

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Relation:
        """The merged current relation (cached until the next update)."""
        if self._snapshot is None:
            if not self._pending_inserts and not self._pending_deletes:
                self._snapshot = self.base
            else:
                deletes = self._pending_deletes
                if deletes:
                    kept = [row for row in self.base.tuples if row not in deletes]
                else:
                    kept = list(self.base.tuples)
                rows = merge_sorted_rows(kept, sorted(self._pending_inserts))
                self._snapshot = Relation._from_sorted(
                    self.base.name, self.base.attributes, rows
                )
        return self._snapshot

    # ------------------------------------------------------------ compaction
    def compact(self) -> int:
        """Fold the pending deltas into a new base; returns how many were folded.

        The delta log is retained — logged batches describe *logical*
        changes, which stay valid across physical compaction.
        """
        folded = self.delta_size
        if folded:
            self.base = self.snapshot()
            self._pending_inserts.clear()
            self._pending_deletes.clear()
            self._snapshot = self.base
        return folded

    def __repr__(self) -> str:
        return (
            f"VersionedRelation({self.base.name!r}, base={len(self.base)}, "
            f"+{len(self._pending_inserts)}/-{len(self._pending_deletes)})"
        )
