"""Adhesion caches and caching policies.

CLFTJ caches, per tree-decomposition node ``v``, the intermediate result of
the subtree ``t|v`` keyed by the current assignment of ``adhesion(v)``
(Section 3).  This module provides:

* :class:`AdhesionCache` -- the store itself, optionally bounded, with an
  optional LRU eviction discipline (the paper only requires that arbitrary
  replacement/deletion is allowed).
* :class:`CachePolicy` and concrete policies -- the "should we cache?"
  decision of line 21 of Figure 2.  The paper's implementation uses a support
  threshold (cache only assignments whose values occur frequently enough in
  the data); bounded capacity is what drives the dynamic-cache-size
  experiment (Figure 10).
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.instrumentation import OperationCounter
from repro.query.terms import Variable
from repro.storage.database import Database

#: A cache key: (decomposition node id, adhesion value tuple).
CacheKey = Tuple[int, Tuple[object, ...]]


def affected_cache_nodes(decomposition, query, changed_relations) -> FrozenSet[int]:
    """Decomposition nodes whose cached subtree results read a changed relation.

    A CLFTJ cache entry at node ``v`` summarises the join of every atom that
    participates at a depth owned by the subtree ``t|v``.  An atom over a
    changed relation participates at the depths of its variables, so exactly
    the owners of those variables — and all their ancestors — hold stale
    entries.  Everything else survives the update warm, which is the
    selective-invalidation contract of
    :meth:`repro.engine.prepared.PreparedQuery`.

    ``decomposition`` must be the decomposition the executor actually caches
    under (after ``contract_ownerless_bags``), so node ids line up with the
    cache keys.
    """
    affected = set()
    for atom in query.atoms:
        if atom.relation not in changed_relations:
            continue
        for variable in atom.variable_set():
            node = decomposition.owner(variable)
            while node is not None and node not in affected:
                affected.add(node)
                node = decomposition.parent(node)
    return frozenset(affected)


_sizeof = sys.getsizeof
_adhesion_values = itemgetter(1)


def entry_bytes(key: CacheKey, value: object) -> int:
    """Estimated bytes of one cache entry: key tuple, adhesion values, value.

    Count-mode values are measured directly; evaluation-mode values are
    :class:`~repro.core.factorized.FactorizedNode` trees, whose
    ``memory_entries()`` proxy is charged a flat 32 bytes per stored entry
    (a key/children pair in a Python list).  An entry is complete when
    stored and never mutated afterwards, so what ``put`` adds for it is what
    an overwrite or an invalidation takes off again.
    """
    total = _sizeof(key)
    for component in key[1]:
        total += _sizeof(component)
    memory_entries = getattr(value, "memory_entries", None)
    if memory_entries is not None:
        return total + 32 * memory_entries()
    return total + _sizeof(value)


class AdhesionCache:
    """Store of cached intermediate results, optionally bounded.

    ``capacity`` bounds the total number of entries across all adhesions
    (``None`` = unbounded); ``eviction`` selects what happens on insertion
    into a full cache: ``"reject"`` refuses the insertion, ``"lru"`` evicts
    the least recently used entry.

    The cache keeps the byte estimate of its entries as they come and go,
    so :meth:`memory_estimate` is O(1) and executors report it after every
    run.  Two things drop the running figure until the next
    ``memory_estimate`` recomputes it.  An LRU eviction: a cache that evicts
    churns through far more entries than it holds (51 000 evictions against
    100 entries per count in the benchmark's Figure-10 class), and sizing
    each on the way in and out again doubled that count's time.  And stores
    into :attr:`table` past :meth:`put` (the compiled count's probe),
    which call :meth:`drop_byte_sum` instead of sizing each entry.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        eviction: str = "reject",
        counter: Optional[OperationCounter] = None,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        if eviction not in ("reject", "lru"):
            raise ValueError(f"unknown eviction discipline {eviction!r}")
        self.capacity = capacity
        self.eviction = eviction
        self.counter = counter
        #: What the entries hold: "count" (ints) or "evaluate" (factorised
        #: representations).  Bound on first use; guards against mixing.
        self.content_mode: Optional[str] = None
        self._entries: "OrderedDict[CacheKey, object]" = OrderedDict()
        #: Sum of :func:`entry_bytes` over ``_entries``; ``None`` between an
        #: LRU eviction or :meth:`drop_byte_sum` and the next
        #: :meth:`memory_estimate`.
        self._held_bytes: Optional[int] = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def is_bounded(self) -> bool:
        """True when a capacity bound is in effect."""
        return self.capacity is not None

    def bind_mode(self, mode: str) -> None:
        """Declare what kind of values the next execution will store.

        Counting caches integers while evaluation caches factorised
        representations, so one cache must never serve both.  Rebinding is
        allowed while the cache is empty; with live entries of the other
        mode this raises instead of letting the executor crash on a
        type-confused entry deep inside a join.
        """
        if not self._entries or self.content_mode is None:
            self.content_mode = mode
        elif self.content_mode != mode:
            raise ValueError(
                f"adhesion cache holds {self.content_mode!r}-mode entries and cannot "
                f"serve a {mode!r} run; use a separate cache (or invalidate() first)"
            )

    def get(self, node: int, adhesion_values: Tuple[object, ...]) -> Optional[object]:
        """Look up the cached value for ``(node, adhesion_values)``.

        Records a hit or a miss on the counter.  Returns ``None`` on a miss —
        cached values are counts (>= 0) or factorised nodes, never ``None``.
        """
        key = (node, adhesion_values)
        if key in self._entries:
            if self.eviction == "lru":
                self._entries.move_to_end(key)
            if self.counter is not None:
                self.counter.record_cache_hit()
            return self._entries[key]
        if self.counter is not None:
            self.counter.record_cache_miss()
        return None

    def put(self, node: int, adhesion_values: Tuple[object, ...], value: object) -> bool:
        """Insert a value, honouring the capacity bound.

        Returns True when the value was stored.  With ``capacity=0`` nothing
        is ever stored (CLFTJ then behaves exactly like LFTJ).
        """
        key = (node, adhesion_values)
        if key in self._entries:
            if self._held_bytes is not None:
                self._held_bytes += entry_bytes(key, value) - entry_bytes(
                    key, self._entries[key]
                )
            self._entries[key] = value
            if self.eviction == "lru":
                self._entries.move_to_end(key)
            return True
        if self.capacity is not None and len(self._entries) >= self.capacity:
            if self.eviction == "lru" and self.capacity > 0:
                self._entries.popitem(last=False)
                self._held_bytes = None
                if self.counter is not None:
                    self.counter.record_cache_eviction()
            else:
                if self.counter is not None:
                    self.counter.record_cache_rejection()
                return False
        elif self._held_bytes is not None:
            self._held_bytes += entry_bytes(key, value)
        self._entries[key] = value
        if self.counter is not None:
            self.counter.record_cache_insertion()
        return True

    def invalidate(self, node: Optional[int] = None) -> int:
        """Drop entries (all of them, or only those of one node); returns how many."""
        if node is None:
            dropped = len(self._entries)
            self._entries.clear()
            self._held_bytes = 0
            return dropped
        return self.invalidate_nodes((node,))

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop the entries of several nodes at once; returns how many.

        The selective-invalidation entry point for data updates: prepared
        queries pass exactly the nodes whose subtrees read a changed
        relation (:func:`affected_cache_nodes`), so entries under untouched
        subtrees stay warm.
        """
        targets = set(nodes)
        if not targets:
            return 0
        keys = [key for key in self._entries if key[0] in targets]
        for key in keys:
            value = self._entries.pop(key)
            if self._held_bytes is not None:
                self._held_bytes -= entry_bytes(key, value)
        return len(keys)

    @property
    def table(self) -> "OrderedDict[CacheKey, object]":
        """The ``(node, adhesion values) -> value`` table itself.

        A compiled CLFTJ count reads and stores into it without a method
        call, in the loop of this cache's discipline
        (:func:`repro.engine.compiler.store_loop`): it moves a hit to the end
        under LRU, evicts before a store into a full LRU table and refuses
        one into a full ``reject`` table, as :meth:`get` / :meth:`put` do.
        Only an exact ``AdhesionCache`` is probed so, since a subclass may
        override those methods.  A caller that stored must
        :meth:`drop_byte_sum` afterwards.
        """
        return self._entries

    def drop_byte_sum(self) -> None:
        """Forget the running byte sum: entries were stored into
        :attr:`table` directly, and the next :meth:`memory_estimate`
        recomputes it."""
        self._held_bytes = None

    def keys(self) -> Iterable[CacheKey]:
        """The stored ``(node, adhesion values)`` keys (insertion/LRU order)."""
        return iter(self._entries.keys())

    def entries_per_node(self) -> Dict[int, int]:
        """Number of cached entries per decomposition node."""
        result: Dict[int, int] = {}
        for node, _ in self._entries:
            result[node] = result.get(node, 0) + 1
        return result

    def memory_estimate(self) -> int:
        """Estimated bytes held by the cached entries (keys and values).

        The table itself plus :func:`entry_bytes` of every entry.  An
        observability figure, not an allocator audit.
        """
        if self._held_bytes is None:
            entries = self._entries
            if self.content_mode == "count":
                # entry_bytes term by term at C level: every key is a
                # (node, values) pair of one size, count values are ints —
                # never GC-tracked, so ``int.__sizeof__`` is ``getsizeof``
                # without the call through ``sys``
                self._held_bytes = (
                    len(entries) * _sizeof((0, ()))
                    + sum(map(_sizeof, chain.from_iterable(map(_adhesion_values, entries))))
                    + sum(map(int.__sizeof__, entries.values()))
                )
            else:
                self._held_bytes = sum(
                    entry_bytes(key, value) for key, value in entries.items()
                )
        return _sizeof(self._entries) + self._held_bytes

    def __repr__(self) -> str:
        bound = self.capacity if self.capacity is not None else "unbounded"
        return f"AdhesionCache(size={len(self._entries)}, capacity={bound}, eviction={self.eviction!r})"


class CachePolicy:
    """Decides whether an intermediate result should be cached (Figure 2, line 21)."""

    def should_cache(
        self,
        node: int,
        adhesion: Sequence[Variable],
        adhesion_values: Tuple[object, ...],
        intermediate: object,
    ) -> bool:
        """Return True to store ``intermediate`` for ``(node, adhesion_values)``."""
        raise NotImplementedError

    def wants_intermediates(self, node: int) -> bool:
        """Return False when the policy will never cache for ``node``.

        CLFTJ skips maintaining factorised intermediates for such nodes
        during evaluation, preserving LFTJ's memory footprint.
        """
        return True

    def reset(self) -> None:
        """Clear per-execution state (admission budgets etc.).

        Called by CLFTJ at the start of every execution so that a policy
        instance reused across ``count``/``evaluate`` runs starts fresh.
        Stateless policies need not override this.
        """

    def bind_space(self, database: Database) -> None:
        """Bind the policy to the key space executions probe it in.

        Executors hand the policy dictionary *codes* while the statistics a
        policy may have gathered at construction live in value space; this
        hook, called before every run, lets such a policy translate.
        Stateless policies need not override this.
        """


class AlwaysCachePolicy(CachePolicy):
    """Cache every intermediate result (the paper's default, 'caches that store every result')."""

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        return True


class NeverCachePolicy(CachePolicy):
    """Never cache: CLFTJ degenerates to vanilla LFTJ."""

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        return False

    def wants_intermediates(self, node: int) -> bool:
        return False


class SupportThresholdPolicy(CachePolicy):
    """Cache only assignments whose values are frequent enough in the data.

    The paper's implementation "caches only if each assignment has a support
    (number of occurrences) larger than a threshold": a cached entry is only
    worthwhile if the same adhesion assignment will recur.  The support of an
    adhesion assignment is the minimum, over its variables, of the number of
    occurrences of the assigned value in the base relations' columns where
    the variable appears.  Each distinct ``(relation, attribute)`` column is
    counted once per variable, so self-joins (several atoms over one
    relation, as in the triangle query) do not inflate support.
    """

    def __init__(self, database: Database, query, threshold: int = 2) -> None:
        if threshold < 0:
            raise ValueError("support threshold must be non-negative")
        self.threshold = threshold
        self._value_counts: Dict[Variable, Dict[object, int]] = {}
        counted: Dict[Variable, set] = {}
        for atom in query.atoms:
            relation = database.relation(atom.relation)
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                attribute = relation.attributes[position]
                column = (relation.name, attribute)
                seen = counted.setdefault(term, set())
                if column in seen:
                    continue
                seen.add(column)
                counts = relation.value_counts(attribute)
                target = self._value_counts.setdefault(term, {})
                for value, count in counts.items():
                    target[value] = target.get(value, 0) + count
        #: The support table as built (value space); ``bind_space`` points
        #: ``_value_counts`` at a code-space translation of it.
        self._raw_counts = self._value_counts
        self._code_counts: Optional[Dict[Variable, Dict[object, int]]] = None
        self._code_dictionary_size = -1

    def bind_space(self, database: Database) -> None:
        """Translate the support table to the executor's code space.

        The support table is gathered from ``value_counts`` — value space —
        but executions build adhesion keys from dictionary codes, so
        without translation every probe would read support 0 and the
        policy would silently never cache.  The translation is memoised by
        dictionary size (the dictionary is append-only, so a grown
        dictionary may encode values that had no code at the last
        translation).
        """
        dictionary = database.dictionary
        if (
            self._code_counts is None
            or self._code_dictionary_size != len(dictionary)
        ):
            code_of = dictionary.code_of
            self._code_counts = {
                variable: {
                    code: count
                    for value, count in counts.items()
                    if (code := code_of(value)) is not None
                }
                for variable, counts in self._raw_counts.items()
            }
            self._code_dictionary_size = len(dictionary)
        self._value_counts = self._code_counts

    def support(self, adhesion: Sequence[Variable], adhesion_values: Tuple[object, ...]) -> int:
        """The support of one adhesion assignment (min occurrence count of its values)."""
        if not adhesion:
            return 0
        supports = []
        for variable, value in zip(adhesion, adhesion_values):
            supports.append(self._value_counts.get(variable, {}).get(value, 0))
        return min(supports)

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        return self.support(adhesion, adhesion_values) > self.threshold


class BoundedCachePolicy(CachePolicy):
    """Admit only up to ``max_entries`` insertions per node (admission budget).

    This complements :class:`AdhesionCache`'s global capacity bound with a
    per-node budget, which is how the lollipop experiment (Figure 11) gives
    each cache structure its own dimension/size.
    """

    def __init__(self, max_entries_per_node: int) -> None:
        if max_entries_per_node < 0:
            raise ValueError("per-node budget must be non-negative")
        self.max_entries_per_node = max_entries_per_node
        self._admitted: Dict[int, int] = {}

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        admitted = self._admitted.get(node, 0)
        if admitted >= self.max_entries_per_node:
            return False
        self._admitted[node] = admitted + 1
        return True

    def wants_intermediates(self, node: int) -> bool:
        return self.max_entries_per_node > 0

    def reset(self) -> None:
        """Restart the per-node admission budget for a new execution."""
        self._admitted.clear()


class CompositePolicy(CachePolicy):
    """Cache only when every sub-policy agrees."""

    def __init__(self, policies: Iterable[CachePolicy]) -> None:
        self.policies = tuple(policies)
        if not self.policies:
            raise ValueError("a composite policy needs at least one sub-policy")

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        return all(
            policy.should_cache(node, adhesion, adhesion_values, intermediate)
            for policy in self.policies
        )

    def wants_intermediates(self, node: int) -> bool:
        return all(policy.wants_intermediates(node) for policy in self.policies)

    def reset(self) -> None:
        """Reset every member policy (recursively for nested composites)."""
        for policy in self.policies:
            policy.reset()

    def bind_space(self, database: Database) -> None:
        """Bind every member policy to the execution's key space."""
        for policy in self.policies:
            policy.bind_space(database)
