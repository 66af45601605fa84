"""The database: a catalog of named relations plus shared index management."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from itertools import islice
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.storage.dictionary import ValueDictionary
from repro.storage.relation import DeltaBatch, Relation, VersionedRelation
from repro.storage.statistics import StatisticsCatalog
from repro.storage.trie import LsmTrieIndex

#: A cached-index key: (relation name, view signature, column order).
IndexKey = Tuple[str, Tuple[object, ...], Tuple[int, ...]]

#: The cache/build counters an execution scope tracks (every name is also a
#: plain attribute of :class:`Database`, so the global totals stay readable).
SCOPED_COUNTERS: Tuple[str, ...] = (
    "index_builds",
    "index_cache_hits",
    "index_patches",
    "index_compactions",
    "plan_builds",
    "plan_cache_hits",
    "compiled_builds",
    "compiled_cache_hits",
)


class CacheCounterScope:
    """Per-execution deltas of the database's cache/build counters.

    Created by :meth:`Database.execution_scope`.  Every counter bump that
    happens in the thread that opened the scope is recorded here in
    addition to the global counter.  (Forked pool workers bump
    copy-on-write copies of the counters that never reach the parent.)
    Two concurrent executions therefore never see each other's builds, as
    before/after reads of the global counters would: those attribute
    anything that happens to overlap in time.

    ``record`` is only ever called under the database lock (all bumps
    happen inside locked sections), so plain dict updates are safe.
    """

    __slots__ = ("_deltas",)

    def __init__(self) -> None:
        self._deltas: Dict[str, int] = {}

    def record(self, name: str, amount: int) -> None:
        self._deltas[name] = self._deltas.get(name, 0) + amount

    def get(self, name: str) -> int:
        """The delta recorded for counter ``name`` (0 when untouched)."""
        return self._deltas.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """All recorded deltas keyed by counter name."""
        return dict(self._deltas)


#: Items :func:`_rough_bytes` walks in one container; a bigger one is priced
#: from a sample of about this many.
_WALKED_ITEMS = 64


def _rough_bytes(obj: object, depth: int = 5, seen: Optional[set] = None) -> int:
    """A cheap, bounded size estimate for memory-budget accounting.

    ``sys.getsizeof`` plus a shallow walk of containers and of attributes,
    in ``__dict__`` or in ``__slots__`` (a trie, the value dictionary).
    An ``array('q')`` key column's ``sys.getsizeof`` is its whole buffer;
    objects with a ``memory_estimate()`` hook (adhesion caches) use it; a
    container of more than :data:`_WALKED_ITEMS` items walks an evenly
    strided sample of them (a set or dict is stepped through at C level)
    with the same depth budget and charges every item the sample's average,
    so the Python-level work stays O(structure), not O(data), and a table
    of containers (a compiled driver's children table) is still charged for
    what its values hold.
    The default depth reaches the items of those values (driver, its
    hoisted tables, a table, a value, an item).
    """
    if obj is None:
        return 0
    if seen is None:
        seen = set()
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    estimate = getattr(obj, "memory_estimate", None)
    if callable(estimate):
        try:
            return int(estimate())
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        size = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects
        size = 64
    if depth <= 0:
        return size
    if isinstance(obj, (list, tuple, set, frozenset, dict)):
        count = len(obj)
        items = obj.items() if isinstance(obj, dict) else obj
        if count > _WALKED_ITEMS:
            step = count // _WALKED_ITEMS
            if isinstance(obj, (list, tuple)):
                items = obj[::step]
            else:
                items = list(islice(items, 0, None, step))
        walked = 0
        for item in items:
            for part in item if isinstance(obj, dict) else (item,):
                walked += _rough_bytes(part, depth - 1, seen)
        if count > _WALKED_ITEMS:
            walked = walked * count // len(items)
        return size + walked
    attributes = getattr(obj, "__dict__", None)
    values = list(attributes.values()) if isinstance(attributes, dict) else []
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if not name.startswith("__"):
                values.append(getattr(obj, name, None))
    for value in values:
        size += _rough_bytes(value, depth - 1, seen)
    return size


class Database:
    """A named catalog of :class:`~repro.storage.relation.Relation` objects.

    The database also memoises the tries every join over indexes reads in
    one shared cache keyed by ``(relation, view signature, column order)``.
    The *view signature* normalises an atom's selection/projection pattern —
    constants and repeated variables — with variable names erased, so
    syntactically different atoms over the same data share one physical
    index.  Repeated executions of the same (or overlapping) queries
    therefore reuse indexes instead of paying a full rebuild per run; the
    join algorithms ask for tries through
    :meth:`trie_index` / :meth:`view_index`.

    A second, structurally identical cache memoises *execution plans*
    (decomposition/order choices) keyed by name-erased query signatures —
    see :meth:`cached_plan`.

    Relations are **mutable** through :meth:`insert` / :meth:`delete`, which
    apply delta batches to a versioned wrapper instead of rebuilding the
    relation.  Updates *patch* the cached indexes for the touched relation in
    place (LSM-style delta levels, see
    :class:`~repro.storage.trie.LsmTrieIndex`) and leave plans alone — plans
    are schema-keyed heuristics that stay valid across data changes.  Only
    whole-relation replacement through :meth:`add_relation` drops the
    relation's indexes and plans.  Every relation carries a monotonically
    increasing version (:meth:`relation_version`); holders of derived state
    (prepared queries, the statistics catalog) compare versions to notice
    exactly which relations changed, and may pull the applied batches through
    :meth:`deltas_since` to refresh incrementally.

    Once a relation's pending deltas exceed ``compaction_threshold`` as a
    fraction of its base cardinality, the deltas are folded into fresh base
    snapshots (relation and indexes) — bounding merged-read overhead without
    ever paying a per-update rebuild.  Below ``compaction_floor`` base
    tuples, compaction runs after *every* batch: folding a small columnar
    trie is two linear scans, cheaper than routing even one join through the
    merging iterator, so the LSM delta level only stays resident where it
    pays — over indexes large enough that folding per batch would hurt.
    Raise or lower the floor to taste per deployment.

    **Locking model**: one re-entrant lock serialises every cache fill
    (:meth:`view_index`, :meth:`cached_plan`) and every mutation
    (:meth:`add_relation`, :meth:`insert`, :meth:`delete`, :meth:`compact`).
    Concurrent executors — independent engine calls from request threads —
    may therefore share one database: a cold index is built exactly once
    (the losing threads block on the lock and then take the cache hit, so
    ``index_builds`` never double-counts), and readers of an already-cached
    index only pay an uncontended lock acquisition.  Join execution itself
    never takes the lock: iterators carry their own state and tries are
    immutable between mutations.  Interleaving mutations with running
    queries remains the caller's race to reason about, exactly as before.

    The database also owns the **persistent worker pools** morsel-parallel
    execution runs on (:meth:`worker_pool` / :meth:`close_pools`; the
    database doubles as a context manager that closes them).  The same lock
    guards the pool cache, but job submission and worker scheduling have
    their own locks — see :mod:`repro.engine.pool`.
    """

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        name: str = "db",
        compaction_threshold: float = 0.25,
        compaction_floor: int = 4096,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        if compaction_threshold <= 0:
            raise ValueError("compaction threshold must be positive")
        if compaction_floor < 0:
            raise ValueError("compaction floor must be non-negative")
        if memory_budget_bytes is not None and int(memory_budget_bytes) <= 0:
            raise ValueError("memory budget must be a positive number of bytes")
        self.name = name
        #: Soft cap on the database's tracked cache footprints
        #: (:meth:`memory_footprint`).  ``None`` disables enforcement.  Over
        #: budget the engine degrades in a documented order (disable
        #: adhesion caching -> evict compiled drivers/indexes -> serial
        #: fallback) instead of raising; every step lands in
        #: ``ExecutionResult.metadata["degradations"]``.
        self.memory_budget_bytes: Optional[int] = (
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        )
        self.compaction_threshold = compaction_threshold
        self.compaction_floor = compaction_floor
        #: Guards cache fills and mutations (see the locking model above).
        self._lock = threading.RLock()
        #: Per-thread stacks of active :class:`CacheCounterScope` objects.
        #: Thread-local so concurrent executions never observe each other's
        #: bumps.
        self._scope_stacks = threading.local()
        #: The shared, append-only value <-> int-code table every index of
        #: this database is keyed by.  Shared across relations, so code
        #: equality means value equality across atoms.
        self.dictionary = ValueDictionary()
        self._relations: Dict[str, VersionedRelation] = {}
        #: The one statistics catalog every cost estimate, partition plan
        #: and statistics-driven policy over this database reads.
        self.statistics = StatisticsCatalog(self)
        self._versions: Dict[str, int] = {}
        self._index_cache: Dict[IndexKey, LsmTrieIndex] = {}
        #: Number of index builds (cache misses) since creation.
        self.index_builds: int = 0
        #: Number of index cache hits since creation.
        self.index_cache_hits: int = 0
        #: Number of in-place index delta patches applied by updates.
        self.index_patches: int = 0
        #: Number of index compactions (delta levels folded into main).
        self.index_compactions: int = 0
        self._plan_cache: Dict[Hashable, object] = {}
        self._plan_relations: Dict[Hashable, FrozenSet[str]] = {}
        #: Number of plan builds (plan-cache misses) since creation.
        self.plan_builds: int = 0
        #: Number of plan-cache hits since creation.
        self.plan_cache_hits: int = 0
        self._compiled_cache: Dict[Hashable, object] = {}
        self._compiled_relations: Dict[Hashable, FrozenSet[str]] = {}
        #: Number of compiled-driver builds (codegen runs) since creation.
        self.compiled_builds: int = 0
        #: Number of compiled-driver cache hits since creation.
        self.compiled_cache_hits: int = 0
        #: Bumped on every mutation (add/replace/insert/delete) — a coarse
        #: "anything changed" observability counter.  Cache holders should
        #: prefer the per-relation :meth:`relation_version`.
        self.data_version: int = 0
        #: Persistent worker pools for morsel-parallel execution, keyed by
        #: size — see :meth:`worker_pool`.
        self._pools: Dict[int, object] = {}
        for relation in relations:
            self.add_relation(relation)

    # ---------------------------------------------------- execution accounting
    def _scope_stack(self) -> List["CacheCounterScope"]:
        stack = getattr(self._scope_stacks, "stack", None)
        if stack is None:
            stack = []
            self._scope_stacks.stack = stack
        return stack

    def _bump(self, name: str, amount: int = 1) -> None:
        """Increment a global counter and every scope active on this thread.

        Always called under ``self._lock`` (every bump site is a locked
        cache fill or mutation), so scope recording needs no extra locking.
        """
        setattr(self, name, getattr(self, name) + amount)
        stack = getattr(self._scope_stacks, "stack", None)
        if stack:
            for scope in stack:
                scope.record(name, amount)

    @contextmanager
    def execution_scope(self) -> Iterator[CacheCounterScope]:
        """Attribute this thread's counter bumps to a fresh scope.

        The engine opens one scope per execution and reads the per-run
        cache-delta metadata (``index_builds``, ``plan_cache_hits``, ...)
        from it, instead of diffing the global counters — which two
        concurrent executions would misattribute to each other.  Scopes
        nest: an outer scope keeps recording while an inner one is active.
        """
        scope = CacheCounterScope()
        stack = self._scope_stack()
        stack.append(scope)
        try:
            yield scope
        finally:
            stack.remove(scope)

    def add_relation(self, relation: Relation, replace: bool = False) -> None:
        """Register ``relation``; refuses to silently overwrite unless ``replace``.

        Replacement is the heavyweight mutation: it drops every cached index
        and plan touching the relation (the schema may have changed).  For
        data-only changes prefer :meth:`insert` / :meth:`delete`, which keep
        the caches warm.
        """
        with self._lock:
            if relation.name in self._relations and not replace:
                raise ValueError(
                    f"relation {relation.name!r} already exists in {self.name!r}"
                )
            version = self._versions.get(relation.name, 0) + 1
            self._versions[relation.name] = version
            self._relations[relation.name] = VersionedRelation(
                relation, created_version=version
            )
            stale = [key for key in self._index_cache if key[0] == relation.name]
            for key in stale:
                del self._index_cache[key]
            stale_plans = [
                key
                for key, names in self._plan_relations.items()
                if relation.name in names
            ]
            for key in stale_plans:
                del self._plan_cache[key]
                del self._plan_relations[key]
            self._drop_compiled_for(relation.name)
            self.data_version += 1

    def _versioned(self, name: str) -> VersionedRelation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise KeyError(f"database {self.name!r} has no relation {name!r}") from exc

    def relation(self, name: str) -> Relation:
        """Look up a relation by name (the current merged snapshot)."""
        return self._versioned(name).snapshot()

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return (versioned.snapshot() for versioned in self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of all registered relations."""
        return tuple(self._relations)

    # ---------------------------------------------------------------- updates
    def relation_version(self, name: str) -> int:
        """The monotonically increasing version of ``name``.

        Bumped by every effective mutation of the relation — replacement,
        insert, delete — and never reset, so derived-state holders can
        compare versions across replacements.  Returns 0 for unknown names
        (nothing can be cached about a relation that never existed).
        """
        return self._versions.get(name, 0)

    def relation_versions(self, names: Iterable[str]) -> Dict[str, int]:
        """Versions of several relations at once, keyed by name."""
        return {name: self.relation_version(name) for name in names}

    def insert(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Insert ``rows`` into relation ``name``; returns how many were new.

        Appends a delta batch to the relation's versioned wrapper and patches
        the cached indexes in place — no index is rebuilt and no plan is
        dropped.  Already-present rows are no-ops; an all-no-op batch leaves
        the version untouched (so downstream caches stay warm).  A batch
        with an unhashable value, or one that does not sort beside the
        stored rows, raises :class:`~repro.storage.dictionary.ValueEncodingError`
        before anything changed (see :meth:`VersionedRelation.apply`).
        """
        with self._lock:
            versioned = self._versioned(name)
            batch = versioned.apply(self.relation_version(name) + 1, inserts=rows)
            if batch.is_empty:
                return 0
            self._after_mutation(name, versioned, batch)
            return len(batch.inserted)

    def delete(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Delete ``rows`` from relation ``name``; returns how many existed.

        The delta/patching behaviour (and the typed, atomic rejection of
        unhashable values) mirrors :meth:`insert`; deletes reach cached
        tries as tombstones.
        """
        with self._lock:
            versioned = self._versioned(name)
            batch = versioned.apply(self.relation_version(name) + 1, deletes=rows)
            if batch.is_empty:
                return 0
            self._after_mutation(name, versioned, batch)
            return len(batch.deleted)

    def _after_mutation(
        self, name: str, versioned: VersionedRelation, batch: DeltaBatch
    ) -> None:
        self._versions[name] = batch.version
        self.data_version += 1
        self._drop_compiled_for(name)
        self._patch_indexes(name, batch)
        if (
            len(versioned.base) <= self.compaction_floor
            or versioned.delta_fraction() > self.compaction_threshold
        ):
            self.compact(name)

    def _patch_indexes(self, name: str, batch: DeltaBatch) -> None:
        """Patch every cached index over ``name`` in place."""
        from repro.storage.views import signature_view_rows

        view_cache: Dict[Tuple[object, ...], Tuple[List, List]] = {}
        for key, index in self._index_cache.items():
            if key[0] != name:
                continue
            signature = key[1]
            views = view_cache.get(signature)
            if views is None:
                views = (
                    signature_view_rows(signature, batch.inserted),
                    signature_view_rows(signature, batch.deleted),
                )
                view_cache[signature] = views
            inserted, deleted = views
            index.apply_delta(inserted, deleted)
            self._bump("index_patches")

    def deltas_since(self, name: str, version: int) -> Optional[List[DeltaBatch]]:
        """The effective batches applied to ``name`` after ``version``.

        Returns ``None`` when the relation was replaced since ``version`` or
        the (bounded) delta log has been trimmed past it; callers then fall
        back to a full recompute.
        """
        return self._versioned(name).deltas_since(version)

    def compact(self, name: Optional[str] = None) -> int:
        """Fold pending deltas into fresh base snapshots; returns tuples folded.

        Compacts the versioned relation wrapper *and* every cached index
        over it that carries pending deltas.  With
        ``name=None`` every relation is compacted.  Versions do not change —
        compaction is a physical reorganisation, not a logical mutation.
        """
        with self._lock:
            names = [name] if name is not None else list(self._relations)
            folded = 0
            for target in names:
                versioned = self._versioned(target)
                folded += versioned.compact()
                # Compaction swaps the backing column arrays without a
                # version bump, so drivers that captured them go stale.
                self._drop_compiled_for(target)
                for key, index in self._index_cache.items():
                    if key[0] == target and index.has_deltas:
                        index.compact()
                        self._bump("index_compactions")
            return folded

    # --------------------------------------------------------------- indexes
    def view_index(
        self,
        relation_name: str,
        signature: Tuple[object, ...],
        column_order: Sequence[int],
        build: Callable[[], object],
    ) -> object:
        """Return (and memoise) an index over a view of ``relation_name``.

        ``signature`` identifies the view's selection/projection pattern (see
        :func:`repro.storage.views.atom_signature`); ``build`` constructs the
        index on a cache miss.
        """
        key = (relation_name, signature, tuple(column_order))
        with self._lock:
            index = self._index_cache.get(key)
            if index is None:
                index = build()
                self._index_cache[key] = index
                self._bump("index_builds")
            else:
                self._bump("index_cache_hits")
            return index

    def peek_view_index(
        self,
        relation_name: str,
        signature: Tuple[object, ...],
        column_order: Sequence[int],
    ) -> Optional[object]:
        """The cached index :meth:`view_index` would return, or ``None`` — a
        pure read: never builds, never counts as a cache hit."""
        return self._index_cache.get((relation_name, signature, tuple(column_order)))

    def trie_index(self, relation_name: str, attribute_order: Sequence[int]) -> LsmTrieIndex:
        """Return (and memoise) a trie over ``relation_name`` in the given column order.

        ``attribute_order`` is a permutation of the relation's column
        positions; level ``i`` of the trie holds the values of column
        ``attribute_order[i]``.  The cache key uses the identity signature, so
        atoms with all-distinct variables and no constants share these tries.
        The returned index is an updatable
        :class:`~repro.storage.trie.LsmTrieIndex`, patched in place by
        :meth:`insert` / :meth:`delete`.
        """
        relation = self.relation(relation_name)
        order = tuple(attribute_order)
        signature = tuple(range(relation.arity))
        return self.view_index(
            relation_name, signature, order,
            lambda: LsmTrieIndex.build(relation, order, self.dictionary),
        )

    def clear_index_cache(self) -> int:
        """Drop every cached index; returns how many were dropped."""
        with self._lock:
            dropped = len(self._index_cache)
            self._index_cache.clear()
            return dropped

    def index_cache_size(self) -> int:
        """Number of indexes currently cached."""
        return len(self._index_cache)

    # ----------------------------------------------------------------- plans
    def cached_plan(
        self,
        key: Hashable,
        relation_names: Iterable[str],
        build: Callable[[], object],
        cache_if: Optional[Callable[[object], bool]] = None,
    ) -> object:
        """Return (and memoise) a planning artifact under ``key``.

        ``key`` must embed a name-erased query signature
        (:func:`repro.storage.views.query_signature`) plus every planner
        parameter that influenced the choice; ``relation_names`` lists the
        relations the plan depends on, so replacing a relation through
        :meth:`add_relation` invalidates exactly the affected plans.  Delta
        updates (:meth:`insert` / :meth:`delete`) deliberately do *not*
        invalidate plans: a decomposition/order choice is a heuristic over
        the schema and coarse statistics, and stays serviceable across data
        drift.  The ``plan_builds`` / ``plan_cache_hits`` counters mirror the
        index cache's and are surfaced per execution in
        :class:`~repro.engine.results.ExecutionResult` metadata.

        ``cache_if`` lets a builder veto memoisation of a degenerate
        artifact (e.g. a partition plan computed before any index existed):
        the entry is still returned and counted as a build, but the next
        call re-plans instead of serving the degenerate choice forever.
        """
        with self._lock:
            entry = self._plan_cache.get(key)
            if entry is None:
                entry = build()
                self._bump("plan_builds")
                if cache_if is None or cache_if(entry):
                    self._plan_cache[key] = entry
                    self._plan_relations[key] = frozenset(relation_names)
            else:
                self._bump("plan_cache_hits")
            return entry

    def clear_plan_cache(self) -> int:
        """Drop every cached plan; returns how many were dropped."""
        with self._lock:
            dropped = len(self._plan_cache)
            self._plan_cache.clear()
            self._plan_relations.clear()
            return dropped

    def plan_cache_size(self) -> int:
        """Number of plans currently cached."""
        return len(self._plan_cache)

    # ------------------------------------------------------- compiled drivers
    def compiled_driver(
        self,
        key: Hashable,
        relation_names: Iterable[str],
        build: Callable[[], object],
    ) -> object:
        """Return (and memoise) a compiled execution driver under ``key``.

        The compiled cache sits alongside the plan cache and shares its
        per-relation invalidation on replacement — but, unlike plans,
        compiled drivers capture the *physical* trie columns, so they are
        additionally dropped on every data mutation (:meth:`insert` /
        :meth:`delete`) and on :meth:`compact`, which swaps the backing
        arrays without a logical version bump.  The ``compiled_builds`` /
        ``compiled_cache_hits`` counters mirror the index and plan cache
        conventions and are surfaced per execution in result metadata.
        """
        with self._lock:
            entry = self._compiled_cache.get(key)
            if entry is None:
                entry = build()
                self._bump("compiled_builds")
                self._compiled_cache[key] = entry
                self._compiled_relations[key] = frozenset(relation_names)
            else:
                self._bump("compiled_cache_hits")
            return entry

    def peek_compiled_driver(self, key: Hashable) -> Optional[object]:
        """The cached compiled driver under ``key``, or ``None`` — a pure
        read: never builds, never counts as a cache hit."""
        return self._compiled_cache.get(key)

    def _drop_compiled_for(self, name: str) -> None:
        stale = [
            key
            for key, names in self._compiled_relations.items()
            if name in names
        ]
        for key in stale:
            del self._compiled_cache[key]
            del self._compiled_relations[key]

    def clear_compiled_cache(self) -> int:
        """Drop every compiled driver; returns how many were dropped."""
        with self._lock:
            dropped = len(self._compiled_cache)
            self._compiled_cache.clear()
            self._compiled_relations.clear()
            return dropped

    def compiled_cache_size(self) -> int:
        """Number of compiled drivers currently cached."""
        return len(self._compiled_cache)

    # ----------------------------------------------------------- worker pools
    def worker_pool(self, size: Optional[int] = None):
        """Return (and memoise) the persistent pool of ``size`` forked workers.

        Pools are keyed by size (default: the usable cores) and live until
        :meth:`close_pools` (or interpreter exit — every pool registers an
        atexit safety net), so consecutive parallel queries re-use the same
        workers: they are re-armed over a control pipe between jobs instead
        of being re-forked.  A pool that was closed explicitly (e.g. via its
        context manager) is transparently replaced on the next request.
        Any thread may ask — ``repro serve`` forks from its request-handler
        threads (see :func:`repro.engine.pool.reinitialise_child_locks`).

        The pool cache shares the database lock; pool *submission* has its
        own serialisation (see :mod:`repro.engine.pool`'s locking model) and
        never holds the database lock while a job runs.
        """
        from repro.engine.pool import available_workers, create_worker_pool

        size = max(int(size if size is not None else available_workers()), 1)
        with self._lock:
            pool = self._pools.get(size)
            if pool is None or pool.closed:
                pool = create_worker_pool(self, size)
                self._pools[size] = pool
            return pool

    def close_pools(self, drain_timeout: float = 5.0) -> int:
        """Close every worker pool owned by this database; returns the count.

        Idempotent and safe to call from any thread at any time.  Forked
        workers are told to exit (and terminated after a grace period);
        in-flight jobs drain first, each waited on for up to
        ``drain_timeout`` seconds.  A job that outlives its drain window is
        abandoned: the thread running it gets a typed
        :class:`~repro.engine.faults.PoolClosedError` from its own call —
        ``close_pools()`` itself never raises for that and never hangs.
        The database stays fully usable — the next parallel query simply
        builds a fresh pool.
        """
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        closed = 0
        for pool in pools:
            if not pool.closed:
                closed += 1
            pool.close(drain_timeout=drain_timeout)
        return closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close_pools()
        return False

    # ------------------------------------------------------------- reporting
    def memory_footprint(self) -> int:
        """Rough bytes held by the memory-governed structures.

        Covers the index cache (trie columns dominate), the compiled-driver
        cache (captured column references are shared with the index cache
        and de-duplicated by identity), the value dictionary and its JSON
        fragment table (grown by the pages ``/evaluate`` writes).  Adhesion
        caches report through their own ``memory_estimate()`` and are
        governed at the engine layer, where they live.  The number is an
        *estimate* — budget enforcement degrades gracefully, so rough is
        good enough.
        """
        with self._lock:
            entries = list(self._index_cache.values()) + list(
                self._compiled_cache.values()
            )
        seen: set = set()
        total = 0
        for entry in entries:
            total += _rough_bytes(entry, seen=seen)
        total += _rough_bytes(self.dictionary, seen=seen)
        total += _rough_bytes(self.dictionary.fragments, seen=seen)
        return total

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(versioned) for versioned in self._relations.values())

    def summary(self) -> Dict[str, int]:
        """Cardinality of every relation, keyed by name."""
        return {name: len(versioned) for name, versioned in self._relations.items()}

    def __repr__(self) -> str:
        return f"Database({self.name!r}, relations={self.summary()!r})"
