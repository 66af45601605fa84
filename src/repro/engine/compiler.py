"""Plan-compiled execution: specialize the hot join loop per query shape.

The interpreted trie join (:class:`~repro.core.clftj.CachedLeapfrogTrieJoin`,
whose walk over a one-bag plan is LFTJ) dispatches every
join level through generic per-variable Python — iterator method calls,
participant-list indirection, per-key counter bookkeeping.  This module
closes the plan -> compile -> execute split: from a planned (query,
variable order) it *generates Python source* with
the variable order unrolled into straight-line nested loops, compiles it
once via ``exec`` (pure stdlib), and caches the result in the database's
compiled-driver cache under the name-erased query signature.

What the generated driver does differently from the interpreter:

* trie cursors disappear — the driver captures each atom's flat trie
  columns (key arrays, child-range arrays) at compile time and
  navigates with plain array indexing, so there are no ``open``/``up``/
  ``advance_to`` method calls on the hot path;
* the batched kernels (:func:`~repro.core.leapfrog.run_intersect`,
  ``run_count``, ``run_keys`` — the run-level cores behind
  ``intersect_positions`` / ``intersect_count`` / ``intersect_keys``) are
  pre-bound as default arguments, and the two-run leaf intersection calls
  the galloping pair count directly;
* loop-invariant runs are hoisted: a run whose parent key was bound at an
  earlier depth is computed right after that binding, not once per
  iteration of intermediate loops (the interpreter re-gathers it each time);
* a count's last two levels lose their loop where the deepest one
  intersects a single run positioned by the walk above it: alone (paths,
  tails), a hoisted weight table holds each key's child-run length; beside
  the hoisted invariant set (a cycle's closing pair, a clique's last
  level), a hoisted children table holds each key's child run as a
  ``frozenset``.  Either way the whole walked run goes through ``map`` /
  ``sum`` at C level (:meth:`_Codegen.emit_leaf_run`) — the same trie
  positions, no bytecode per key;
* in a loop with no cache probe the walk right above such a pair — or
  above an evaluation's deepest depth — loses its loop too, where it
  descends through one root-level filter into the run below: a hoisted run
  table maps each walked key to its child run, and the pair is reduced
  over the found runs chained, or their rows are emitted in one batch
  (:meth:`_Codegen.emit_walk_run`) — still every position per binding,
  with nothing carried from one binding to the next;
* an evaluation's deepest depth has no loop either: its keys — one run's
  slice, or the varying run filtered by the hoisted invariant set — become
  rows in one ``rows.extend(zip(...))`` per leaf, or per binding above a
  walk-run, into the one list the driver returns, and a ``limit`` stops
  the loop nest once it holds more rows than the caller keeps
  (:meth:`_Codegen.emit_deepest_evaluate`);
* a CLFTJ miss multiplies like a hit: where every miss stores, a miss on a
  childless bag whose next sibling's subtree ends the order counts the
  bag's block without its continuation — its last depth reduced like a
  count's last level, ``m = hi - lo`` for one run, a set-leaf run over a
  children table beside an invariant set — and then probes the sibling
  *once* under ``factor * t`` for the block's ``t`` bindings, whose key is
  bound above the block (:meth:`_Codegen._plan_once`); the other ``t - 1``
  bindings are the hits they would have been;
* operation counters are *derived*, not kept: the interpreter charges a
  fixed amount per visit of an intersection — one access and one open per
  participant going in, one seek, one access coming out, one recursive-call
  record — so a loop body only bumps one local trip counter
  (``n<site> += 1``), adds the data-dependent span to ``c_acc`` and the
  matches to ``total``, and the epilogue multiplies every constant out
  (see "The counter model" below).  The sums equal the interpreted cost
  model *exactly*, so instrumented comparisons (e.g. CLFTJ-vs-LFTJ memory
  traffic) are unaffected by compilation;
* every generated loop takes a ``[lo, hi)`` code range over the top
  variable, so every morsel of a parallel query reuses one compiled driver
  parameterized by its range.

There is one generator, one driver class and one executor tier, over one
interpreted executor, because CLFTJ is LFTJ plus adhesion-cache probes (the
paper's Section 3.2: the two coincide when no caching takes place): a
decomposition only adds a cache consult at every node entered below depth 0
(:class:`_Codegen`), and a plan with no such node is LFTJ's driver under
LFTJ's key (:func:`resolve_driver`) and, interpreted, CLFTJ's walk over the
one-bag decomposition (:class:`~repro.core.lftj.LeapfrogTrieJoin`).
A probing driver's count consults the adhesion cache in one form: every
consult is a ``.get`` on the cache's own table and every miss offers its
entry to that table, and the cache counters are derived from the hit, miss
and full-table branches' trip counters like the trie counters below.  The
form compiles only :class:`~repro.core.cache.AlwaysCachePolicy` over an
exact :class:`~repro.core.cache.AdhesionCache` (:func:`cache_fallback`);
the cache's store discipline picks one variant of it per call
(:func:`store_loop`), each over the same hoisted tables: an unbounded
cache stores every miss (``count``); an LRU cache (Figure 10's) also moves
a hit to the end and evicts the oldest entry before a store into a full
table (``count-lru``); a ``reject`` cache, or a capacity of 0 under either
eviction, refuses a store into a full table and counts the refusal
(``count-reject``).  The two bounded variants compile on their first use.
A sibling is probed once per counted block only where every miss stores,
so not under ``reject``: there a refused store lets a later binding miss
again.

Because the driver holds direct references to trie columns, it is only
valid while those columns are current: the database drops cached drivers on
relation replacement, inserts/deletes *and* delta compaction (compaction
swaps the backing arrays without a version bump).  An execution falls back
to the interpreted path — also kept, behind ``compile=False``, as the
differential oracle — for one of five reasons, named alike by
``metadata["compiled_reason"]`` and ``engine.explain()``: unmerged deltas
on an atom trie, more probed nodes than :data:`MAX_UNROLLED_CACHE_NODES`, a
cache policy other than ``AlwaysCachePolicy`` or a cache class other than
``AdhesionCache`` over probed nodes (:func:`cache_fallback`), a failed
compilation (``compile failed: ...``, of the driver or of a variant on its
first use), or an *evaluation* over probed nodes (grafting a cached
factorized subtree is control flow the driver does not unroll yet).

The generated source is inspectable: ``debug_source()`` on the executors
(or ``CompiledDriver.debug_source``) returns it verbatim.

The counter model
-----------------

Every straight-line region of a driver — the function body, each loop body
past its filters, each branch of a CLFTJ cache probe, the lower-bound seek
of a ``[lo, hi)`` range — is a *site* (:class:`_Site`).  What the
interpreter charges per visit of a site is known at codegen time, so the
site carries it as coefficients and the generated code only counts visits.
The innermost loop left in the 4-path LFTJ count, with the walk-run and
the reduced leaf run under it, is the whole of it::

    for i1 in range(lo0_1, hi0_1):
        k1 = K0_1[i1]
        p1_0 = fd1_0.get(k1)
        if p1_0 is None:
            continue
        lo1_1 = B1_0[p1_0]; hi1_1 = E1_0[p1_0]
        n3 += 1
        # depth 2: interior intersection
        c_acc += (hi1_1 - lo1_1)
        # depth 2: walk, every found run at once
        rs = list(map(kr2_0.get, K1_1[lo1_1:hi1_1], _noruns))
        ls = list(map(len, rs))
        n4 += len(ls) - ls.count(0)
        # depth 3: interior intersection, per run found
        c_acc += sum(ls)
        # depth 4: fused leaf count, whole run at once
        ws = list(map(w3_0.get, _chain(rs), _zeros))
        n5 += len(ws) - ws.count(0)
        m = sum(ws)
        c_acc += m
        total += m
    ...
    counter.trie_accesses += c_acc + 2 + ... + 204 * n4 + 2 * n5
    counter.trie_seeks += 1 + ... + 2 * n4 + n5
    counter.trie_opens += 1 + ... + 2 * n4 + n5
    counter.recursive_calls += total + 1 + ... + n4 + n5
    counter.results_emitted += total

What a loop still measures is what no trip count determines: ``total``;
the span charge ``max(1, summed run spans)`` (minus the spans of root runs
first met below depth 0 — constants of the captured columns, and one such
unit makes the ``max`` static — which move to the site: the ``204`` above
is 2 opens + 2 ups + a 200-key root run); the runs a walk-run finds and the
keys a reduced leaf run finds (``n4`` and ``n5`` above: a site visited once
per non-empty run, once per non-zero weight); CLFTJ's
per-node intermediates ``im<node>``; and CLFTJ's per-match recursive calls
``c_rec += m``, which under a cache hit differ from ``total``'s
``factor * m``.  Everything else
is derived: count mode adds each match to ``total`` and to nothing else,
so emitted results *are* ``total`` and so is LFTJ's per-match share of the
recursive calls; in a probing count a hit is a visit of a hit branch, a
miss a visit of a miss branch, an eviction or a rejection a visit of a
full-table branch, and an insertion and a materialised tuple each a miss
that was not rejected.  Parity
with the interpreter is exact because the derivation is algebra over the
same charges, not an approximation of them: ``tests/test_compiler.py``
holds one query per kind of site to the interpreted ``counter.as_dict()``
over the whole key space, over summed ``[lo, hi)`` ranges, over empty
relations and under a deadline, and fails if a loop body starts keeping a
derivable counter again.  Evaluate mode
derives the same interior charges and adds each batch of rows to
``c_res``, its matches and its share of the recursive calls; a loop stopped
at a ``limit`` still runs the epilogue, so its counters hold the work done.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, AlwaysCachePolicy, CachePolicy
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.leapfrog import (
    _pair_intersection_count,
    run_count,
    run_intersect,
    run_keys,
)
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.faults import QueryTimeoutError, fault_point
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.trie import TrieIndex
from repro.storage.views import atom_column_order, peek_atom_trie, query_signature

#: Algorithms that execute through compiled drivers (``compile`` parameter).
COMPILED_ALGORITHMS: Tuple[str, ...] = ("lftj", "clftj")

#: CLFTJ drivers unroll one cache probe/store site per decomposition node
#: entered below the root; decompositions with more probed nodes than this
#: fall back to the interpreted executor (generated source growth is linear
#: in probe sites but each site nests, and real plans stay far below this).
MAX_UNROLLED_CACHE_NODES: int = 6

#: Drivers read the trie columns directly, so only delta-free tries (whose
#: ``main`` is the capturable index) qualify; otherwise this is the reason.
DELTAS_PENDING: str = "unmerged deltas pending on an atom trie"

#: Interior-loop iterations between deadline clock reads in generated
#: drivers.  The check is counter-gated so the no-deadline path costs one
#: ``is None`` test per iteration of the *outer* loops only (the fused leaf
#: kernels stay untouched), while an expired deadline is still noticed
#: within a bounded slice of work.
COMPILED_DEADLINE_STRIDE: int = 1024


class _RowLimit(Exception):
    """Raised out of a generated evaluate loop once it holds more rows than
    its ``limit``; caught above the outermost loop, before the epilogue."""


class _CompileFailed(Exception):
    """A count loop compiled on its first use did not compile; its message
    is the ``compiled_reason`` of the interpreted run that replaces it."""


def decomposition_fingerprint(
    decomposition: TreeDecomposition, variable_order: Sequence[Variable]
) -> Tuple[object, ...]:
    """A structural key for (decomposition, order): shape in depth space.

    Per preorder node: its id, its owned depths, its adhesion depths, and
    its parent's preorder rank.  Node ids are deliberately *included* (not
    rank-erased): compiled CLFTJ drivers bake ``cache.get(node_id, ...)``
    literals into the generated source, and the adhesion caches they warm
    are shared with interpreted executions keyed by the same ids — erasing
    them could let two id-labelings of one shape collide on a cache.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    ranks = {node: rank for rank, node in enumerate(decomposition.preorder())}
    parts = []
    for node in decomposition.preorder():
        parent = decomposition.parent(node)
        parts.append(
            (
                node,
                tuple(sorted(depth_of[v] for v in decomposition.owned_variables(node))),
                tuple(sorted(depth_of[v] for v in decomposition.adhesion(node))),
                ranks[parent] if parent is not None else -1,
            )
        )
    return tuple(parts)


def driver_cache_key(
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    decomposition: Optional[TreeDecomposition] = None,
) -> Tuple[object, ...]:
    """The compiled-driver cache key: name-erased signature + order shape.

    Two queries that differ only in variable/query names share a key — and
    correctly share a driver, because the signature pins the relations,
    constants and join structure, and the order positions pin the loop
    nesting.  The key deliberately omits data versions: the database's
    compiled cache drops entries on any mutation of an involved relation.

    CLFTJ drivers additionally pin the (contracted) decomposition shape —
    probe/store sites are unrolled per node, so two decompositions of one
    query need two drivers.
    """
    positions = {variable: index for index, variable in enumerate(query.variables)}
    key: Tuple[object, ...] = (
        "compiled",
        query_signature(query),
        tuple(positions[variable] for variable in variable_order),
    )
    if decomposition is not None:
        key += ("clftj", decomposition_fingerprint(decomposition, variable_order))
    return key


def resolve_driver(
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    decomposition: Optional[TreeDecomposition] = None,
) -> Tuple[Tuple[object, ...], Optional[TreeDecomposition], Optional[str]]:
    """What a plan compiles to: ``(key, decomposition, reason)``.

    Read by the executors' ``build()``, ``engine.explain()``,
    ``PreparedQuery.compiled_driver()`` and the parallel worker-cache
    identity; pass a decomposition for CLFTJ plans only.  The one returned
    is the contracted one whose nodes the count loop probes, or ``None``
    when the root owns every variable: that plan is LFTJ, gets LFTJ's key
    and shares its driver.  ``reason`` says why the plan cannot compile
    (``None`` when it can); the key is returned either way.
    """
    order = tuple(variable_order)
    probed = 0
    if decomposition is not None:
        decomposition = decomposition.contract_ownerless_bags()
        probed = len({decomposition.owner(variable) for variable in order}) - 1
        if not probed:
            decomposition = None
    reason = None
    if probed > MAX_UNROLLED_CACHE_NODES:
        reason = (
            f"decomposition has {probed} probed nodes "
            f"(unroll ceiling is {MAX_UNROLLED_CACHE_NODES})"
        )
    return driver_cache_key(query, order, decomposition), decomposition, reason


def cache_fallback(policy: CachePolicy, cache: AdhesionCache) -> Optional[str]:
    """Why a count that probes ``cache`` under ``policy`` runs interpreted,
    or ``None`` when it compiles.

    The compiled probe is the paper's "caches that store every result":
    exactly :class:`AlwaysCachePolicy` (a subclass may override
    ``should_cache``) over an exact :class:`AdhesionCache` (a subclass may
    override ``get`` / ``put``), whose table the loop reads and writes
    itself.  Every other policy decides per entry, which the interpreter —
    the oracle — runs as written.  Read by the executor's ``build()`` and
    by ``explain()``.
    """
    if type(policy) is not AlwaysCachePolicy:
        return f"cache policy {type(policy).__name__} runs interpreted"
    if type(cache) is not AdhesionCache:
        return f"cache class {type(cache).__name__} runs interpreted"
    return None


def store_loop(cache: AdhesionCache) -> Tuple[str, Optional[int]]:
    """The count loop of ``cache``'s store discipline and the capacity it
    takes (``None``: the unbounded loop takes none).

    ``count`` for an unbounded cache under the default ``reject``
    eviction, which stores every miss; ``count-lru`` for an LRU cache with
    room for an entry, unbounded ones included (a capacity no table
    reaches); ``count-reject`` for a bounded ``reject`` cache and for a
    capacity of 0 under either eviction, where the interpreter refuses
    every store — so an LRU table at 0 holds no entry for a hit to move.
    """
    capacity = cache.capacity
    if capacity == 0 or (capacity is not None and cache.eviction != "lru"):
        return "count-reject", capacity
    if cache.eviction == "lru":
        return "count-lru", sys.maxsize if capacity is None else capacity
    return "count", None


def pending_deltas(
    query: ConjunctiveQuery, database: Database, variable_order: Sequence[Variable]
) -> bool:
    """Would an executor of this plan meet an unmerged delta level right now?

    ``explain()``'s read-only peek: a trie that is not cached yet would be
    built from the merged relation, without a delta.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    tries = (
        peek_atom_trie(database, atom, atom_column_order(atom, depth_of)[1])
        for atom in query.atoms
    )
    return any(trie is not None and trie.has_deltas for trie in tries)


def _atom_bundle(base: TrieIndex) -> Tuple[object, ...]:
    """Flatten one trie's columns into the tuple the generated code unpacks.

    Layout per level ``l``: keys and — below the last level — the child
    begin/end range arrays.  The generated unpack statement is emitted
    against exactly this layout.
    """
    parts: List[object] = []
    for level in range(base.depth):
        parts.append(base._keys[level])
        if level + 1 < base.depth:
            parts.append(base._child_begin[level])
            parts.append(base._child_end[level])
    return tuple(parts)


#: One generated loop: its source, its compiled function and its levels.
_Loop = Tuple[str, Callable, Tuple[str, ...]]


@dataclass
class CompiledDriver:
    """One compiled driver over captured trie columns.

    ``probed_nodes`` are the decomposition nodes whose adhesion-cache probe
    the count loop inlines.  With none, there is an evaluate loop too; with
    some, the count loop reads and writes the table of an unbounded cache,
    and its variants for an LRU and a rejecting cache (:func:`store_loop`)
    are compiled on the first count that needs them, over the same hoisted
    tables; the count takes the cache at *run time*, so one driver serves
    every cache (serial, prepared, per-worker) of its key.
    """

    key: Tuple[object, ...]
    query_name: str
    variable_names: Tuple[str, ...]
    relation_versions: Dict[str, int]
    probed_nodes: Tuple[int, ...]
    #: What each loop is made of (keyed like :meth:`debug_source`:
    #: ``count`` and ``evaluate``, or ``count`` for a probing driver, and
    #: ``count-lru`` / ``count-reject`` once compiled), outermost
    #: first: one word per depth (``merge``, ``walk``, ``fused-leaf``,
    #: ``set-leaf``, ``unfused-leaf``), ``leaf-run`` / ``set-leaf-run`` for a
    #: count's last pair of depths reduced without a loop (over a fused leaf
    #: / a set-leaf), ``walk-run`` for the walk above one that loses its
    #: loop too,
    #: ``leaf-batch`` / ``set-leaf-batch`` for an evaluation's deepest depth
    #: emitted as one batch of rows (over the runs / beside the invariant
    #: set), ``probe@<node>`` before the depth a probed node is entered at,
    #: and where every miss stores ``block-count`` for a childless node's
    #: last depth counted without its continuation and ``once@<node>`` for
    #: the sibling then probed once for all of its bindings.
    levels: Dict[str, Tuple[str, ...]]
    _columns: Tuple[Tuple[object, ...], ...] = field(repr=False)
    _sources: Dict[str, str] = field(repr=False)
    _functions: Dict[str, Callable] = field(repr=False)
    #: The tables the loops' prologues hoisted out of the captured columns,
    #: by name (built by the first loop that needs one): one dict for every
    #: loop, because a name stands for one table of the same columns in
    #: each.  A field so ``memory_footprint()`` sees them.
    _hoists: Dict[str, object] = field(repr=False)
    #: The loops compiled on first use (:meth:`_loop`), by name.
    _deferred: Dict[str, Callable[[], _Loop]] = field(repr=False, default_factory=dict)

    def count(
        self, counter: OperationCounter, lo=None, hi=None, deadline=None,
        cache: Optional[AdhesionCache] = None,
    ) -> int:
        """Run the generated count loop over codes in ``[lo, hi)``.

        A probing driver runs the loop of ``cache``'s store discipline over
        its table (:func:`store_loop`), compiling it first if no count has
        needed it yet; a failed compilation raises :class:`_CompileFailed`
        before anything ran.
        """
        columns, hoist = self._columns, self._hoists
        if not self.probed_nodes:
            return self._functions["count"](columns, hoist, counter, lo, hi, deadline)
        name, capacity = store_loop(cache)
        loop = self._loop(name)
        table = cache.table
        held = len(table)
        try:
            if capacity is None:
                return loop(columns, hoist, counter, table, lo, hi, deadline)
            return loop(columns, hoist, counter, table, capacity, lo, hi, deadline)
        finally:
            # the other loops only ever add entries; a full LRU cache
            # evicts as it stores, at a constant length
            if name == "count-lru" or len(table) != held:
                cache.drop_byte_sum()

    def _loop(self, name: str) -> Callable:
        """The compiled loop ``name``, compiled now if it is deferred."""
        function = self._functions.get(name)
        if function is None:
            try:
                source, function, levels = self._deferred[name]()
            except Exception as error:
                raise _CompileFailed(f"compile failed: {error}") from error
            self._sources[name], self.levels[name] = source, levels
            self._functions[name] = function
        return function

    def evaluate(
        self, counter: OperationCounter, lo=None, hi=None, deadline=None, limit=None
    ) -> List[Tuple[int, ...]]:
        """The coded result rows (variable-order positions) in ``[lo, hi)``,
        as one list.

        With a ``limit`` the loop stops once it holds more than ``limit``
        rows: a list no longer than ``limit`` is the whole result, a longer
        one starts with the result's first ``limit`` rows (and its counters
        charge only the work done).
        """
        return self._functions["evaluate"](
            self._columns, self._hoists, counter, lo, hi, deadline, limit
        )

    def debug_source(self, mode: str = "count") -> str:
        """The generated Python source for ``mode``: ``count``, and
        ``evaluate`` (no probed node) or ``count-lru`` and ``count-reject``
        (probed nodes; compiled here if no count has needed them yet)."""
        if mode in self._deferred:
            self._loop(mode)
        if mode not in self._sources:
            raise ValueError(
                f"unknown driver mode {mode!r}; choose one of "
                f"{tuple(dict.fromkeys([*self._sources, *self._deferred]))}"
            )
        return self._sources[mode]

    def matches(self, database: Database) -> bool:
        """Is this driver still current for ``database``?

        Version-keyed: any replacement, insert/delete or compaction of an
        involved relation bumps (or re-bases) state the captured columns no
        longer reflect, and the database has then already dropped the
        cached entry — this check lets long-lived holders (prepared
        queries) notice without consulting the cache.
        """
        return all(
            database.relation_version(name) == version
            for name, version in self.relation_versions.items()
        )


# --------------------------------------------------------------------------
# Code generation.
# --------------------------------------------------------------------------


@dataclass
class _Site:
    """One straight-line region of a generated driver and what a visit costs.

    ``visits`` is the source expression for how often the region ran: ``"1"``
    for the function body, else the local trip counter the region bumps on
    entry.  The other fields are what the interpreter charges per visit;
    the epilogue multiplies them out (module docstring, "The counter model").
    """

    visits: str
    acc: int = 0
    seek: int = 0
    opens: int = 0
    rec: int = 0


@dataclass(frozen=True)
class _ClftjNodeShape:
    """One decomposition node's depth geometry under a compatible order."""

    node: int
    entry_depth: int
    last_own: int
    subtree_last: int
    adhesion_depths: Tuple[int, ...]
    children: Tuple[int, ...]


def _clftj_shapes(
    decomposition: Optional[TreeDecomposition], variable_order: Sequence[Variable]
) -> Tuple[Dict[int, _ClftjNodeShape], Tuple[int, ...]]:
    """Depth-space shapes per node, plus the owner of every depth (nothing
    of either without a decomposition).

    Strong compatibility makes every field well-defined straight-line data:
    each node's own depths are contiguous, its subtree occupies the
    contiguous block ``[entry_depth, subtree_last]``, and its adhesion
    depths (sorted by depth, the interpreter's key order) all precede its
    entry depth.
    """
    if decomposition is None:
        return {}, ()
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    shapes: Dict[int, _ClftjNodeShape] = {}
    owner_at_depth = tuple(
        decomposition.owner(variable) for variable in variable_order
    )
    for node in decomposition.preorder():
        own_depths = sorted(
            depth_of[variable]
            for variable in decomposition.owned_variables(node)
        )
        subtree_last = max(
            depth_of[variable]
            for variable in decomposition.subtree_variables(node)
        )
        adhesion = sorted(
            depth_of[variable] for variable in decomposition.adhesion(node)
        )
        shapes[node] = _ClftjNodeShape(
            node=node,
            entry_depth=own_depths[0] if own_depths else -1,
            last_own=own_depths[-1] if own_depths else -1,
            subtree_last=subtree_last,
            adhesion_depths=tuple(adhesion),
            children=tuple(decomposition.children(node)),
        )
    return shapes, owner_at_depth


class _Codegen:
    """Emit one specialized driver function for a join structure.

    ``atom_depths[a]`` maps atom ``a``'s trie levels to global depths (one
    entry per level, strictly increasing); the generated function nests one
    loop per depth, intersecting the participating runs with the same
    kernels — and the same recorded cost arithmetic — as the interpreter.

    ``shapes`` / ``owner_at_depth`` (:func:`_clftj_shapes`; empty for LFTJ)
    are what a decomposition adds.  Per *probed* node (entered at depth > 0
    — entered-at-0 nodes are never consulted, Figure 2's ``depth > 0``
    guard), the node's entry depth gets a straight-line preamble: build the
    adhesion key tuple from the already bound ``k<depth>`` locals, probe
    the cache; on a hit multiply the running factor by the cached count and
    jump the emission to the continuation depth ``subtree_last + 1``
    (always another node's entry depth, or the base case); on a miss run
    the ordinary loops with a per-node intermediate accumulator
    ``im<node>`` and store it in the cache's table on the way out.  The
    accumulators replicate the interpreter's ``_intrmd`` dict exactly —
    including its persist-across-iterations staleness, since locals behave
    the same way — and every counter charge lands where the interpreter
    lands it; the hit and miss branches' trip counters stand in for the
    cache counters.  With no probed node none of this is emitted: LFTJ's
    source.

    ``store`` is the cache's store discipline (:func:`store_loop`).
    ``None``: every miss stores, so a miss on a childless node may count its
    block and probe the next node once (:meth:`_plan_once`).  ``"lru"``
    takes the cache's capacity ``cap``: a hit moves its entry to the end, a
    store into a full table first pops the oldest entry, and that branch's
    trip counter stands in for the evictions.  ``"reject"`` takes ``cap``
    too: a store into a full table is refused, that branch's trip counter
    stands in for the rejections, and no node is probed once.
    """

    def __init__(
        self,
        atom_depths: Sequence[Tuple[int, ...]],
        bundles: Sequence[Tuple[object, ...]],
        mode: str,
        shapes: Dict[int, _ClftjNodeShape],
        owner_at_depth: Tuple[int, ...],
        store: Optional[str] = None,
    ) -> None:
        self.store = store
        self.atom_depths = tuple(atom_depths)
        self.num_variables = 1 + max(
            depth for depths in atom_depths for depth in depths
        )
        self.mode = mode
        self.bundles = tuple(bundles)
        self.lines: List[str] = []
        # Participants per depth: (atom, level) pairs in atom order.
        self.participants: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_variables)
        ]
        for atom, depths in enumerate(self.atom_depths):
            for level, depth in enumerate(depths):
                self.participants[depth].append((atom, level))
        #: Hoisted structures keyed by the depth whose loop body builds
        #: them (``-1`` = prologue, cached across calls on the driver).
        self.hoist_builds: Dict[int, List[Tuple[str, str]]] = {}
        self.shapes = shapes
        self.owner_at_depth = owner_at_depth
        self.probed: Tuple[_ClftjNodeShape, ...] = tuple(
            shapes[node]
            for node in dict.fromkeys(owner_at_depth)
            if shapes[node].entry_depth > 0
        )
        self.tracked_nodes = {shape.node for shape in self.probed}
        self.shape_at_entry = {shape.entry_depth: shape for shape in self.probed}
        #: Depths whose key must be bound to a local even in count mode
        #: (adhesion keys are built from them).
        self.key_depths = frozenset(
            depth for shape in self.probed for depth in shape.adhesion_depths
        )
        #: The running multiplication factor as a source expression;
        #: rebound to a hit-branch local while emitting continuations.
        self.factor = "1"
        self._probe_serial = 0
        self._factor_serial = 0
        #: One-shot flag: the next entry record was already emitted by a
        #: cache-probe preamble (the interpreter records the recursive call
        #: *before* consulting the cache, so the probe owns that record).
        self._skip_entry_record = False
        #: Every site opened so far, root first; ``self.site`` is the one
        #: the code being emitted runs in.  The root starts with the
        #: top-level call the interpreter records on entry.
        self.site = _Site("1", rec=1)
        self.sites: List[_Site] = [self.site]
        #: The trip counters of every probe's hit and miss branches, and of
        #: every store's full-table branch (``lru``: an eviction, ``reject``:
        #: a rejection).
        self.hit_visits: List[str] = []
        self.miss_visits: List[str] = []
        self.full_visits: List[str] = []
        #: What was emitted at each depth (:meth:`levels`).
        self.level_words: Dict[int, List[str]] = {}
        #: Per childless node whose miss is counted without its continuation
        #: (:meth:`_plan_once`): the next sibling, probed once after its block.
        self.once: Dict[int, _ClftjNodeShape] = self._plan_once()
        #: Each such block's last depth -> its node.
        self.block_ends: Dict[int, int] = {
            shapes[node].subtree_last: node for node in self.once
        }
        #: The depths whose bindings a count only counts: the deepest, and
        #: the last depth of every block above.
        self.count_ends = (
            frozenset((self.num_variables - 1, *self.block_ends))
            if mode == "count"
            else frozenset()
        )
        self._plan_leaf_sets()
        self._plan_interior()

    def bind_depth(self, atom: int, level: int) -> int:
        """The depth whose loop body binds this participant's run.

        Level 0 runs are bound in the prologue (depth ``-1``); deeper runs
        bind where their parent level's position is assigned.
        """
        return self.atom_depths[atom][level - 1] if level >= 1 else -1

    def _plan_once(self) -> Dict[int, _ClftjNodeShape]:
        """Plan the count's once-per-block probes.

        A miss on a childless node S runs S's block and, per binding of its
        last depth, the continuation: the probe of the node N entered right
        after S's subtree.  When N's subtree ends the order (its hit
        continuation is the base case), N's key is bound above S — the
        running-intersection property puts N's adhesion before S's entry —
        so every binding probes the one entry the first binding found or
        stored.  The block is then only counted (:attr:`count_ends`), and N
        is probed once under ``factor * t`` for the ``t`` bindings: the
        first arrival as before, the other ``t - 1`` as the hits they were.
        The same trie positions are visited, the same counters derived and
        the same entries stored, in the same order (S stores nothing in its
        block).  Not under ``reject``: a refused store lets a later binding
        miss again.
        """
        if self.store == "reject":
            return {}
        once: Dict[int, _ClftjNodeShape] = {}
        for shape in self.probed:
            after = self.shape_at_entry.get(shape.subtree_last + 1)
            if (
                shape.children
                or after is None
                or after.subtree_last != self.num_variables - 1
            ):
                continue
            if max(after.adhesion_depths, default=-1) >= shape.entry_depth:
                raise AssertionError(
                    f"node {after.node}'s adhesion reaches into node {shape.node}'s block"
                )
            once[shape.node] = after
        return once

    def _plan_leaf_sets(self) -> None:
        """Plan the loop-invariant set hoist for every count end, and for an
        evaluation's deepest depth.

        A count end's run whose parent key binds at an *outer* depth is
        constant across the loop right above it, so counting its
        intersection with the varying runs by a per-iteration merge re-scans
        it every time.  Instead, build a ``set`` of each invariant run right
        where it binds, chain-intersect the invariant sets (still outside
        that loop), and reduce the count to one C-level
        ``set.intersection`` over the varying run only — or, for an
        evaluation's keys, a C-level ``filter`` of the varying run by the
        set, which keeps the run's sorted order.  This changes how the
        matches are computed, never what they are — and the recorded costs
        depend only on run spans, which are untouched — so counter parity
        with the interpreter is preserved.
        """
        #: Per count end with an invariant run: the hoisted set's name and
        #: the runs that vary (the deepest end named first, as in LFTJ).
        self.leaf_sets: Dict[int, Tuple[str, List[Tuple[int, int]]]] = {}
        serial = 0
        ends = self.count_ends if self.mode == "count" else (self.num_variables - 1,)
        for end in sorted(ends, reverse=True):
            participants = self.participants[end]
            if end < 1 or len(participants) < 2:
                continue
            invariant = sorted(
                (pair for pair in participants if self.bind_depth(*pair) < end - 1),
                key=lambda pair: self.bind_depth(*pair),
            )
            if not invariant:
                continue
            previous = None
            for atom, level in invariant:
                name = f"sl{serial}"
                serial += 1
                run_slice = f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]"
                if previous is None:
                    expression = f"set({run_slice})"
                else:
                    expression = f"{previous}.intersection({run_slice})"
                self.hoist_builds.setdefault(self.bind_depth(atom, level), []).append(
                    (name, expression)
                )
                previous = name
            self.leaf_sets[end] = (
                previous,
                [pair for pair in participants if self.bind_depth(*pair) == end - 1],
            )

    def _plan_interior(self) -> None:
        """Plan driver-walk specializations for interior intersections.

        The same invariance argument as :meth:`_plan_leaf_sets`, applied to
        interior depths — with the twist that descending participants must
        also yield *positions*.  When exactly one participant's run was
        bound in the immediately enclosing loop (the *driver* — a child run,
        adjacency-sized by construction) and every other run bound earlier,
        the k-way merge collapses into a walk of the driver run gated by
        hoisted C-level lookups: a ``set`` per invariant participant that
        only filters, a position ``dict`` per invariant participant the walk
        descends through.  Keys come out in driver order, which is sorted —
        the same order the merge would produce.  Recorded costs again depend
        only on spans, so counter parity is preserved.
        """
        self.interior_plan: Dict[int, Dict[str, object]] = {}
        for depth in range(1, self.num_variables - 1):
            participants = self.participants[depth]
            if len(participants) < 2 or depth in self.count_ends:
                continue
            latest = max(self.bind_depth(*pair) for pair in participants)
            drivers = [
                pair for pair in participants if self.bind_depth(*pair) == latest
            ]
            if len(drivers) != 1:
                continue
            filters = [pair for pair in participants if pair != drivers[0]]
            self.interior_plan[depth] = {
                "driver": drivers[0],
                "filters": filters,
                "leaf_run": self._leaf_run_parent(depth, filters),
            }
        for depth, plan in self.interior_plan.items():
            plan["walk_run"] = walk_run = self._walk_run_parent(depth, plan)
            leaf_run = plan["leaf_run"]
            for atom, level in plan["filters"]:
                bind = self.bind_depth(atom, level)
                if (atom, level) == walk_run:
                    # Nothing but the walk below reads this position, and
                    # only for the child run under it, a slice of the column ...
                    build = (
                        f"kr{atom}_{level}",
                        f"{{K{atom}_{level}[i]: K{atom}_{level + 1}"
                        f"[B{atom}_{level}[i]:E{atom}_{level}[i]]"
                        f" for i in range(lo{atom}_{level}, hi{atom}_{level})}}",
                    )
                elif (atom, level) == leaf_run and depth + 1 not in self.leaf_sets:
                    # ... or nothing but the leaf, and only for the length
                    # of the child run under it ...
                    build = (
                        f"w{atom}_{level}",
                        f"{{K{atom}_{level}[i]: E{atom}_{level}[i] - B{atom}_{level}[i]"
                        f" for i in range(lo{atom}_{level}, hi{atom}_{level})}}",
                    )
                elif (atom, level) == leaf_run:
                    # ... or, beside an invariant set, for the child run
                    # itself: the trie level re-keyed.
                    build = (
                        f"ch{atom}_{level}",
                        f"{{K{atom}_{level}[i]: frozenset(K{atom}_{level + 1}"
                        f"[B{atom}_{level}[i]:E{atom}_{level}[i]])"
                        f" for i in range(lo{atom}_{level}, hi{atom}_{level})}}",
                    )
                elif self.needs_positions(atom, level):
                    build = (
                        f"fd{atom}_{level}",
                        f"{{K{atom}_{level}[i]: i for i in "
                        f"range(lo{atom}_{level}, hi{atom}_{level})}}",
                    )
                else:
                    build = (
                        f"fs{atom}_{level}",
                        f"set(K{atom}_{level}"
                        f"[lo{atom}_{level}:hi{atom}_{level}])",
                    )
                self.hoist_builds.setdefault(bind, []).append(build)

    def _leaf_run_parent(
        self, depth: int, filters: Sequence[Tuple[int, int]]
    ) -> Optional[Tuple[int, int]]:
        """The walk filter whose child runs are the next level's one varying
        run, when that level is a count end.

        A count's last two levels — or a block's, counted without its
        continuation — reduce to straight-line code (:meth:`emit_leaf_run`)
        when the count end intersects *one* run positioned by this walk's
        position dict — alone (a fused leaf) or with the hoisted invariant
        set (a set-leaf) — no cache probe is entered between the two, and
        every other filter only narrows the walked run (a second position
        dict would make the leaf a pair).
        """
        end = depth + 1
        if end not in self.count_ends or end in self.shape_at_entry:
            return None
        leaf_set = self.leaf_sets.get(end)
        varying = self.participants[end] if leaf_set is None else leaf_set[1]
        if len(varying) != 1:
            return None
        ((atom, level),) = varying
        parent = (atom, level - 1)
        return parent if parent in filters else None

    def _walk_run_parent(
        self, depth: int, plan: Dict[str, object]
    ) -> Optional[Tuple[int, int]]:
        """The walk filter whose child runs the level below chains, when the
        walk at ``depth`` loses its loop too (:meth:`emit_walk_run`).

        That takes a loop with no probed node whose next depth is driven by
        the child run of this walk's one descending filter, a root-level
        filter, so its run table is hoisted once per driver: in a count, a
        reduced leaf run (:meth:`_leaf_run_parent`); in an evaluation, the
        deepest depth, whose one varying run — alone (``leaf-batch``) or
        beside the hoisted invariant set (``set-leaf-batch``) — is that child
        run.  Nothing else descends here — the walked run does not, and
        every other filter only narrows it — so nothing below varies with
        this depth's key but the chained run.
        """
        if self.probed or plan["leaf_run"] is not None:
            return None
        descending = [pair for pair in plan["filters"] if self.needs_positions(*pair)]
        if self.needs_positions(*plan["driver"]) or len(descending) != 1:
            return None
        ((atom, level),) = descending
        if level != 0:
            return None
        end = depth + 1
        if self.mode == "count":
            below = self.interior_plan.get(end)
            if below is None or below["leaf_run"] is None or below["driver"] != (atom, 1):
                return None
        else:
            leaf_set = self.leaf_sets.get(end)
            varying = self.participants[end] if leaf_set is None else leaf_set[1]
            if end + 1 != self.num_variables or varying != [(atom, 1)]:
                return None
        return atom, level

    # ------------------------------------------------------------- utilities
    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def note_level(self, depth: int, word: str) -> None:
        """Record what ``depth`` is emitted as (a hit's continuation emits a
        depth a second time, as the same thing)."""
        words = self.level_words.setdefault(depth, [])
        if word not in words:
            words.append(word)

    def levels(self) -> Tuple[str, ...]:
        """The emitted driver as words, outermost depth first (a depth's
        probes before what it is emitted as)."""
        return tuple(
            word
            for depth in sorted(self.level_words)
            for word in sorted(self.level_words[depth], key=lambda word: "@" not in word)
        )

    def run_expr(self, atom: int, level: int) -> str:
        return f"(K{atom}_{level}, lo{atom}_{level}, hi{atom}_{level})"

    def runs_expr(self, participants: Sequence[Tuple[int, int]]) -> str:
        inner = ", ".join(self.run_expr(atom, level) for atom, level in participants)
        if len(participants) == 1:
            inner += ","
        return f"({inner})"

    def span_expr(self, participants: Sequence[Tuple[int, int]]) -> str:
        return " + ".join(
            f"(hi{atom}_{level} - lo{atom}_{level})" for atom, level in participants
        )

    def needs_positions(self, atom: int, level: int) -> bool:
        """Does the walk descend through this participant (deeper level exists)?"""
        return level + 1 < len(self.atom_depths[atom])

    @contextmanager
    def visit_site(self, indent: int, trips: str = "1") -> Iterator[None]:
        """Open the site of a loop body or branch and count its visits
        (``trips`` at once where a whole run is reduced without a loop)."""
        outer = self.site
        self.site = _Site(f"n{len(self.sites)}")
        self.sites.append(self.site)
        self.emit(indent, f"{self.site.visits} += {trips}")
        yield
        self.site = outer

    def emit_level_charges(
        self, indent: int, depth: int, participants: Sequence[Tuple[int, int]]
    ) -> None:
        """What the interpreter charges one visit of a depth's intersection.

        Per participant: one access and one open on the way in, one seek,
        one access on the way out — whether the level is walked, merged or
        answered by the fused leaf kernel (which is charged for the
        open/seek/up cycle it elides) — plus the recursive-call record.  All
        constants of the visit, so they go to the site; only the span is
        data and stays in the loop.
        """
        self.charge_level(depth, len(participants))
        self.emit_span_charge(indent, participants)

    def charge_level(self, depth: int, count: int) -> None:
        """The constants of one visit of a ``count``-way intersection."""
        site = self.site
        site.acc += 2 * count
        site.seek += count
        site.opens += count
        if depth > 0 and not self._skip_entry_record:
            site.rec += 1
        # A probe preamble that already recorded the call (the interpreter
        # records *before* consulting the cache) owns this visit's record.
        self._skip_entry_record = False

    def emit_span_charge(
        self, indent: int, participants: Sequence[Tuple[int, int]]
    ) -> None:
        """Charge ``max(1, summed run spans)`` accesses for one intersection.

        The root run of an atom first met below depth 0 is never clamped by
        the shard range, so its span is a constant of the captured columns.
        One such unit makes the sum >= 1 and the interpreter's ``max``
        static: the constant part goes to the site and the loop adds only
        the spans that vary.
        """
        fixed, varying = self.split_spans(participants)
        if not fixed:
            self.emit(indent, f"st = {self.span_expr(participants)}")
            self.emit(indent, "c_acc += st if st > 1 else 1")
            return
        self.site.acc += fixed
        if varying:
            self.emit(indent, f"c_acc += {self.span_expr(varying)}")

    def split_spans(
        self, participants: Sequence[Tuple[int, int]]
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """The summed spans of root runs first met below depth 0 (constants
        of the captured columns), and the participants whose span varies."""
        fixed = 0
        varying: List[Tuple[int, int]] = []
        for atom, level in participants:
            if level == 0 and self.atom_depths[atom][0] > 0:
                fixed += len(self.bundles[atom][0])
            else:
                varying.append((atom, level))
        return fixed, varying

    def emit_deadline_check(self, indent: int, trips: str = "1") -> None:
        """One counter-gated deadline check per loop trip (or per reduced
        run, which advances the gate by the ``trips`` it stands for)."""
        self.emit(indent, "if _dl_at is not None:")
        self.emit(indent + 1, f"_dlt += {trips}")
        self.emit(indent + 1, f"if _dlt >= {COMPILED_DEADLINE_STRIDE}:")
        self.emit(indent + 2, "_dlt = 0")
        self.emit(indent + 2, "if _monotonic() >= _dl_at:")
        self.emit(indent + 3, "raise _TimeoutError(deadline.timeout)")

    # ------------------------------------------------------------ generation
    def generate(self) -> str:
        probe = ""
        if self.probed:
            probe = "_tab, " if self.store is None else "_tab, cap, "
        limit = " limit=None," if self.mode == "evaluate" else ""
        self.emit(
            0,
            f"def _{self.mode}(columns, _hoist, counter, {probe}lo=None, hi=None, deadline=None,{limit}",
        )
        self.emit(
            0,
            "           _run_intersect=_run_intersect, _run_count=_run_count,",
        )
        self.emit(
            0,
            "           _run_keys=_run_keys, _pair_count=_pair_count, "
            "_bisect=_bisect):",
        )
        self.prologue()
        if self.mode == "evaluate":
            self.emit(1, "try:")
            self.emit_depth(0, 2)
            self.emit(1, "except _RowLimit:")
            self.emit(2, "pass  # more than ``limit`` rows: the caller keeps a prefix")
        else:
            self.emit_depth(0, 1)
        # The trip counters are only known once the loops are emitted, so
        # their zeroing is spliced into the prologue afterwards.
        counters = [site.visits for site in self.sites[1:]]
        if counters:
            self.lines.insert(self._zeroing_line, "    " + " = ".join(counters) + " = 0")
        self.epilogue()
        return "\n".join(self.lines) + "\n"

    def prologue(self) -> None:
        for atom, depths in enumerate(self.atom_depths):
            names: List[str] = []
            for level in range(len(depths)):
                names.append(f"K{atom}_{level}")
                if level + 1 < len(depths):
                    names.append(f"B{atom}_{level}")
                    names.append(f"E{atom}_{level}")
            target = ", ".join(names)
            if len(names) == 1:
                target += ","
            self.emit(1, f"({target}) = columns[{atom}]")
        self.emit(1, "c_acc = 0")
        if self.mode == "evaluate":
            self.emit(1, "c_res = 0")
            self.emit(1, "rows = []; _ext = rows.extend")
            self.emit(1, "_cap = _maxsize if limit is None else limit")
        # Cooperative deadline: resolve the instant once, check already
        # expired deadlines immediately (so tiny inputs still time out),
        # then re-check once per stride of outer-loop iterations.  The
        # check is counter-neutral — compiled/interpreted counter parity
        # holds with and without a deadline.
        self.emit(1, "_dl_at = None if deadline is None else deadline.at")
        self.emit(1, "_dlt = 0")
        self.emit(1, "if _dl_at is not None and _monotonic() >= _dl_at:")
        self.emit(2, "raise _TimeoutError(deadline.timeout)")
        if self.mode == "count":
            self.emit(1, "total = 0")
        # Root runs of every atom are loop invariants of the whole function;
        # lengths are compile-time constants of the captured columns.
        for atom in range(len(self.atom_depths)):
            self.emit(
                1,
                f"lo{atom}_0 = 0; hi{atom}_0 = {len(self.bundles[atom][0])}",
            )
        self._zeroing_line = len(self.lines)
        # The shard range restricts exactly the depth-0 intersection, like
        # BoundedTrieIterator does on the interpreted parallel path — whose
        # cursor opens on the run's first key and, finding it below ``lo``,
        # seeks there: one seek at the balanced-tree cost of the root run.
        clamped = self.participants[0]
        self.emit(1, "if lo is not None:")
        for atom, _level in clamped:
            size = len(self.bundles[atom][0])
            if size:
                self.emit(2, f"if K{atom}_0[0] < lo:")
                with self.visit_site(3):
                    self.site.seek += 1
                    self.site.acc += size.bit_length()
            self.emit(2, f"lo{atom}_0 = _bisect(K{atom}_0, lo, lo{atom}_0, hi{atom}_0)")
        self.emit(1, "if hi is not None:")
        for atom, _level in clamped:
            self.emit(2, f"hi{atom}_0 = _bisect(K{atom}_0, hi, lo{atom}_0, hi{atom}_0)")
        # Prologue hoists derive only from the captured (immutable) columns,
        # so they are memoised in the driver's ``_hoist`` dict: every morsel
        # of a parallel execution reuses them instead of rebuilding per call.
        for name, expression in self.hoist_builds.get(-1, ()):
            self.emit(1, f"{name} = _hoist.get({name!r})")
            self.emit(1, f"if {name} is None:")
            self.emit(2, f"{name} = {expression}")
            self.emit(2, f"_hoist[{name!r}] = {name}")
        if self.probed:
            self.emit(1, "_tget = _tab.get")
            if self.store == "lru":
                self.emit(1, "_tmove = _tab.move_to_end; _tpop = _tab.popitem")
            self.emit(1, "c_rec = 0")
            self.emit(
                1, "; ".join(f"im{shape.node} = 0" for shape in self.probed)
            )

    def derived(self, field: str, *measured: str) -> str:
        """``measured`` locals plus every site's ``field`` charge x visits."""
        terms = list(measured)
        for site in self.sites:
            charge = getattr(site, field)
            if site.visits == "1":
                terms.append(str(charge))
            elif charge:
                terms.append(site.visits if charge == 1 else f"{charge} * {site.visits}")
        return " + ".join(terms)

    def epilogue(self) -> None:
        # Count mode adds every match to ``total`` and to nothing else:
        # emitted results are ``total``, and so is the per-match share of
        # the recursive calls — unless there are probes: under a cache hit
        # ``total`` grows by ``factor * m`` while the interpreter still
        # recurses ``m`` times, so the calls keep their own local.  Evaluate
        # mode's matches are its rows, ``c_res``.
        results = "total" if self.mode == "count" else "c_res"
        per_match = "c_rec" if self.probed else results
        if self.probed:
            # A hit or a miss is a visit of its branch, and every miss stores
            # one entry unless refused: what the cache's calls would record.
            self.emit(1, f"c_mat = {' + '.join(self.miss_visits)}")
            self.emit(1, f"counter.cache_hits += {' + '.join(self.hit_visits)}")
            self.emit(1, "counter.cache_misses += c_mat")
            full = " + ".join(self.full_visits)
            if self.store == "reject":
                self.emit(1, f"c_rej = {full}")
                self.emit(1, "counter.cache_rejections += c_rej")
                self.emit(1, "c_mat -= c_rej")
            self.emit(1, "counter.cache_insertions += c_mat")
            if self.store == "lru":
                self.emit(1, f"counter.cache_evictions += {full}")
            self.emit(1, "counter.tuples_materialized += c_mat")
        self.emit(1, f"counter.trie_accesses += {self.derived('acc', 'c_acc')}")
        self.emit(1, f"counter.trie_seeks += {self.derived('seek')}")
        self.emit(1, f"counter.trie_opens += {self.derived('opens')}")
        self.emit(1, f"counter.recursive_calls += {self.derived('rec', per_match)}")
        self.emit(1, f"counter.results_emitted += {results}")
        self.emit(1, f"return {'total' if self.mode == 'count' else 'rows'}")

    def emit_depth(self, depth: int, indent: int) -> None:
        if depth == self.num_variables:
            # The base case a cache hit's continuation can land on: one
            # recursive call, ``factor`` result units.
            self.site.rec += 1
            self.emit(indent, f"total += {self.factor}")
            return
        shape = self.shape_at_entry.get(depth)
        if shape is not None:
            self.emit_probe(depth, indent, shape)
            return
        self.emit_loops(depth, indent)

    def emit_loops(self, depth: int, indent: int) -> None:
        """The depth's intersection and everything nested below it."""
        if depth in self.count_ends:
            self.emit_count_end(depth, indent)
        elif depth + 1 == self.num_variables:
            self.emit_deepest_evaluate(depth, indent)
        else:
            self.emit_interior(depth, indent)

    def emit_probe(
        self, depth: int, indent: int, shape: _ClftjNodeShape, word: str = "probe"
    ) -> str:
        """The inlined cache consult at one probed node's entry depth.

        A hit multiplies the running factor by the cached count and jumps to
        the continuation; a miss runs the node's block and stores its
        intermediate.  A miss on a node of :attr:`once` counts its block
        without the continuation and then consults the next sibling once
        (:meth:`emit_probe_once`); ``word`` names such a consult in
        :meth:`levels`.  Returns the hit branch's trip counter.
        """
        pid = self._probe_serial
        self._probe_serial += 1
        node = shape.node
        if not shape.adhesion_depths:
            key = "()"
        elif len(shape.adhesion_depths) == 1:
            key = f"(k{shape.adhesion_depths[0]},)"
        else:
            key = "(" + ", ".join(f"k{d}" for d in shape.adhesion_depths) + ")"
        self.note_level(depth, f"{word}@{node}")
        self.emit(indent, f"# node {node}: adhesion-cache probe")
        # The interpreter records the recursive call before consulting.
        self.site.rec += 1
        # the cache's own key, so interpreted runs share the entries
        self.emit(indent, f"ak{pid} = ({node}, {key})")
        self.emit(indent, f"cv{pid} = _tget(ak{pid})")
        self.emit(indent, f"if cv{pid} is None:")
        body = indent + 1
        self.emit(body, f"im{node} = 0")
        self._skip_entry_record = True
        with self.visit_site(body):
            self.miss_visits.append(self.site.visits)
            self.emit_loops(depth, body)
        after = self.once.get(node)
        if after is not None:
            self.emit_probe_once(body, shape, after)
        store = f"_tab[ak{pid}] = im{node}"
        if self.store == "reject":
            # a full cache refuses the entry
            self.emit(body, "if len(_tab) < cap:")
            self.emit(body + 1, store)
            self.emit(body, "else:")
            with self.visit_site(body + 1):
                self.full_visits.append(self.site.visits)
        else:
            if self.store == "lru":
                # a full cache makes room by evicting its least recently used
                self.emit(body, "if len(_tab) >= cap:")
                with self.visit_site(body + 1):
                    self.full_visits.append(self.site.visits)
                    self.emit(body + 1, "_tpop(False)")
            self.emit(body, store)
        self.emit(indent, "else:")
        if self.store == "lru":
            self.emit(body, f"_tmove(ak{pid})")
        self.emit(body, f"im{node} = cv{pid}")
        fid = self._factor_serial
        self._factor_serial += 1
        if self.factor == "1":
            self.emit(body, f"f{fid} = cv{pid}")
        else:
            self.emit(body, f"f{fid} = {self.factor} * cv{pid}")
        saved = self.factor
        self.factor = f"f{fid}"
        with self.visit_site(body):
            hit = self.site.visits
            self.hit_visits.append(hit)
            self.emit_depth(shape.subtree_last + 1, body)
        self.factor = saved
        return hit

    def emit_probe_once(
        self, indent: int, shape: _ClftjNodeShape, after: _ClftjNodeShape
    ) -> None:
        """The next sibling's consult, once for the ``t = im<node>``
        bindings a miss on ``shape`` counted (:meth:`_plan_once`).

        Each binding recorded the recursive call into the sibling — a site
        visited ``t`` times.  The first arrival misses or hits as it did,
        under ``factor * t``, since the other ``t - 1`` would have hit the
        entry it found or stored: visits of its hit branch.
        """
        bindings = f"im{shape.node}"
        saved = self.factor
        self.factor = bindings if saved == "1" else f"{saved} * {bindings}"
        with self.visit_site(indent, bindings):
            self.emit(indent, f"if {bindings}:")
            hit = self.emit_probe(after.entry_depth, indent + 1, after, "once")
            self.emit(indent + 1, f"{hit} += {bindings} - 1")
        self.factor = saved

    def emit_interior(self, depth: int, indent: int) -> None:
        participants = self.participants[depth]
        count = len(participants)
        self.emit(indent, f"# depth {depth}: interior intersection")
        self.emit_level_charges(indent, depth, participants)
        plan = self.interior_plan.get(depth)
        if plan is not None:
            self.emit_interior_walk(depth, indent, plan)
            return
        self.note_level(depth, "merge")
        need = tuple(
            self.needs_positions(atom, level) for atom, level in participants
        )
        targets = ", ".join(
            f"ps{depth}_{atom}" if needed else "_unused"
            for (atom, _level), needed in zip(participants, need)
        )
        if count == 1:
            targets += ","
        need_literal = (
            "(" + ", ".join(str(flag) for flag in need)
            + ("," if count == 1 else "") + ")"
        )
        self.emit(
            indent,
            f"ks{depth}, ({targets}) = _run_intersect("
            f"{self.runs_expr(participants)}, {need_literal})",
        )
        self.emit(indent, f"for i{depth} in range(len(ks{depth})):")
        body = indent + 1
        self.emit_deadline_check(body)
        if self.mode == "evaluate" or depth in self.key_depths:
            self.emit(body, f"k{depth} = ks{depth}[i{depth}]")
        for atom, level in participants:
            if self.needs_positions(atom, level):
                self.emit(body, f"p{atom}_{level} = ps{depth}_{atom}[i{depth}]")
        self.emit_descent(depth, body)

    def emit_descent(self, depth: int, body: int) -> None:
        """The rest of a loop body once ``depth``'s key survived: a site."""
        self.emit_body_hoists(depth, body)
        with self.visit_site(body):
            self.emit_depth(depth + 1, body)
        if not self.probed:
            return
        # A tracked node's intermediate grows once per binding of its last
        # own variable, by the product of its children's intermediates.
        node = self.owner_at_depth[depth]
        shape = self.shapes[node]
        if node in self.tracked_nodes and depth == shape.last_own:
            product = " * ".join(f"im{child}" for child in shape.children)
            self.emit(body, f"im{node} += {product or 1}")

    def emit_body_hoists(self, depth: int, body: int) -> None:
        # Hoisted child runs: every run whose parent key was just bound here
        # is computed now — including runs only consumed several loops
        # deeper, which the interpreter would re-gather per iteration.
        for atom, depths in enumerate(self.atom_depths):
            for level in range(1, len(depths)):
                if depths[level - 1] == depth:
                    parent = level - 1
                    self.emit(
                        body,
                        f"lo{atom}_{level} = B{atom}_{parent}[p{atom}_{parent}]; "
                        f"hi{atom}_{level} = E{atom}_{parent}[p{atom}_{parent}]",
                    )
        for name, expression in self.hoist_builds.get(depth, ()):
            self.emit(body, f"{name} = {expression}")

    def emit_interior_walk(
        self, depth: int, indent: int, plan: Dict[str, object]
    ) -> None:
        """The specialized interior: walk the driver run, gate on hoists.

        Replaces the k-way merge where exactly one run was bound by the
        enclosing loop — each driver key passes through C-level set/dict
        probes of the invariant runs, and positions for descending
        participants come from the hoisted dicts instead of merge output.
        """
        if plan["leaf_run"] is not None:
            self.emit_leaf_run(depth, indent, plan)
            return
        if plan["walk_run"] is not None:
            self.emit_walk_run(depth, indent, plan)
            return
        self.note_level(depth, "walk")
        atom, level = plan["driver"]
        self.emit(
            indent,
            f"for i{depth} in range(lo{atom}_{level}, hi{atom}_{level}):",
        )
        body = indent + 1
        self.emit_deadline_check(body)
        self.emit(body, f"k{depth} = K{atom}_{level}[i{depth}]")
        for other, other_level in plan["filters"]:
            if self.needs_positions(other, other_level):
                self.emit(
                    body,
                    f"p{other}_{other_level} = "
                    f"fd{other}_{other_level}.get(k{depth})",
                )
                self.emit(body, f"if p{other}_{other_level} is None:")
                self.emit(body + 1, "continue")
            else:
                self.emit(body, f"if k{depth} not in fs{other}_{other_level}:")
                self.emit(body + 1, "continue")
        if self.needs_positions(atom, level):
            self.emit(body, f"p{atom}_{level} = i{depth}")
        self.emit_descent(depth, body)

    def emit_walk_run(self, depth: int, indent: int, plan: Dict[str, object]) -> None:
        """A walk whose every found key descends into the leaf run below,
        reduced with it (``walk-run``).

        Per walked key the loop this replaces looked the descending filter's
        position up and ran the leaf run over the child run there.  The
        hoisted run table ``kr<a>_0`` holds that child run per key (the trie
        level re-keyed, like the weight and children tables), so the walked
        keys map to their runs at C level and the leaf run goes over all of
        them at once, chained.  Each binding still visits every position
        below it — nothing is kept across bindings — and a binding's chain
        is at most one relation long.  The site model holds per found run,
        which is non-empty: the level below is visited once per run found,
        its span charge is the run's length plus the invariant runs' spans
        (static ``max``), and the leaf run below keeps its own sites.

        In an evaluation the level below is the deepest, and its rows come
        out in one batch per binding (:meth:`emit_chained_evaluate`): the
        walked keys ``ws`` are kept, in the walk's order, because the rows
        repeat each of them once per key of its run.
        """
        parent, parent_level = plan["walk_run"]
        below = depth + 1
        self.note_level(depth, "walk-run")
        self.emit(indent, f"# depth {depth}: walk, every found run at once")
        if self.mode == "evaluate":
            self.emit(indent, f"ws = {self.narrowed_run(plan, plan['walk_run'], ordered=True)}")
            keys = "ws"
        else:
            keys = self.narrowed_run(plan, plan["walk_run"])
        self.emit(indent, f"rs = list(map(kr{parent}_{parent_level}.get, {keys}, _noruns))")
        self.emit(indent, "ls = list(map(len, rs))")
        found = "len(ls) - ls.count(0)"
        with self.visit_site(indent, found):
            if self.mode == "evaluate":
                self.emit_chained_evaluate(below, indent, found)
                return
            self.emit(indent, f"# depth {below}: interior intersection, per run found")
            participants = self.participants[below]
            self.charge_level(below, len(participants))
            others = [pair for pair in participants if pair != (parent, parent_level + 1)]
            self.emit_run_spans(indent, others, "sum(ls)", found)
            self.emit_leaf_run(below, indent, self.interior_plan[below], chained=True)

    def narrowed_run(
        self, plan: Dict[str, object], descending: Tuple[int, int], ordered: bool = False
    ) -> str:
        """A walk's driver run as a slice, intersected with the set of every
        filter but the ``descending`` one (a run's keys are unique, so the
        intersection keeps each) — or, ``ordered``, filtered by those sets
        into a list that keeps the run's sorted order."""
        atom, level = plan["driver"]
        keys = f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]"
        narrowing = [f"fs{other}_{other_level}" for other, other_level in plan["filters"]
                     if (other, other_level) != descending]
        if narrowing and ordered:
            for name in narrowing:
                keys = f"filter({name}.__contains__, {keys})"
            keys = f"list({keys})"
        elif narrowing:
            keys = f"{narrowing[0]}.intersection({', '.join([keys] + narrowing[1:])})"
        return keys

    def emit_run_spans(
        self, indent: int, others: Sequence[Tuple[int, int]], lengths: str, found: str
    ) -> None:
        """Charge the span charges of ``found`` visits of one intersection
        at once: ``lengths`` sums the varying run's spans, and the ``others``
        add their fixed spans to the site and their invariant ones per
        visit.  A visited run is non-empty, so ``max(1, span)`` is static."""
        fixed, varying = self.split_spans(others)
        self.site.acc += fixed
        spans = lengths
        if varying:
            invariant = self.span_expr(varying)
            if len(varying) > 1:
                invariant = f"({invariant})"
            spans += f" + ({found}) * {invariant}"
        self.emit(indent, f"c_acc += {spans}")

    def emit_leaf_run(
        self, depth: int, indent: int, plan: Dict[str, object], chained: bool = False
    ) -> None:
        """The walk over the driver run *and* the leaf under it, reduced.

        Per walked key the loop this replaces looked a position up and added
        the child run's length to two sums; the hoisted weight table holds
        that length per key, so the pair of levels is a C-level ``map`` over
        the run and a ``sum``.  The same trie positions are visited and the
        site model holds: the leaf's site is visited once per key found
        (weights are >= 1 — a key of a delta-free trie has a non-empty child
        run — so the misses are the zeros), its span charge ``max(1, span)``
        is its span, and all its spans together are the matches ``m``.

        Beside an invariant set ``sl<k>`` (a cycle's closing intersection,
        ``set-leaf-run``) the hoisted children table holds each key's child
        run as a ``frozenset`` instead, the empty one for a key it lacks: the
        found runs' lengths are the varying part of the span charge (the
        invariant runs add the same spans per key found, and the ``max``
        stays static because a found run is non-empty), and ``m`` is the
        summed sizes of their intersections with ``sl<k>``.  A frozenset
        because ``set.intersection`` with a set argument iterates the smaller
        side: a hub's long child run costs no more than ``sl<k>``.

        ``chained``: the walked run is every run the walk above found
        (:meth:`emit_walk_run`), one after another.  A key may repeat across
        runs and each copy is a visit, so a narrowing set filters the chain
        and keeps every copy (an intersection would drop them).

        At a block's end (:attr:`block_ends`) the pair is a block's last
        two depths and ``m`` its bindings, for the probe once after it.
        """
        parent, parent_level = plan["leaf_run"]
        if chained:
            # the gate advances by both loops' trips: the walk's and this one's
            span, keys = "len(ls) + sum(ls)", "_chain(rs)"
            for other, other_level in plan["filters"]:
                if (other, other_level) != plan["leaf_run"]:
                    keys = f"filter(fs{other}_{other_level}.__contains__, {keys})"
        else:
            atom, level = plan["driver"]
            span = f"hi{atom}_{level} - lo{atom}_{level}"
            keys = self.narrowed_run(plan, plan["leaf_run"])
        found = "len(ws) - ws.count(0)"
        end = depth + 1
        leaf_set = self.leaf_sets.get(end)
        self.note_level(depth, "leaf-run" if leaf_set is None else "set-leaf-run")
        if end in self.block_ends:
            what = f"node {self.block_ends[end]}'s bindings"
        else:
            what = f"{'fused leaf' if leaf_set is None else 'set-leaf'} count"
        self.emit(indent, f"# depth {end}: {what}, whole run at once")
        self.emit_deadline_check(indent, span)
        if leaf_set is None:
            self.emit(indent, f"ws = list(map(w{parent}_{parent_level}.get, {keys}, _zeros))")
            with self.visit_site(indent, found):
                self.charge_level(end, 1)
                self.emit(indent, "m = sum(ws)")
                self.emit(indent, "c_acc += m")
                self.emit_leaf_tally(end, indent)
            return
        set_name, set_varying = leaf_set
        leaf = self.participants[end]
        self.emit(indent, f"cs = list(map(ch{parent}_{parent_level}.get, {keys}, _empty))")
        self.emit(indent, "ws = list(map(len, cs))")
        with self.visit_site(indent, found):
            self.charge_level(end, len(leaf))
            self.emit_run_spans(
                indent, [pair for pair in leaf if pair not in set_varying], "sum(ws)", found
            )
            self.emit(indent, f"m = sum(map(len, map({set_name}.intersection, cs)))")
            self.emit_leaf_tally(end, indent)

    def emit_leaf_count(self, depth: int, indent: int) -> None:
        """Bind ``m`` to a count end's bindings, via the invariant-set plan
        when one exists."""
        leaf_set = self.leaf_sets.get(depth)
        if leaf_set is None:
            self.emit_count_of_runs(self.participants[depth], indent)
            return
        final, varying = leaf_set
        if not varying:
            self.emit(indent, f"m = len({final})")
        elif len(varying) == 1:
            atom, level = varying[0]
            self.emit(
                indent,
                f"m = len({final}.intersection("
                f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]))",
            )
        else:
            self.emit(
                indent,
                f"m = len({final}.intersection("
                f"_run_keys({self.runs_expr(varying)})))",
            )

    def emit_count_of_runs(
        self, participants: Sequence[Tuple[int, int]], indent: int
    ) -> None:
        """Bind ``m`` to the intersection size of the participants' runs.

        Mirrors ``_count_common``: inline span checks and the two-run
        galloping pair count; three or more runs go through the shared
        ``run_count`` kernel.
        """
        count = len(participants)
        if count == 1:
            atom, level = participants[0]
            self.emit(indent, f"m = hi{atom}_{level} - lo{atom}_{level}")
            return
        if count == 2:
            (a, al), (b, bl) = participants
            self.emit(indent, f"sa = hi{a}_{al} - lo{a}_{al}")
            self.emit(indent, f"sb = hi{b}_{bl} - lo{b}_{bl}")
            self.emit(indent, "if sa and sb:")
            self.emit(
                indent + 1,
                f"m = _pair_count(K{a}_{al}, lo{a}_{al}, hi{a}_{al}, "
                f"K{b}_{bl}, lo{b}_{bl}, hi{b}_{bl})",
            )
            self.emit(indent, "else:")
            self.emit(indent + 1, "m = 0")
            return
        self.emit(indent, f"m = _run_count({self.runs_expr(participants)})")

    def emit_count_end(self, depth: int, indent: int) -> None:
        """A count end: its intersection's size, without a loop over it."""
        participants = self.participants[depth]
        if depth in self.block_ends:
            # A block's last depth: an interior intersection, charged as
            # one; its bindings only count the continuation's visits.
            self.note_level(depth, "block-count")
            self.emit(indent, f"# depth {depth}: node {self.block_ends[depth]}'s bindings")
        elif all(level >= 1 for _atom, level in participants):
            # The interpreter's fused leaf: one stateless child intersection
            # replaces the whole open/intersect/up cycle and is charged with
            # the operations it elides, so a visit costs what an unfused
            # one does.
            self.note_level(depth, "fused-leaf" if depth not in self.leaf_sets else "set-leaf")
            self.emit(indent, f"# depth {depth}: fused leaf count")
        else:
            # Some participant first appears at the deepest depth: the fused
            # child read is unavailable and the interpreter recurses for real.
            self.note_level(depth, "unfused-leaf")
            self.emit(indent, f"# depth {depth}: leaf count (unfused)")
        self.emit_level_charges(indent, depth, participants)
        self.emit_leaf_count(depth, indent)
        if depth in self.block_ends:
            self.emit_deadline_check(indent, "m")
        self.emit_leaf_tally(depth, indent)

    def emit_leaf_tally(self, depth: int, indent: int) -> None:
        """A count end's arithmetic for ``m`` matches: at a block's end,
        ``m`` more bindings for its node's intermediate."""
        if depth in self.block_ends:
            self.emit(indent, f"im{self.block_ends[depth]} += m")
            return
        if not self.probed:
            self.emit(indent, "total += m")
            return
        if self.factor == "1":
            self.emit(indent, "c_rec += m; total += m")
        else:
            self.emit(indent, f"c_rec += m; total += {self.factor} * m")
        node = self.owner_at_depth[self.num_variables - 1]
        if node in self.tracked_nodes:
            # The deepest owner is always a decomposition leaf, so the
            # interpreter's ``matches * children_product`` is just ``m``.
            self.emit(indent, f"im{node} += m")

    def emit_deepest_evaluate(self, depth: int, indent: int) -> None:
        """An evaluation's deepest depth: its keys, then all of their rows
        in one batch, without a loop over them.

        One run's keys are its slice; beside the hoisted invariant set
        (:meth:`_plan_leaf_sets`) they are the varying run filtered by the
        set at C level; only an intersection of runs with no hoisted set
        calls the kernel.  Every way keeps the keys sorted, so the rows come
        out in the interpreter's order.  Each key is a match and a row:
        ``m`` of them go to ``c_res`` and the deadline gate, and the rows
        (the bound keys above, repeated, zipped with the keys) to
        ``rows.extend``.  More rows than ``limit`` stop the whole loop nest
        (``_RowLimit``, caught above the outermost loop).  Under a walk-run
        the depth is emitted by :meth:`emit_chained_evaluate` instead.
        """
        participants = self.participants[depth]
        leaf_set = self.leaf_sets.get(depth)
        self.note_level(depth, "leaf-batch" if leaf_set is None else "set-leaf-batch")
        self.emit(indent, f"# depth {depth}: deepest keys, one batch of rows")
        self.emit_level_charges(indent, depth, participants)
        if leaf_set is not None:
            final, varying = leaf_set
            if not varying:
                keys = f"sorted({final})"
            elif len(varying) == 1:
                ((atom, level),) = varying
                run = f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]"
                keys = f"list(filter({final}.__contains__, {run}))"
            else:
                keys = f"list(filter({final}.__contains__, _run_keys({self.runs_expr(varying)})))"
        elif len(participants) == 1:
            ((atom, level),) = participants
            keys = f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]"
        else:
            keys = f"_run_keys({self.runs_expr(participants)})"
        self.emit(indent, f"ks = {keys}")
        self.emit(indent, "m = len(ks)")
        self.emit_deadline_check(indent, "m")
        self.emit(indent, "c_res += m")
        columns = [f"_repeat(k{inner})" for inner in range(depth)] + ["ks"]
        self.emit(indent, f"_ext(zip({', '.join(columns)}))")
        self.emit_row_limit(indent)

    def emit_chained_evaluate(self, depth: int, indent: int, found: str) -> None:
        """An evaluation's deepest depth under a walk-run
        (:meth:`emit_walk_run`): every found run's rows at once.

        The keys are the found runs ``rs`` one after another, the walked
        key ``ws[j]`` repeated ``ls[j]`` times beside them — one batch per
        binding of the depth above the walk, in the interpreter's order.
        The site is visited once per run found (``found``), and its span
        charge is the summed run lengths plus the invariant runs' spans per
        run found.  Beside the invariant set the chained keys are filtered
        at C level by ``compress`` over a second chain of the same runs,
        which keeps every copy of a key that repeats across runs, and the
        batch's ``m`` is what the list grew by.  The deadline gate advances
        by both loops' trips, the walked keys and the rows; the row limit
        is checked after the batch.
        """
        participants = self.participants[depth]
        leaf_set = self.leaf_sets.get(depth)
        self.note_level(depth, "leaf-batch" if leaf_set is None else "set-leaf-batch")
        self.emit(indent, f"# depth {depth}: deepest keys, every found run's rows at once")
        self.charge_level(depth, len(participants))
        columns = [f"_repeat(k{inner})" for inner in range(depth - 1)]
        rows = f"zip({', '.join(columns + ['_chain(map(_repeat, ws, ls))', '_chain(rs)'])})"
        if leaf_set is None:
            self.emit(indent, "m = sum(ls)")
            self.emit_run_spans(indent, [], "m", found)
            self.emit(indent, f"_ext({rows})")
        else:
            set_name, set_varying = leaf_set
            others = [pair for pair in participants if pair not in set_varying]
            self.emit_run_spans(indent, others, "sum(ls)", found)
            self.emit(indent, "before = len(rows)")
            self.emit(indent, f"_ext(_compress({rows}, map({set_name}.__contains__, _chain(rs))))")
            self.emit(indent, "m = len(rows) - before")
        self.emit_deadline_check(indent, "len(ls) + m")
        self.emit(indent, "c_res += m")
        self.emit_row_limit(indent)

    def emit_row_limit(self, indent: int) -> None:
        """Stop the loop nest once the list holds more rows than ``limit``."""
        self.emit(indent, "if c_res > _cap:")
        self.emit(indent + 1, "raise _RowLimit")


def _compile_function(source: str, name: str, label: str) -> Callable:
    namespace = {
        "_run_intersect": run_intersect,
        "_run_count": run_count,
        "_run_keys": run_keys,
        "_pair_count": _pair_intersection_count,
        "_bisect": bisect_left,
        "_monotonic": time.monotonic,
        "_zeros": repeat(0),
        "_empty": repeat(frozenset()),
        "_noruns": repeat(()),
        "_chain": chain.from_iterable,
        "_compress": compress,
        "_TimeoutError": QueryTimeoutError,
        "_repeat": repeat,
        "_RowLimit": _RowLimit,
        "_maxsize": sys.maxsize,
    }
    fault_point("compiler.exec")
    code = compile(source, f"<compiled-driver:{label}>", "exec")
    exec(code, namespace)
    return namespace[name]


def compile_driver(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Sequence[Variable],
    atom_variables: Sequence[Tuple[Variable, ...]],
    pure_tries: Sequence[TrieIndex],
    key: Tuple[object, ...],
    decomposition: Optional[TreeDecomposition] = None,
) -> CompiledDriver:
    """Generate, ``exec``-compile and wrap the driver of one plan.

    ``key`` and ``decomposition`` are :func:`resolve_driver`'s: the
    contracted decomposition (so the baked node ids line up with interpreted
    executors sharing the caches), or ``None`` when the plan probes nothing
    — only then is the evaluate loop generated too; otherwise the count
    loop's variants for an LRU and a rejecting cache (:func:`store_loop`)
    are left to :meth:`CompiledDriver._loop` to compile on first use.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    atom_depths = tuple(
        tuple(depth_of[variable] for variable in ordered)
        for ordered in atom_variables
    )
    bundles = tuple(_atom_bundle(base) for base in pure_tries)
    shapes, owner_at_depth = _clftj_shapes(decomposition, variable_order)
    # loop name -> (mode, store discipline)
    if decomposition is None:
        forms = {"count": ("count", None), "evaluate": ("evaluate", None)}
    else:
        forms = {"count": ("count", None), "count-lru": ("count", "lru"),
                 "count-reject": ("count", "reject")}
    # compiled on first use: a count over an unbounded cache never pays for them
    deferred = ("count-lru", "count-reject")

    def codegen(name: str) -> _Codegen:
        mode, store = forms[name]
        return _Codegen(atom_depths, bundles, mode, shapes, owner_at_depth, store)

    codegens = {name: codegen(name) for name in forms if name not in deferred}
    probed = codegens["count"].probed

    def build(name: str, generator: Optional[_Codegen] = None) -> _Loop:
        generator = generator or codegen(name)
        source = generator.generate()
        function = _compile_function(source, f"_{forms[name][0]}", f"{query.name}:{name}")
        return source, function, generator.levels()

    loops = {name: build(name, generator) for name, generator in codegens.items()}
    return CompiledDriver(
        key=key,
        query_name=query.name,
        variable_names=tuple(variable.name for variable in variable_order),
        relation_versions=database.relation_versions(query.relation_names),
        probed_nodes=tuple(shape.node for shape in probed),
        levels={name: loop[2] for name, loop in loops.items()},
        _columns=bundles,
        _sources={name: loop[0] for name, loop in loops.items()},
        _functions={name: loop[1] for name, loop in loops.items()},
        # every loop hoists a name's table from the same columns alike
        _hoists={},
        _deferred={name: partial(build, name) for name in deferred if name in forms},
    )


# --------------------------------------------------------------------------
# The executor tier.
# --------------------------------------------------------------------------


class _CompiledTier:
    """The compiled tier of a trie-join executor, mixed in over the
    interpreted class it falls back to.

    The two-phase protocol: construction resolves tries exactly like the
    interpreted executor (so index caching and metadata behave
    identically); :meth:`build` then fetches-or-compiles the driver from
    the database's compiled cache.  Without a driver the executor is
    byte-for-byte its interpreted base class, range arguments included.

    The cache key carries no range, so every morsel of a parallel query
    resolves to the *same* driver: the parallel executor's ``build()`` runs
    before the pool forks or re-arms, ``count()``/``evaluate_coded()`` call
    :meth:`build` lazily, and a pool worker's once-per-job executor only
    ever cache-hits, then calls the driver with each morsel's ``[lo, hi)``.
    """

    _driver: Optional[CompiledDriver] = None
    _built = False
    #: Why the last execution ran interpreted: for good when :meth:`build`
    #: found no driver, else per execution.
    _reason: Optional[str] = None

    # -------------------------------------------------------------- compile
    def build(self) -> Optional[CompiledDriver]:
        """Phase one of build/execute: ensure a driver (or a fallback reason).

        Idempotent; the engine calls it before the timed execute phase so
        compilation cost never pollutes measured runtimes (it is reported
        separately).  Returns the driver, or ``None`` with ``self._reason``
        set when this executor runs interpreted.
        """
        if self._built:
            return self._driver
        self._built = True
        key, decomposition, reason = resolve_driver(
            self.query, self.variable_order, self.decomposition
        )
        if reason is None and decomposition is not None:
            reason = cache_fallback(self.policy, self.cache)
        if any(trie.has_deltas for trie in self._atom_tries):
            reason = DELTAS_PENDING
        if reason is not None:
            self._reason = reason
            return None
        try:
            self._driver = self.database.compiled_driver(
                key,
                self.query.relation_names,
                lambda: compile_driver(
                    self.query,
                    self.database,
                    self.variable_order,
                    self._atom_variables,
                    [trie.main for trie in self._atom_tries],
                    key,
                    decomposition,
                ),
            )
        except Exception as error:  # degrade, never fail the query
            self._reason = f"compile failed: {error}"
        return self._driver

    @property
    def compiled(self) -> bool:
        """True when the next count() goes through a compiled driver."""
        return self.build() is not None

    def debug_source(self, mode: str = "count") -> Optional[str]:
        """Generated source for this query's driver (``None`` if interpreted)."""
        driver = self.build()
        return driver.debug_source(mode) if driver is not None else None

    # -------------------------------------------------------------- execute
    def _bind(self, mode: str) -> Tuple[object, ...]:
        """The interpreted _prepare()'s cache discipline — one mode per
        cache, counts on the current counter — and the cache the count loop
        takes at run time (a driver without probes ignores it).  The policy
        is AlwaysCachePolicy wherever the count probes (cache_fallback),
        which keeps no state."""
        self.cache.bind_mode(mode)
        self.cache.counter = self.counter
        return (self.cache,)

    def count(self, lo=None, hi=None, counter=None) -> int:
        driver = self.build()
        if driver is None:
            return super().count(lo, hi, counter)
        if counter is not None:
            self.counter = counter
        self._reason = None
        try:
            return driver.count(self.counter, lo, hi, self.deadline, *self._bind("count"))
        except _CompileFailed as failed:  # degrade, never fail the query
            self._reason = str(failed)
            return super().count(lo, hi, counter)

    def _evaluate_driver(self) -> Optional[CompiledDriver]:
        """The driver whose evaluate loop runs, or ``None`` (interpreted)."""
        driver = self.build()
        if driver is not None and driver.probed_nodes:
            self._reason = (
                "evaluation runs interpreted (factorized-representation grafting)"
            )
            return None
        return driver

    def evaluate_coded(self, lo=None, hi=None, counter=None):
        """The coded rows in ``[lo, hi)``: the driver's one list, or the
        interpreted base class's generator."""
        driver = self._evaluate_driver()
        if driver is None:
            return super().evaluate_coded(lo, hi, counter)
        if counter is not None:
            self.counter = counter
        self._reason = None
        self._bind("evaluate")
        return driver.evaluate(self.counter, lo, hi, self.deadline)

    def evaluate_head(self, limit: int) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """The first ``limit`` coded rows and the exact row count, or
        ``None`` when this execution cannot stop early (it runs interpreted).

        The evaluate loop stops once it holds more than ``limit`` rows; only
        then does the same driver's count loop, which materialises nothing,
        supply the count.  The counter holds both loops' work.
        """
        driver = self._evaluate_driver()
        if driver is None:
            return None
        self._reason = None
        self._bind("evaluate")
        rows = driver.evaluate(self.counter, None, None, self.deadline, limit)
        if len(rows) <= limit:
            return rows, len(rows)
        del rows[limit:]
        # No probed node: the count loop takes no cache.
        return rows, driver.count(self.counter, None, None, self.deadline)

    # ------------------------------------------------------------- metadata
    def execution_metadata(self) -> Dict[str, object]:
        metadata = super().execution_metadata()
        metadata["compiled"] = self._built and self._reason is None
        if self._reason is not None:
            metadata["compiled_reason"] = self._reason
        return metadata


class CompiledTrieJoin(_CompiledTier, LeapfrogTrieJoin):
    """LFTJ executor that runs through a compiled driver when it can."""


class CompiledCachedTrieJoin(_CompiledTier, CachedLeapfrogTrieJoin):
    """CLFTJ executor that runs through a compiled driver when it can."""


def trie_join_executor(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]],
    compile: Optional[bool],
    decomposition: Optional[TreeDecomposition] = None,
    policy: Optional[CachePolicy] = None,
    cache: Optional[AdhesionCache] = None,
    counter: Optional[OperationCounter] = None,
):
    """Build the LFTJ executor, or with a ``decomposition`` the CLFTJ one.

    The one place that turns ``compile`` into a class: ``False`` picks the
    interpreted executors (the Figure 1 / Figure 2 oracles), anything else
    the compiled tier over them.
    """
    if decomposition is None:
        cls = LeapfrogTrieJoin if compile is False else CompiledTrieJoin
        return cls(query, database, variable_order, counter)
    cls = CachedLeapfrogTrieJoin if compile is False else CompiledCachedTrieJoin
    return cls(
        query,
        database,
        decomposition,
        variable_order,
        policy=policy,
        cache=cache,
        counter=counter,
    )
