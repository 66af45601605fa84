"""Cached Leapfrog Trie Join (CLFTJ) — the paper's primary contribution.

``CachedLeapfrogTrieJoin`` implements the algorithm ``CachedTJCount`` of
Figure 2 and its evaluation variant (Section 3.4).  It executes exactly like
vanilla LFTJ, except that the variable order is *strongly compatible* with an
ordered tree decomposition, and:

* when the traversal enters a decomposition node ``v`` whose parent adhesion
  is already assigned, the adhesion cache is consulted; a hit lets the
  algorithm skip the entire contiguous block of variables owned by the
  subtree ``t|v``, multiplying the running factor by the cached count (or
  grafting the cached factorised representation during evaluation);
* when the traversal leaves ``v`` (returning to the previous node), the
  per-subtree intermediate result may be cached, subject to the caching
  policy of :mod:`repro.core.cache`.

This is the one interpreted trie join.  A node is consulted only where the
walk enters it below depth 0, so over a single-bag decomposition nothing is
probed or stored and the walk is Figure 1's:
:class:`repro.core.lftj.LeapfrogTrieJoin` is this class over
:meth:`TreeDecomposition.singleton`.  With a
:class:`~repro.core.cache.NeverCachePolicy` (or a zero-capacity cache) over
any decomposition the algorithm performs exactly the same trie operations
as LFTJ, and records only the misses of the probes it makes — the "coincide
when no caching takes place" property of Section 3.2, covered by tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, AlwaysCachePolicy, CachePolicy
from repro.core.factorized import FactorizedNode
from repro.core.instrumentation import OperationCounter
from repro.core.leapfrog import (
    LeapfrogJoin,
    intersect_child_count,
    intersect_count,
    intersect_keys,
    intersect_positions,
)
from repro.decomposition.ordering import is_strongly_compatible, strongly_compatible_order
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.trie import BoundedTrieIterator, LsmTrieIndex, TrieIterator
from repro.storage.views import atom_column_order, atom_trie


class CachedLeapfrogTrieJoin:
    """CLFTJ: trie join with flexible, optional caching along a tree decomposition.

    Construction validates the plan and obtains, for each atom, a trie over
    the atom's view (distinct variables, constants and repeated variables
    applied) whose level order follows the global variable order — shared
    tries come from the database's index cache, so repeated constructions
    and equivalent atoms pay no rebuild.  ``count`` / ``evaluate_coded``
    take a top-variable range ``[lo, hi)`` and a counter, so a
    morsel-parallel worker runs one executor over many ranges.

    The whole join runs in dictionary-code space: the tries hold int codes,
    assignments (and adhesion-cache keys) hold codes, and values only
    materialise at the result boundary.

    Parameters
    ----------
    query, database:
        The full CQ and the database to evaluate it over.
    decomposition:
        An ordered tree decomposition of the query.  Non-root bags owning no
        variables are contracted automatically.
    variable_order:
        A variable order strongly compatible with ``decomposition``.  When
        omitted, one is derived with
        :func:`repro.decomposition.ordering.strongly_compatible_order`.
    policy:
        The caching policy (default: cache everything).
    cache:
        The adhesion cache (default: a fresh unbounded cache).  Passing a
        bounded cache reproduces the dynamic-cache-size behaviour of
        Figure 10.  A cache must not be shared between ``count`` and
        ``evaluate`` runs, because counts cache integers while evaluation
        caches factorised representations — the cache's mode guard raises a
        ``ValueError`` on such mixing instead of corrupting the execution.
    """

    #: Executor-protocol marker: ``evaluate_coded()`` yields code tuples
    #: the engine decodes lazily (the value-space baselines lack it).
    encoded = True

    #: Cooperative deadline, set post-construction by the engine when a
    #: ``timeout=`` was given (any object with ``check()`` — see
    #: :class:`repro.engine.faults.Deadline`; the core deliberately does not
    #: import it, so the duck-typed attribute keeps core free of engine
    #: dependencies).  The class-level ``None`` keeps the common path to a
    #: single ``is None`` test per recursive call.
    deadline = None

    #: Recursive calls between deadline clock reads.  64 keeps the check
    #: essentially free (one integer increment per call, one clock read per
    #: stride) while an expired deadline is still noticed within
    #: microseconds of real work.
    DEADLINE_STRIDE = 64

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: TreeDecomposition,
        variable_order: Optional[Sequence[Variable]] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        decomposition.validate(query)
        decomposition = decomposition.contract_ownerless_bags()
        if variable_order is None:
            variable_order = strongly_compatible_order(decomposition)
        order = tuple(variable_order)
        self.query = query
        self._validate_order(order)
        if not is_strongly_compatible(decomposition, order):
            raise ValueError(
                "the decomposition is not strongly compatible with the variable order"
            )
        self.database = database
        self.counter = counter if counter is not None else OperationCounter()
        self.variable_order: Tuple[Variable, ...] = order
        self.num_variables = len(order)
        self.decomposition = decomposition
        self.policy = policy if policy is not None else AlwaysCachePolicy()
        self.cache = cache if cache is not None else AdhesionCache()
        # The cache's counter is bound in _prepare(), once per execution.

        depth_of = {variable: depth for depth, variable in enumerate(order)}
        self._depth_of: Dict[Variable, int] = depth_of
        self._atom_tries: List[LsmTrieIndex] = []
        self._atom_variables: List[Tuple[Variable, ...]] = []
        for atom in query.atoms:
            ordered, column_order = atom_column_order(atom, depth_of)
            self._atom_tries.append(atom_trie(database, atom, column_order))
            self._atom_variables.append(ordered)
        self._atoms_at_depth: List[Tuple[int, ...]] = [
            tuple(
                atom_index
                for atom_index, atom_vars in enumerate(self._atom_variables)
                if variable in atom_vars
            )
            for variable in order
        ]

        self._owner_at_depth: List[int] = [
            decomposition.owner(variable) for variable in order
        ]
        nodes = decomposition.preorder()
        self._own_depths: Dict[int, Tuple[int, ...]] = {}
        self._last_own_depth: Dict[int, int] = {}
        self._subtree_last_depth: Dict[int, int] = {}
        self._adhesion_vars: Dict[int, Tuple[Variable, ...]] = {}
        self._adhesion_depths: Dict[int, Tuple[int, ...]] = {}
        for node in nodes:
            owned = decomposition.owned_variables(node)
            own_depths = tuple(sorted(depth_of[variable] for variable in owned))
            self._own_depths[node] = own_depths
            if own_depths:
                self._last_own_depth[node] = own_depths[-1]
            subtree_vars = decomposition.subtree_variables(node)
            self._subtree_last_depth[node] = max(
                depth_of[variable] for variable in subtree_vars
            )
            adhesion = sorted(decomposition.adhesion(node), key=lambda v: depth_of[v])
            self._adhesion_vars[node] = tuple(adhesion)
            self._adhesion_depths[node] = tuple(depth_of[v] for v in adhesion)

        # Per-node "maintain a factorised intermediate?" flag for evaluation:
        # a node's representation is needed when the policy may cache at the
        # node itself or at any of its ancestors (Section 3.4).
        self._maintain_rep: Dict[int, bool] = {}
        for node in nodes:
            parent = decomposition.parent(node)
            inherited = self._maintain_rep.get(parent, False) if parent is not None else False
            wants = parent is not None and self.policy.wants_intermediates(node)
            self._maintain_rep[node] = wants or inherited

        # Mutable per-execution state.
        self._assignment: List[Optional[object]] = []
        self._depth_participants: List[List[TrieIterator]] = []
        self._deadline_ticks = 0
        self._total: int = 0
        self._intrmd: Dict[int, int] = {}
        self._builders: Dict[int, Optional[FactorizedNode]] = {}

    def _validate_order(self, order: Sequence[Variable]) -> None:
        query_vars = self.query.variable_set()
        order_set = set(order)
        if len(order) != len(order_set):
            raise ValueError(f"variable order {order!r} contains duplicates")
        if order_set != query_vars:
            missing = query_vars - order_set
            extra = order_set - query_vars
            raise ValueError(
                f"variable order does not match the query variables "
                f"(missing={sorted(v.name for v in missing)!r}, "
                f"extra={sorted(v.name for v in extra)!r})"
            )

    # -------------------------------------------------------------- execution
    def _prepare(self, lo=None, hi=None, counter=None) -> None:
        """Fresh iterators, a blank assignment and per-execution cache and
        policy state for one execution.

        ``counter``, when given, replaces the executor's counter from this
        execution on (iterators bind whatever counter is current here).  A
        ``[lo, hi)`` range bounds the top variable: every atom containing it
        indexes it at trie level 1 (the global order puts it at minimal
        depth), so bounding those iterators restricts exactly the depth-0
        intersection; atoms without it run unrestricted.  Cached
        intermediates stay range-independent: a probed decomposition node
        is always entered at depth > 0, so no cache entry's subtree block
        contains the bounded variable, and a cache warmed by one morsel is
        valid for every other morsel and for the unrestricted execution.

        A cache reused across executions (the Figure 10 workflow) must report
        hits/misses/evictions on the *current* execution's counter, so the
        counter is rebound here rather than only at construction; likewise,
        stateful admission policies (per-node budgets) restart their budget
        for every execution.
        """
        if counter is not None:
            self.counter = counter
        iterators = [trie.iterator(self.counter) for trie in self._atom_tries]
        if lo is not None or hi is not None:
            for atom_index in self._atoms_at_depth[0]:
                iterators[atom_index] = BoundedTrieIterator(iterators[atom_index], lo, hi)
        self._assignment = [None] * self.num_variables
        # Participant lists are fixed per depth for the execution's lifetime;
        # materialising them once keeps the per-recursion lookup a plain
        # index instead of a fresh list comprehension.
        self._depth_participants = [
            [iterators[atom_index] for atom_index in atoms]
            for atoms in self._atoms_at_depth
        ]
        self.cache.counter = self.counter
        self.policy.reset()
        self.policy.bind_space(self.database)

    def _participants(self, depth: int) -> List[TrieIterator]:
        return self._depth_participants[depth]

    def _check_deadline(self) -> None:
        """Cooperative cancellation: read the clock once per stride.

        Called at recursion entries when :attr:`deadline` is set.  Raises
        :class:`repro.engine.faults.QueryTimeoutError` (via the deadline's
        own ``check``) once the instant has passed.  Deliberately touches
        no :class:`OperationCounter` field — compiled/interpreted counter
        parity must hold with and without a deadline.
        """
        self._deadline_ticks += 1
        if self._deadline_ticks >= self.DEADLINE_STRIDE:
            self._deadline_ticks = 0
            self.deadline.check()

    # ------------------------------------------------------------------ keys
    def _adhesion_key(self, node: int) -> Tuple[object, ...]:
        return tuple(self._assignment[depth] for depth in self._adhesion_depths[node])

    def _own_values(self, node: int) -> Tuple[object, ...]:
        return tuple(self._assignment[depth] for depth in self._own_depths[node])

    # ----------------------------------------------------------------- count
    def count(self, lo=None, hi=None, counter=None) -> int:
        """Return ``|q(D)|`` — the algorithm ``CachedTJCount`` of Figure 2.

        With ``lo``/``hi``, only results whose top variable lies in
        ``[lo, hi)`` (storage key space) are counted; ``counter`` becomes
        the executor's counter for this and later executions.
        """
        self.cache.bind_mode("count")
        self._prepare(lo, hi, counter)
        if self.deadline is not None:
            self.deadline.check()
        self._total = 0
        self._intrmd = {node: 0 for node in self.decomposition.preorder()}
        self._count_recursive(0, 1)
        return self._total

    def _count_recursive(self, depth: int, factor: int) -> None:
        self.counter.record_recursive_call()
        if self.deadline is not None:
            self._check_deadline()
        if depth == self.num_variables:
            self._total += factor
            self.counter.record_result(factor)
            return

        node = self._owner_at_depth[depth]
        entering = depth == 0 or self._owner_at_depth[depth - 1] != node
        consult_cache = entering and depth > 0
        if entering:
            self._intrmd[node] = 0
        adhesion_key: Tuple[object, ...] = ()
        if consult_cache:
            adhesion_key = self._adhesion_key(node)
            cached = self.cache.get(node, adhesion_key)
            if cached is not None:
                self._count_recursive(self._subtree_last_depth[node] + 1, factor * cached)
                self._intrmd[node] = cached
                return

        participants = self._participants(depth)
        is_last_own = depth == self._last_own_depth[node]
        children = self.decomposition.children(node)
        if depth + 1 == self.num_variables:
            # Same batched deepest-level kernel as LFTJ (the two algorithms
            # must perform identical trie operations when no caching takes
            # place — Section 3.2): fused child-run intersection first, the
            # opened-run variant when fusion is unavailable.  Each matched
            # key contributes ``factor`` to the total and — children's
            # intermediates being constants across these keys — the per-key
            # product folds into one multiplication.
            matches = intersect_child_count(participants, self.counter)
            fused = matches is not None
            if not fused:
                for iterator in participants:
                    iterator.open()
                matches = intersect_count(participants, self.counter)
            if matches is not None:
                counter = self.counter
                counter.recursive_calls += matches
                counter.results_emitted += factor * matches
                self._total += factor * matches
                if is_last_own:
                    self._intrmd[node] += matches * self._children_product(children)
                if not fused:
                    for iterator in participants:
                        iterator.up()
                if consult_cache:
                    self._maybe_cache_count(node, adhesion_key)
                return
            # No batched kernel applies (an impure merged level): the
            # generic loop below runs over the already-opened iterators.
        else:
            for iterator in participants:
                iterator.open()
            # Interior variable: same batched position walk as LFTJ
            # (identical trie operations when no caching takes place —
            # Section 3.2).
            batch = intersect_positions(participants, self.counter)
            if batch is not None:
                keys, positions = batch
                walkers = list(zip(participants, positions))
                for index, key in enumerate(keys):
                    for iterator, run_positions in walkers:
                        iterator.advance_to(run_positions[index])
                    self._assignment[depth] = key
                    self._count_recursive(depth + 1, factor)
                    if is_last_own:
                        self._intrmd[node] += self._children_product(children)
                self._assignment[depth] = None
                for iterator in participants:
                    iterator.up()
                if consult_cache:
                    self._maybe_cache_count(node, adhesion_key)
                return
        join = LeapfrogJoin(participants)
        while not join.at_end:
            self._assignment[depth] = join.key()
            self._count_recursive(depth + 1, factor)
            if is_last_own:
                self._intrmd[node] += self._children_product(children)
            join.next()
        self._assignment[depth] = None
        for iterator in participants:
            iterator.up()

        if consult_cache:
            self._maybe_cache_count(node, adhesion_key)

    def _children_product(self, children) -> int:
        """Product of the children's current intermediate counts."""
        product = 1
        for child in children:
            product *= self._intrmd[child]
            if product == 0:
                break
        return product

    def _record_builder_entry(self, node: int, children) -> None:
        """Append the current own-values entry to the node's factorised rep."""
        child_reps = tuple(self._builders[child] for child in children)
        if all(rep is not None for rep in child_reps):
            if all(rep.entries for rep in child_reps):
                self._builders[node].add_entry(self._own_values(node), child_reps)

    def _maybe_cache_count(self, node: int, adhesion_key: Tuple[object, ...]) -> None:
        """Offer the node's finished intermediate count to the cache policy."""
        intermediate = self._intrmd[node]
        if self.policy.should_cache(
            node, self._adhesion_vars[node], adhesion_key, intermediate
        ):
            if self.cache.put(node, adhesion_key, intermediate):
                self.counter.record_materialized(1)

    # ------------------------------------------------------------- evaluation
    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        """Yield every result tuple (values in variable-order positions).

        Cached intermediates are factorised representations; on a cache hit
        the subtree's assignments are grafted into the output without
        re-traversing the tries.  The traversal (and the factorised cache)
        lives in code space; rows are decoded here for direct callers, while
        the engine consumes :meth:`evaluate_coded` and defers decoding to
        the result boundary.
        """
        return self.database.dictionary.decode_stream(self.evaluate_coded())

    def evaluate_coded(
        self, lo=None, hi=None, counter=None
    ) -> Iterator[Tuple[object, ...]]:
        """Yield result tuples in storage space (dictionary codes).

        ``lo``/``hi``/``counter`` as for :meth:`count`.
        """
        self.cache.bind_mode("evaluate")
        self._prepare(lo, hi, counter)
        if self.deadline is not None:
            self.deadline.check()
        self._builders = {node: None for node in self.decomposition.preorder()}
        yield from self._evaluate_recursive(0)

    def evaluate_all(self) -> List[Dict[Variable, object]]:
        """Materialise all results as variable->value dictionaries."""
        return [dict(zip(self.variable_order, row)) for row in self.evaluate()]

    def _evaluate_recursive(self, depth: int) -> Iterator[Tuple[object, ...]]:
        self.counter.record_recursive_call()
        if self.deadline is not None:
            self._check_deadline()
        if depth == self.num_variables:
            self.counter.record_result(1)
            yield tuple(self._assignment)
            return

        node = self._owner_at_depth[depth]
        entering = depth == 0 or self._owner_at_depth[depth - 1] != node
        consult_cache = entering and depth > 0
        maintain = self._maintain_rep[node]
        if entering:
            if maintain:
                own_vars = tuple(
                    self.variable_order[own_depth] for own_depth in self._own_depths[node]
                )
                self._builders[node] = FactorizedNode(own_vars)
            else:
                self._builders[node] = None
        adhesion_key: Tuple[object, ...] = ()
        if consult_cache:
            adhesion_key = self._adhesion_key(node)
            cached = self.cache.get(node, adhesion_key)
            if cached is not None:
                # Graft the cached subtree at its natural depths: driving the
                # factorised block as the *outer* loop reproduces the exact
                # nesting — and therefore the exact row order — of a cache
                # miss, so the output stream is independent of cache state.
                # Serial and morsel-parallel executions interleave hits and
                # misses differently yet emit identical streams.
                depths = [self._depth_of[variable] for variable in cached.variables()]
                continuation = self._subtree_last_depth[node] + 1
                for values in cached.enumerate():
                    for position, value in zip(depths, values):
                        self._assignment[position] = value
                    yield from self._evaluate_recursive(continuation)
                for position in depths:
                    self._assignment[position] = None
                self._builders[node] = cached
                return

        participants = self._participants(depth)
        for iterator in participants:
            iterator.open()
        is_last_own = depth == self._last_own_depth[node]
        children = self.decomposition.children(node)
        batch = None
        if depth + 1 == self.num_variables:
            keys = intersect_keys(participants, self.counter)
            if keys is not None:
                batch = (keys, None)
        else:
            batch = intersect_positions(participants, self.counter)
        if batch is not None:
            keys, positions = batch
            walkers = (
                list(zip(participants, positions)) if positions is not None else ()
            )
            for index, key in enumerate(keys):
                for iterator, run_positions in walkers:
                    iterator.advance_to(run_positions[index])
                self._assignment[depth] = key
                yield from self._evaluate_recursive(depth + 1)
                if is_last_own and maintain:
                    self._record_builder_entry(node, children)
            self._assignment[depth] = None
            for iterator in participants:
                iterator.up()
        else:
            join = LeapfrogJoin(participants)
            while not join.at_end:
                self._assignment[depth] = join.key()
                yield from self._evaluate_recursive(depth + 1)
                if is_last_own and maintain:
                    self._record_builder_entry(node, children)
                join.next()
            self._assignment[depth] = None
            for iterator in participants:
                iterator.up()

        if consult_cache and maintain:
            builder = self._builders[node]
            if self.policy.should_cache(
                node, self._adhesion_vars[node], adhesion_key, builder
            ):
                if self.cache.put(node, adhesion_key, builder):
                    self.counter.record_materialized(builder.memory_entries())

    # --------------------------------------------------------------- reports
    def execution_metadata(self) -> Dict[str, object]:
        """Executor-protocol hook: per-algorithm facts worth reporting.

        The engine merges this into ``ExecutionResult.metadata`` after every
        run: the dictionary's size, the atom tries carrying an unmerged LSM
        delta level (reads go through the merging iterator until the next
        compaction) and the adhesion cache's state.
        """
        metadata: Dict[str, object] = {"dictionary_size": len(self.database.dictionary)}
        delta_tries = sum(1 for trie in self._atom_tries if trie.has_deltas)
        if delta_tries:
            metadata["delta_tries"] = delta_tries
        metadata["cache_entries"] = len(self.cache)
        metadata["cache_memory_bytes"] = self.cache.memory_estimate()
        return metadata

    def cache_report(self) -> Dict[str, object]:
        """A small report of cache behaviour after an execution."""
        return {
            "entries": len(self.cache),
            "entries_per_node": self.cache.entries_per_node(),
            "hits": self.counter.cache_hits,
            "misses": self.counter.cache_misses,
            "hit_rate": self.counter.cache_hit_rate,
            "insertions": self.counter.cache_insertions,
            "evictions": self.counter.cache_evictions,
            "rejections": self.counter.cache_rejections,
        }


def clftj_count(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition,
    variable_order: Optional[Sequence[Variable]] = None,
    policy: Optional[CachePolicy] = None,
    cache: Optional[AdhesionCache] = None,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`CachedLeapfrogTrieJoin.count`."""
    return CachedLeapfrogTrieJoin(
        query, database, decomposition, variable_order, policy, cache, counter
    ).count()
