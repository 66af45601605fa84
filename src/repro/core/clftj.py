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

With a :class:`~repro.core.cache.NeverCachePolicy` (or a zero-capacity cache)
the algorithm performs exactly the same trie operations as LFTJ — the
"coincide when no caching takes place" property of Section 3.2, covered by
tests.
"""

from __future__ import annotations

from itertools import islice
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
from repro.core.lftj import TrieJoinBase
from repro.decomposition.ordering import is_strongly_compatible, strongly_compatible_order
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database


class CachedLeapfrogTrieJoin(TrieJoinBase):
    """CLFTJ: trie join with flexible, optional caching along a tree decomposition.

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
        if not is_strongly_compatible(decomposition, variable_order):
            raise ValueError(
                "the decomposition is not strongly compatible with the variable order"
            )
        super().__init__(query, database, variable_order, counter)
        self.decomposition = decomposition
        self.policy = policy if policy is not None else AlwaysCachePolicy()
        self.cache = cache if cache is not None else AdhesionCache()
        # The cache's counter is bound in _prepare(), once per execution.

        order = self.variable_order
        depth_of = {variable: depth for depth, variable in enumerate(order)}
        self._depth_of: Dict[Variable, int] = depth_of

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
        self._total: int = 0
        self._intrmd: Dict[int, int] = {}
        self._builders: Dict[int, Optional[FactorizedNode]] = {}

    def _prepare(self, lo=None, hi=None, counter=None) -> None:
        """Fresh iterators plus per-execution cache/policy state.

        A cache reused across executions (the Figure 10 workflow) must report
        hits/misses/evictions on the *current* execution's counter, so the
        counter is rebound here rather than only at construction; likewise,
        stateful admission policies (per-node budgets) restart their budget
        for every execution.
        """
        super()._prepare(lo, hi, counter)
        self.cache.counter = self.counter
        self.policy.reset()
        self.policy.bind_space(self.database)

    # ------------------------------------------------------------------ keys
    def _adhesion_key(self, node: int) -> Tuple[object, ...]:
        return tuple(self._assignment[depth] for depth in self._adhesion_depths[node])

    def _own_values(self, node: int) -> Tuple[object, ...]:
        return tuple(self._assignment[depth] for depth in self._own_depths[node])

    # ----------------------------------------------------------------- count
    def count(self, lo=None, hi=None, counter=None) -> int:
        """Return ``|q(D)|`` — the algorithm ``CachedTJCount`` of Figure 2.

        ``lo``/``hi``/``counter`` as for :meth:`LeapfrogTrieJoin.count`.
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
        """Yield result tuples in storage space (dictionary codes)."""
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
        """Executor-protocol hook: adhesion-cache state on top of the base facts."""
        metadata = super().execution_metadata()
        metadata["cache_entries"] = len(self.cache)
        metadata["cache_memory_bytes"] = self.cache.memory_estimate()
        return metadata

    def invalidate_cache_for(self, changed_relations) -> int:
        """Selectively drop cache entries reading any of ``changed_relations``.

        Convenience for callers holding a long-lived executor across data
        updates (prepared queries do this automatically through their
        version tracking); returns how many entries were dropped.
        """
        from repro.core.cache import affected_cache_nodes

        affected = affected_cache_nodes(
            self.decomposition, self.query, set(changed_relations)
        )
        return self.cache.invalidate_nodes(affected)

    def decoded_cache_keys(self, limit: Optional[int] = None) -> List[Tuple[int, Tuple[object, ...]]]:
        """Cache keys for inspection, decoded to value space.

        Adhesion keys are stored in the traversal's key space — dictionary
        codes — for small keys and fast hashing; this is the *only* decode
        boundary, intended for debugging and tests, never for the hot path.
        """
        decode_row = self.database.dictionary.decode_row
        return [
            (node, decode_row(codes))
            for node, codes in islice(self.cache.keys(), limit)
        ]

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
