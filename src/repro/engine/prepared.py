"""Prepared queries: plan once, execute many times.

``QueryEngine.prepare(query, ...)`` validates the parameters, resolves
``algorithm="auto"`` through the cost-based selector exactly once, seeds the
database's plan cache, and returns a :class:`PreparedQuery` handle.  Every
``count()``/``evaluate()`` on the handle re-executes the query while reusing
all three caching layers:

* the **plan cache** — re-executions look the memoised decomposition/order
  up by query signature (a dictionary hit, reported in the result metadata);
* the **shared index cache** — executor construction finds every trie
  already built, so re-executions report zero index builds;
* for CLFTJ, a **persistent adhesion cache** per mode — the warm-cache
  workflow of the paper's Figure 10, without threading a cache by hand.

Count and evaluation runs keep separate adhesion caches because counts cache
integers while evaluation caches factorised representations (the cache's
mode guard would reject the mixing).

The handle tracks a **per-relation version** for every relation of its query
(:meth:`~repro.storage.database.Database.relation_version`).  When a tracked
relation changes — a delta update or a replacement — the warm adhesion
caches are invalidated *selectively*: only the decomposition nodes whose
subtrees read a changed relation are dropped
(:func:`repro.core.cache.affected_cache_nodes`); entries cached for
untouched subtrees keep serving hits.  Updates to relations outside the
query never touch the handle at all.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.cache import AdhesionCache, affected_cache_nodes
from repro.engine.compiler import COMPILED_ALGORITHMS
from repro.engine.results import ExecutionResult
from repro.engine.selector import AlgorithmChoice


class PreparedQuery:
    """A reusable handle binding a query to its plan and caches.

    Built by :meth:`repro.engine.engine.QueryEngine.prepare`; not meant to be
    constructed directly.

    **Locking model**: one handle may be executed from several threads.
    Version bookkeeping (noticing relation changes, creating the per-mode
    caches) always runs under the handle's lock.  For **clftj** the whole
    execution stays under the lock — the warm adhesion caches are plain
    dictionaries mutated during the join, so concurrent cached executions
    serialise rather than corrupt each other.  Every other algorithm
    (lftj, ytd, pairwise) executes outside the lock and
    scales across threads; the underlying shared caches are protected by
    the database's own lock.  ``clftj`` with ``parallel=`` also executes
    outside the lock: its warm adhesion caches live on the pool workers
    themselves (one per worker, persistent across morsels and executions)
    and are version-checked worker-side, so the handle neither injects nor
    invalidates them.
    """

    def __init__(
        self,
        engine,
        query,
        algorithm: str,
        requested_algorithm: str,
        parameters: Dict[str, object],
        selection: Optional[AlgorithmChoice] = None,
    ) -> None:
        self.engine = engine
        self.query = query
        #: The concrete algorithm that will run (auto already resolved).
        self.algorithm = algorithm
        #: What the caller asked for (may be ``"auto"``).
        self.requested_algorithm = requested_algorithm
        self.selection = selection
        self._parameters = dict(parameters)
        self.executions = 0
        self._mode_caches: Dict[str, AdhesionCache] = {}
        #: The contracted decomposition the executor caches under; bound when
        #: the first persistent cache is created (node ids must line up with
        #: the cache keys for selective invalidation).
        self._cache_decomposition = None
        self._relation_versions: Dict[str, int] = engine.database.relation_versions(
            query.relation_names
        )
        #: Total warm-cache entries dropped by selective invalidation.
        self.cache_invalidations = 0
        #: Guards version refreshes and (for clftj) whole executions — see
        #: the class docstring's locking model.
        self._lock = threading.RLock()

    # -------------------------------------------------------------- execution
    def count(self) -> ExecutionResult:
        """Execute as a count query, reusing the plan and all caches."""
        return self._run("count")

    def evaluate(self, limit: Optional[int] = None) -> ExecutionResult:
        """Execute as a full evaluation, reusing the plan and all caches;
        ``limit`` as for :meth:`QueryEngine.evaluate`."""
        return self._run("evaluate", limit)

    def _run(self, mode: str, limit: Optional[int] = None) -> ExecutionResult:
        if self.algorithm == "clftj" and not self._parameters.get("parallel"):
            # The warm adhesion caches are mutated during execution, so
            # cached runs serialise (see the locking model).  clftj with
            # parallel= does not take this path: the pool workers keep
            # their own persistent adhesion caches, version-checked
            # worker-side on every morsel.
            with self._lock:
                return self._run_unlocked(mode, limit)
        with self._lock:
            dropped = self._refresh_versions()
        return self._execute(mode, dict(self._parameters), dropped, limit)

    def _run_unlocked(self, mode: str, limit: Optional[int]) -> ExecutionResult:
        dropped = self._refresh_versions()
        parameters = dict(self._parameters)
        if self.algorithm == "clftj" and parameters.get("cache") is None:
            parameters["cache"] = self._persistent_cache(mode)
        return self._execute(mode, parameters, dropped, limit)

    def _execute(
        self,
        mode: str,
        parameters: Dict[str, object],
        dropped: int,
        limit: Optional[int] = None,
    ) -> ExecutionResult:
        result = self.engine._execute(
            self.query,
            self.algorithm,
            mode,
            selection=self.selection,
            limit=limit,
            **parameters,
        )
        with self._lock:
            self.executions += 1
            executions = self.executions
        result.metadata["prepared"] = True
        result.metadata["prepared_executions"] = executions
        if dropped:
            result.metadata["prepared_cache_invalidations"] = dropped
        if self.requested_algorithm != self.algorithm:
            result.metadata["requested_algorithm"] = self.requested_algorithm
        return result

    def _refresh_versions(self) -> int:
        """Notice relation changes since the last run; invalidate selectively.

        Returns how many warm-cache entries were dropped.  The plan and
        index caches invalidate (or patch) themselves inside the database;
        only the handle's warm adhesion caches need help here, because their
        entries are keyed by decomposition node, not by relation.
        """
        database = self.engine.database
        changed = [
            name
            for name, version in self._relation_versions.items()
            if database.relation_version(name) != version
        ]
        if not changed:
            return 0
        dropped = self._invalidate_stale_bags(changed)
        for name in changed:
            self._relation_versions[name] = database.relation_version(name)
        return dropped

    def _tracked_caches(self) -> List[AdhesionCache]:
        """Every adhesion cache executions of this handle may read.

        Includes a caller-supplied ``cache=`` parameter — it serves hits
        exactly like the handle's own per-mode caches, so it must be
        invalidated on data changes just the same.
        """
        caches = list(self._mode_caches.values())
        explicit = self._parameters.get("cache")
        if explicit is not None:
            caches.append(explicit)
        return caches

    def _invalidate_stale_bags(self, changed: List[str]) -> int:
        caches = [cache for cache in self._tracked_caches() if len(cache)]
        if not caches:
            return 0
        decomposition = self._cache_decomposition
        if decomposition is None and self.algorithm == "clftj":
            # An explicit cache= bypasses _persistent_cache, so the cached
            # decomposition may not be bound yet; planning is memoised.
            plan = self._plan()
            decomposition = plan.decomposition.contract_ownerless_bags()
            self._cache_decomposition = decomposition
        if decomposition is None:
            dropped = sum(cache.invalidate() for cache in caches)
        else:
            affected = affected_cache_nodes(decomposition, self.query, set(changed))
            dropped = sum(cache.invalidate_nodes(affected) for cache in caches)
        self.cache_invalidations += dropped
        return dropped

    def _plan(self):
        """This handle's execution plan (memoised in the plan cache)."""
        return self.engine.plan(
            self.query,
            decomposition=self._parameters.get("decomposition"),
            variable_order=self._parameters.get("variable_order"),
            cache_capacity=self._parameters.get("cache_capacity"),
            policy=self._parameters.get("policy"),
        )

    def _persistent_cache(self, mode: str) -> AdhesionCache:
        """The handle's warm adhesion cache for ``mode`` (created lazily)."""
        cache = self._mode_caches.get(mode)
        if cache is None:
            plan = self._plan()
            cache = plan.make_cache()
            self._mode_caches[mode] = cache
            if self._cache_decomposition is None:
                self._cache_decomposition = (
                    plan.decomposition.contract_ownerless_bags()
                )
        return cache

    # ---------------------------------------------------------- compiled view
    def compiled_driver(self):
        """The specialized driver this handle currently resolves to, or
        ``None``.

        The handle does not pin a driver object: it always reads through the
        database's compiled-driver cache, so a version bump on any tracked
        relation (delta update, replacement, or compaction) that dropped the
        driver is visible here immediately as ``None`` — and the next
        ``count()``/``evaluate()`` recompiles during its build phase.  The
        returned :class:`~repro.engine.compiler.CompiledDriver` exposes
        ``debug_source(mode)`` for inspection.
        """
        if self.algorithm not in COMPILED_ALGORITHMS:
            return None
        if self._parameters.get("compile") is False:
            return None
        plan = None
        if self.algorithm == "clftj" or self.selection is not None:
            plan = self._plan()
        _order, key, _probing, _reason = self.engine._driver(
            self.query, self.algorithm, self._parameters.get("variable_order"), plan
        )
        return self.engine.database.peek_compiled_driver(key)

    # -------------------------------------------------------------- reporting
    def explain(self) -> str:
        """The engine's explain output for this handle's query and algorithm."""
        return self.engine.explain(
            self.query, algorithm=self.requested_algorithm, **self._parameters
        )

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.query.name!r}, algorithm={self.algorithm!r}, "
            f"executions={self.executions})"
        )
