"""Morsel-driven partition-parallel join execution.

Worst-case-optimal joins partition cleanly on the first join variable: each
value of the top variable seeds an independent sub-join, so splitting the top
variable's key domain into disjoint ranges splits the whole query into
independent units whose results simply concatenate.  The shared, immutable
index layer built in earlier PRs makes the units nearly free to set up —
every worker reads the same cached columnar tries and value dictionary
through range-restricted cursor views
(:class:`~repro.storage.trie.BoundedTrieIterator`), with no data copies.

A fixed one-range-per-worker tiling leaves partition skew on the table (one
hot range serialises the tail), so this module runs the classic fix,
morsel-driven parallelism:

* :class:`PartitionPlanner` — splits the top variable's code-space domain
  into balanced ranges, weighting keys with value frequencies from the
  :class:`~repro.storage.statistics.StatisticsCatalog` and falling back to
  equal-width code ranges when no statistics apply.  The executor asks for
  many more ranges than workers (see ``MORSEL_OVERPARTITION``), subject to
  a per-range key floor (``MIN_MORSEL_KEYS``) and the selector's work floor
  (a query too small to repay more gets one range per worker), so
  mis-estimated weights average out across the pool instead of deciding
  the critical path;
* range-restricted execution — every inner executor takes the top
  variable's ``[lo, hi)`` as an argument of ``count`` / ``evaluate_coded``,
  so a pool worker builds one executor per job and re-ranges it per morsel;
* :class:`ParallelExecutor` — submits the ranges as one
  :class:`~repro.engine.pool.MorselJob`, one task per range, to the
  database's **persistent** :class:`~repro.engine.pool.WorkerPool` of
  forked processes (the scheduling policy — the shared queue, retries,
  cancellation — lives in :mod:`repro.engine.pool` alone) and merges
  results deterministically: tasks are tagged with their planner index and
  reassembled in that order, so parallel LFTJ reproduces the serial row
  stream byte-for-byte under any schedule; counters are summed; scheduling
  stats (steals, per-worker busy seconds, utilization, skew) are surfaced
  in metadata.

The workers are forked: they inherit the whole read-only database (warm
index and compiled-driver caches included) by copy-on-write, which is what
scales CPU-bound pure-Python joins across cores.  Where the platform has no
``fork`` start method there is no pool, and ``parallel=`` runs serial with
a reason.

Running on the pool is a *schedule* of ``lftj`` / ``clftj``, asked for
with ``parallel=N | True`` (``N`` workers) and decided in one place:
:func:`resolve_schedule` picks workers and ranges, or says why the
execution stays serial.  The executor factories,
``engine.explain()`` and the result metadata all read its
:class:`Schedule`.
"""

from __future__ import annotations

import multiprocessing
import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.instrumentation import OperationCounter
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.compiler import resolve_driver, trie_join_executor
from repro.engine.faults import Deadline
from repro.engine.pool import (
    JobReport,
    MorselJob,
    MorselTask,
    TaskOutcome,
    available_workers,
    worker_job_state,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.views import atom_has_constants

#: How a schedule's ``reason`` starts when the memory budget's serial rung
#: declined it (the engine records that one in ``metadata["degradations"]``).
OVER_BUDGET: str = "memory budget"

#: The executor plans this many ranges per worker (before the cost model and
#: the key floor cap it): enough over-partitioning that one hot range is a
#: small fraction of the total work, small enough that per-morsel setup
#: (one executor construction over warm caches) stays negligible.
MORSEL_OVERPARTITION: int = 16

#: Floor on keys per planned morsel: domains too small to feed the
#: over-partitioning simply get fewer morsels.
MIN_MORSEL_KEYS: int = 4


# --------------------------------------------------------------------------
# Partition planning.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionPlan:
    """The range layout for one parallel execution.

    ``bounds`` holds ``k - 1`` non-decreasing cut keys in the top variable's
    key space (dictionary codes):
    range ``i`` covers ``[bounds[i-1], bounds[i])`` with open ends at both
    extremes, so the ranges tile the whole ordered key space regardless of
    how the cuts were estimated — balance affects speed, never correctness.
    Repeated cut keys produce deliberately *empty* ranges (small domains
    split more ways than they have keys).
    """

    variable: str
    bounds: Tuple[object, ...]
    source: str
    weights: Tuple[float, ...]

    @property
    def num_shards(self) -> int:
        """Number of ranges the plan describes."""
        return len(self.bounds) + 1

    def ranges(self) -> List[Tuple[object, object]]:
        """The ``[lo, hi)`` range per morsel (``None`` = unbounded end)."""
        cuts: List[object] = [None, *self.bounds, None]
        return [(cuts[index], cuts[index + 1]) for index in range(len(cuts) - 1)]

    def describe(self) -> str:
        """One-line human-readable account (used by ``engine.explain``)."""
        return (
            f"{self.num_shards} range(s) on variable {self.variable!r} "
            f"(partition source: {self.source}), bounds: {list(self.bounds)!r}"
        )


class PartitionPlanner:
    """Split the top join variable's key domain into balanced ranges.

    The planner weighs each key of the top variable with its value frequency
    from the database's statistics catalog and cuts the sorted key
    sequence so every range carries roughly equal weight — frequency mass is
    the best cheap proxy for leapfrog work below a top-level key.  When no
    statistics apply (every covering atom carries constants), it falls back
    to equal-width ranges over the dictionary's code space; with nothing to
    go on at all it degrades to a single unbounded range.

    ``min_keys_per_range`` caps how finely a domain splits: the executor
    over-partitions aggressively, and the floor keeps tiny domains from
    shattering into per-key (or empty) morsels whose scheduling overhead
    exceeds their work.

    Bounds are computed in the same key space the shards will iterate in:
    dictionary codes when the database encodes (code order is the trie
    order), raw values otherwise.
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def plan(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence[Variable],
        num_shards: int,
        min_keys_per_range: int = 1,
    ) -> PartitionPlan:
        """Produce a :class:`PartitionPlan` with up to ``num_shards`` ranges."""
        if not variable_order:
            raise ValueError("cannot partition a query without variables")
        top = variable_order[0]
        if num_shards <= 1:
            return PartitionPlan(top.name, (), "single", (1.0,))
        weighted = self._weighted_keys(query, top)
        if weighted:
            # Affine weights: every key pays a fixed toll (atoms that do
            # not contain the top variable re-open their full level under
            # each key, a block-intersection cost independent of the key's
            # own frequency) plus marginal work proportional to its tuple
            # frequency.  Measured per-shard operation counts on the bench
            # workloads sit between the two pure models, so their mean is
            # used as the fixed toll; residual imbalance is absorbed by
            # over-partitioning plus work stealing (see ParallelExecutor).
            shards = self._clamp(num_shards, len(weighted), min_keys_per_range)
            if shards <= 1:
                return PartitionPlan(top.name, (), "single", (1.0,))
            mean = sum(weight for _key, weight in weighted) / len(weighted)
            weighted = [(key, mean + weight) for key, weight in weighted]
            return self._balanced(top, weighted, shards, "statistics")
        dictionary = self.database.dictionary
        if len(dictionary):
            shards = self._clamp(num_shards, len(dictionary), min_keys_per_range)
            if shards <= 1:
                return PartitionPlan(top.name, (), "single", (1.0,))
            uniform = [(code, 1.0) for code in range(len(dictionary))]
            return self._balanced(top, uniform, shards, "equal-width")
        return PartitionPlan(top.name, (), "single", (1.0,))

    # ------------------------------------------------------------- internals
    @staticmethod
    def _clamp(requested: int, num_keys: int, min_keys_per_range: int) -> int:
        """Cap the range count so every range spans enough keys."""
        if min_keys_per_range <= 1:
            return requested
        return max(1, min(requested, num_keys // min_keys_per_range))

    def _weighted_keys(
        self, query: ConjunctiveQuery, top: Variable
    ) -> Optional[List[Tuple[object, float]]]:
        """Sorted ``(key, frequency)`` pairs for the top variable, or ``None``.

        Uses the covering atom whose attribute has the fewest distinct
        values (the tightest domain superset).  Constant-free atoms are
        preferred — their base-relation statistics describe the view
        exactly — but constant-bearing atoms still contribute as a second
        tier: the unselected relation's attribute frequencies merely
        *overapproximate* the view's domain, which is fine because bounds
        only need to tile the key space (the intersection discards
        non-matching keys anyway); only the balance estimate blurs.
        """
        exact: Optional[Dict[object, int]] = None
        approximate: Optional[Dict[object, int]] = None
        for atom in query.atoms:
            position = next(
                (
                    index
                    for index, term in enumerate(atom.terms)
                    if isinstance(term, Variable) and term == top
                ),
                None,
            )
            if position is None:
                continue
            try:
                relation = self.database.relation(atom.relation)
            except KeyError:
                continue
            attribute = relation.attributes[position]
            counts = self.database.statistics.value_frequencies(atom.relation, attribute)
            if not counts:
                continue
            if atom_has_constants(atom):
                if approximate is None or len(counts) < len(approximate):
                    approximate = counts
            elif exact is None or len(counts) < len(exact):
                exact = counts
        best = exact if exact is not None else approximate
        if not best:
            return None
        # Translate to code space without appending: planning (and explain)
        # must never mutate the shared dictionary.  Values the index builds
        # have not encoded yet merely coarsen the split — bounds still tile
        # the key space.
        code_of = self.database.dictionary.code_of
        items = [
            (code, float(count))
            for value, count in best.items()
            if (code := code_of(value)) is not None
        ]
        if not items:
            return None
        items.sort(key=lambda pair: pair[0])
        return items

    @staticmethod
    def _balanced(
        top: Variable,
        items: List[Tuple[object, float]],
        num_shards: int,
        source: str,
    ) -> PartitionPlan:
        """Greedy weighted split of sorted keys into ``num_shards`` ranges."""
        total = sum(weight for _key, weight in items)
        if total <= 0:
            total = float(len(items))
            items = [(key, 1.0) for key, _weight in items]
        target = total / num_shards
        bounds: List[object] = []
        weights = [0.0] * num_shards
        shard = 0
        accumulated = 0.0
        for key, weight in items:
            while shard < num_shards - 1 and accumulated >= target * (shard + 1) - 1e-9:
                shard += 1
                bounds.append(key)
            accumulated += weight
            weights[shard] += weight
        # Small domains can run out of keys before cuts: pad with the last
        # cut (or the last key), creating deliberately empty tail ranges.
        while len(bounds) < num_shards - 1:
            bounds.append(bounds[-1] if bounds else items[-1][0])
        return PartitionPlan(top.name, tuple(bounds), source, tuple(weights))


def cached_partition_plan(
    database: Database,
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    num_shards: int,
    min_keys_per_range: int = 1,
) -> PartitionPlan:
    """The partition plan for one (query, order, range count), memoised in
    the database's plan cache.

    Bounds only need to *tile* the key space, so a plan computed from
    slightly stale statistics stays correct across delta updates — the
    cache therefore shares the relation-replacement invalidation of
    ordinary execution plans and skips per-run re-planning entirely.
    """
    from repro.storage.views import query_signature

    key = (
        "partition",
        query_signature(query),
        tuple(variable.name for variable in variable_order),
        num_shards,
        min_keys_per_range,
    )
    return database.cached_plan(
        key,
        query.relation_names,
        lambda: PartitionPlanner(database).plan(
            query, variable_order, num_shards, min_keys_per_range
        ),
        # A degenerate single-range plan computed before any index existed
        # (cold explain: nothing encoded, no frequencies) must not poison
        # the cache — once indexes exist, re-planning yields real bounds.
        cache_if=lambda plan: num_shards <= 1 or plan.source != "single",
    )


# --------------------------------------------------------------------------
# The schedule: whether, where and how finely an execution goes parallel.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """What :func:`resolve_schedule` decided for one ``parallel=`` request.

    Either a pool run — ``workers`` over ``plan``'s ranges, ``morsels``
    being the count the planner was asked for — or, with
    ``reason`` set, a declined one: the execution stays serial and
    ``reason`` says why (``metadata["parallel_reason"]``, the counterpart
    of ``compiled_reason``).
    """

    workers: int = 1
    morsels: int = 1
    plan: Optional[PartitionPlan] = None
    reason: Optional[str] = None

    @property
    def parallel(self) -> bool:
        """Does the execution run on the pool?"""
        return self.reason is None

    def describe(self) -> str:
        """The ``parallel:`` line of ``engine.explain()``."""
        if self.reason is not None:
            return f"parallel: declined, runs serial ({self.reason})"
        if self.morsels == self.workers * MORSEL_OVERPARTITION:
            sizing = f"{MORSEL_OVERPARTITION} per worker"
        else:
            sizing = "work floor: a smaller morsel would not repay its dispatch"
        return (
            f"parallel: workers={self.workers}, "
            f"{self.plan.describe()}; planned morsels: {self.morsels} ({sizing})"
        )


def resolve_schedule(
    database: Database,
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    parallel: Optional[object],
    selector=None,
    clftj_plan=None,
) -> Optional[Schedule]:
    """Decide one execution's schedule; ``None`` when ``parallel=`` did not ask.

    The one place that turns ``True`` / an int into workers, declines
    where the platform cannot fork, takes the memory budget's serial rung,
    sizes the morsels and reads the memoised partition plan.  It builds no
    index, so ``engine.explain()`` calls it too and prints what the next
    execution will do; an execution resolves after its indexes exist, when
    the top variable's domain is encoded.  ``clftj_plan`` is the execution
    plan when the morsels run cached.
    """
    if parallel is None or parallel is False:
        return None
    if parallel is True:
        workers = available_workers()
        if workers == 1:
            return Schedule(reason="one usable core")
        if selector is not None:
            workers = selector.recommend_workers(query, variable_order, workers)
        if workers == 1:
            return Schedule(reason="estimated work is under the pool's break-even")
    else:
        workers = int(parallel)
        if workers < 1:
            raise ValueError("parallel worker count must be >= 1")
        if workers == 1:
            return Schedule(reason="one worker requested")
    if "fork" not in multiprocessing.get_all_start_methods():
        return Schedule(reason="the platform has no fork start method")
    budget = database.memory_budget_bytes
    if budget is not None and (footprint := database.memory_footprint()) > budget:
        # The budget ladder's last rung: a pool amplifies the footprint
        # (per-worker adhesion caches, range result buffers).
        return Schedule(
            reason=f"{OVER_BUDGET}: footprint {footprint} > budget {budget} bytes"
        )
    if selector is not None:
        morsels = selector.recommend_morsels(
            query, variable_order, workers=workers, plan=clftj_plan
        )
    else:
        morsels = workers * MORSEL_OVERPARTITION
    plan = cached_partition_plan(
        database,
        query,
        variable_order,
        morsels,
        min_keys_per_range=MIN_MORSEL_KEYS,
    )
    if plan.num_shards == 1 and len(database.dictionary):
        # (An empty dictionary is explain() on a cold database: no index has
        # encoded the domain yet, and the first execution cuts the ranges.)
        return Schedule(reason="the top variable's domain does not split")
    return Schedule(workers, morsels, plan)


# --------------------------------------------------------------------------
# The morsel runner (module-level: the pool pickles it by reference).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MorselSpec:
    """Per-job parameters every morsel of a query shares (picklable).

    The last four fields carry the CLFTJ plan: the (contracted)
    decomposition the compiled driver and the adhesion caches are keyed
    against, the caching policy, the cache sizing, and the worker-cache
    identity key.  They stay ``None`` for lftj, so the fork-pipe payload
    of an lftj job carries no plan.
    """

    query: ConjunctiveQuery
    variable_order: Tuple[Variable, ...]
    inner: str
    compile: Optional[bool]
    run_mode: str
    decomposition: Optional[TreeDecomposition] = None
    policy: Optional[CachePolicy] = None
    cache_capacity: Optional[int] = None
    cache_key: Optional[Tuple[object, ...]] = None
    #: Absolute monotonic deadline the morsel's executor checks
    #: cooperatively (valid across the fork: the clock is shared).
    deadline: Optional[Deadline] = None


def make_range_executor(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Sequence[Variable],
    inner: str,
    compile: Optional[bool],
    decomposition: Optional[TreeDecomposition] = None,
    policy: Optional[CachePolicy] = None,
    cache: Optional[AdhesionCache] = None,
):
    """Build one inner executor whose ``count`` / ``evaluate_coded`` take the
    top variable's ``[lo, hi)`` and a counter per call.

    Every pool worker builds one per job, then runs it once per morsel.
    Compiled lftj/clftj executors all resolve to the *same* cached driver
    as the submitting thread's serial executor (the cache key has no range
    in it), so a parallel query costs one compilation total, and forked
    workers inherit the parent's already-built driver.
    """
    return trie_join_executor(
        query,
        database,
        variable_order,
        compile,
        decomposition=decomposition if inner == "clftj" else None,
        policy=policy,
        cache=cache,
    )


#: A worker's adhesion-cache store, per database.  Filled only inside forked
#: workers: each keeps its own copy warm across morsels *and* across
#: re-armed jobs.  Databases are held weakly — dropping a database drops its
#: worker caches with it.
_WORKER_CACHES: "weakref.WeakKeyDictionary[Database, dict]" = (
    weakref.WeakKeyDictionary()
)


@dataclass
class _WorkerCache:
    """One worker's persistent adhesion cache for one plan."""

    versions: Tuple[int, ...]
    cache: AdhesionCache


def _worker_adhesion_cache(database: Database, spec: MorselSpec) -> _WorkerCache:
    """The calling worker's persistent adhesion cache for this job's plan.

    Keyed like the compiled-driver cache — name-erased query signature,
    order positions, decomposition fingerprint — plus the run mode (counts
    and factorized representations must never share a cache) and the cache
    sizing.  Entries are version-guarded: any mutation of an involved
    relation makes the snapshot stale and the worker starts a fresh cache,
    mirroring the engine's per-relation invalidation discipline.
    """
    per_database = _WORKER_CACHES.setdefault(database, {})
    key = (spec.cache_key, spec.run_mode)
    versions = database.relation_versions(spec.query.relation_names)
    entry = per_database.get(key)
    if entry is not None and entry.versions == versions:
        return entry
    if spec.cache_capacity is not None:
        cache = AdhesionCache(capacity=spec.cache_capacity, eviction="lru")
    else:
        cache = AdhesionCache()
    entry = per_database[key] = _WorkerCache(versions, cache)
    return entry


def _worker_executor(database: Database, spec: MorselSpec, state: dict):
    """Build the calling worker's executor for this job (its first morsel).

    The policy is the worker's own: each job's spec is unpickled afresh in
    every worker, so a stateful policy (per-node admission budgets) is never
    shared.  Every morsel is one execution of the executor, which
    ``reset()``s the policy — each morsel restarting a budget is the
    documented parallel semantic.
    """
    cache: Optional[AdhesionCache] = None
    if spec.inner == "clftj":
        state["cache"] = _worker_adhesion_cache(database, spec)
        cache = state["cache"].cache
    executor = state["executor"] = make_range_executor(
        spec.query,
        database,
        spec.variable_order,
        spec.inner,
        spec.compile,
        decomposition=spec.decomposition,
        policy=spec.policy,
        cache=cache,
    )
    # In-executor cooperative checks (every N recursive calls interpreted,
    # counter-gated in compiled drivers) bound the overshoot even within
    # one long morsel.
    executor.deadline = spec.deadline
    return executor


def _run_morsel(database: Database, spec: MorselSpec, task: MorselTask) -> TaskOutcome:
    """The pool runner: execute one morsel's range, return its outcome."""
    if spec.deadline is not None:
        # Morsel-boundary check: a morsel dequeued after expiry never
        # starts (the parent is cancelling the job concurrently anyway).
        spec.deadline.check()
    state = worker_job_state()
    executor = state.get("executor") or _worker_executor(database, spec, state)
    counter = OperationCounter()
    if spec.run_mode == "count":
        value = executor.count(task.lo, task.hi, counter)
        rows: Optional[List[Tuple[object, ...]]] = None
    else:
        rows = executor.evaluate_coded(task.lo, task.hi, counter)
        if not isinstance(rows, list):  # interpreted: a generator
            rows = list(rows)
        value = len(rows)
    return TaskOutcome(value=value, rows=rows, counter=counter)


def _summarize_worker(database: Database, spec: MorselSpec, state: dict) -> dict:
    """A CLFTJ worker's adhesion-cache footprint after its last morsel."""
    cache: AdhesionCache = state["cache"].cache
    return {"entries": len(cache), "memory_bytes": cache.memory_estimate()}


def _skew(work: Sequence[float]) -> float:
    """Max/mean imbalance of a work distribution (1.0 = perfectly even)."""
    total = sum(work)
    if not work or total <= 0:
        return 1.0
    return max(work) / (total / len(work))


# --------------------------------------------------------------------------
# The parallel executor.
# --------------------------------------------------------------------------


class ParallelExecutor:
    """One ``parallel=`` execution of LFTJ or CLFTJ.

    Wraps the serial executor the factory already built — the *template*,
    whose construction built (or cache-hit) every shared index in the
    calling thread — and runs the :class:`Schedule` resolved for it.  A
    declined schedule runs the template itself; otherwise the plan's ranges
    go as one job to the database's persistent
    :class:`~repro.engine.pool.WorkerPool`, where a worker constructs one
    executor per job and runs it once per morsel (fork workers are spawned
    once and re-armed across queries).  CLFTJ shards safely because a
    cached subtree never depends on the top variable's range, so every
    worker keeps its *own* adhesion cache, persistent across morsels and
    queries (see ``_worker_adhesion_cache``).

    The merge is deterministic: results are ordered by planner index
    (ranges are ordered, and within a range the inner algorithm emits rows
    in trie order, so concatenation reproduces the serial row order for
    LFTJ regardless of which worker ran what), per-morsel operation
    counters are summed into the executor's counter, and
    ``execution_metadata`` reports workers, morsels, steals, per-worker
    busy seconds, utilization and two skew measures
    (``partition_skew`` per worker — what stealing equalises — and
    ``morsel_skew`` per planned range).
    """

    #: Executor-protocol marker: every inner algorithm runs in code space
    #: and ``evaluate_coded()`` returns code tuples.
    encoded = True

    def __init__(
        self,
        template,
        schedule: Schedule,
        inner: str,
        compile: Optional[bool] = None,
        plan=None,
    ) -> None:
        self._template = template
        self.schedule = schedule
        self.query: ConjunctiveQuery = template.query
        self.database: Database = template.database
        self.counter: OperationCounter = template.counter
        self.variable_order: Tuple[Variable, ...] = template.variable_order
        self.inner_algorithm = inner
        #: ``False`` pins the interpreted inner executors (the differential
        #: oracle); anything else lets lftj/clftj morsels run compiled drivers.
        self.compile = compile
        #: The CLFTJ execution plan (cache policy and sizing); ``None`` for
        #: lftj.
        self._plan = plan
        #: Cooperative deadline for THIS execution, assigned by the engine
        #: from the ``ExecutorRequest``; checked at morsel boundaries by the
        #: pool and inside morsels (or the serial run) by the inner executors.
        self.deadline: Optional[Deadline] = None
        #: The schedule's half of the metadata; a pool job fills in its stats.
        self._stats: Dict[str, object] = {"parallel": schedule.parallel}
        if not schedule.parallel:
            self._stats["parallel_reason"] = schedule.reason

    # ------------------------------------------------------------- execution
    def build(self) -> None:
        """Phase one of build/execute: compile (or fetch) the shared driver.

        Runs in the calling thread before any timing starts — and before
        the pool forks or re-arms workers — so morsels only ever
        cache-hit (forked children inherit the driver by copy-on-write).
        Interpreted inners have no build phase; this is then a no-op.
        """
        build = getattr(self._template, "build", None)
        if build is not None:
            build()

    def count(self) -> int:
        """The template's count, or the sum of the per-morsel counts."""
        if not self.schedule.parallel:
            self._template.deadline = self.deadline
            return self._template.count()
        return sum(result.value for result in self._run_on_pool("count"))

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        """Yield result rows as values (decoded at this boundary)."""
        return self.database.dictionary.decode_stream(self.evaluate_coded())

    def evaluate_coded(self) -> Iterable[Tuple[object, ...]]:
        """Result rows in storage space: the serial template's as it returns
        them, or the morsels' concatenated in range order."""
        if not self.schedule.parallel:
            self._template.deadline = self.deadline
            return self._template.evaluate_coded()
        return list(chain.from_iterable(
            result.rows for result in self._run_on_pool("evaluate")
        ))

    # -------------------------------------------------------------- internals
    def _run_on_pool(self, run_mode: str) -> list:
        schedule = self.schedule
        clftj = self.inner_algorithm == "clftj"
        cache_key: Optional[Tuple[object, ...]] = None
        if clftj:
            # Worker caches share the compiled-driver identity (signature,
            # order positions, decomposition fingerprint) so two queries
            # with the same erased shape warm each other's caches, plus the
            # sizing (a bounded and an unbounded cache are different
            # objects).
            driver_key, _decomposition, _reason = resolve_driver(
                self.query, self.variable_order, self._plan.decomposition
            )
            cache_key = ("adhesion", driver_key, self._plan.cache_capacity)
        job = MorselJob(
            spec=MorselSpec(
                query=self.query,
                variable_order=self.variable_order,
                inner=self.inner_algorithm,
                compile=self.compile,
                run_mode=run_mode,
                # The template's decomposition is the *contracted* one — the
                # node ids compiled probes bake in and caches are keyed by.
                decomposition=self._template.decomposition if clftj else None,
                policy=self._plan.policy if clftj else None,
                cache_capacity=self._plan.cache_capacity if clftj else None,
                cache_key=cache_key,
                deadline=self.deadline,
            ),
            runner=_run_morsel,
            tasks=[
                MorselTask(index=index, lo=lo, hi=hi)
                for index, (lo, hi) in enumerate(schedule.plan.ranges())
            ],
            deadline=self.deadline,
            summarize=_summarize_worker if clftj else None,
        )
        report = self.database.worker_pool(schedule.workers).run(job)
        for result in report.results:
            self.counter.merge(result.counter)
        self._stats = self._collect_stats(report)
        return report.results

    def _collect_stats(self, report: JobReport) -> Dict[str, object]:
        """The scheduling half of a pool job's metadata."""
        plan = self.schedule.plan
        # One result per planned range, in range order.
        results = report.results
        morsel_work = [result.counter.memory_accesses for result in results]
        worker_work = [0.0] * report.workers
        for result, work in zip(results, morsel_work):
            worker_work[result.worker] += work
        busy = report.worker_busy
        wall = report.wall_seconds
        utilization = (
            sum(busy) / (len(busy) * wall) if busy and wall > 0 else 1.0
        )
        extra: Dict[str, object] = {}
        if self.inner_algorithm == "clftj":
            # Each worker's persistent cache: entry count / footprint from
            # its end-of-job summary, hits / stores summed over the
            # counters of the morsels it ran.
            per_worker = {
                worker: {**summary, "hits": 0, "stores": 0}
                for worker, summary in report.worker_stats.items()
            }
            for result in results:
                merged = per_worker.get(result.worker)
                if merged is not None:
                    merged["hits"] += result.counter.cache_hits
                    merged["stores"] += result.counter.cache_insertions
            extra["worker_caches"] = [
                {"worker": worker, **merged}
                for worker, merged in sorted(per_worker.items())
            ]
        return {
            **extra,
            "parallel": True,
            "inner_algorithm": self.inner_algorithm,
            "workers": report.workers,
            "morsels": plan.num_shards,
            "tasks_executed": len(results),
            "steals": report.steals,
            "worker_restarts": report.worker_restarts,
            "morsel_retries": report.morsel_retries,
            "partition_source": plan.source,
            "partition_bounds": list(plan.bounds),
            "shard_results": [result.value for result in results],
            "shard_seconds": [round(result.elapsed, 6) for result in results],
            "worker_busy_seconds": [round(seconds, 6) for seconds in busy],
            # Wall time the pool spent on anything but the busiest worker's
            # morsels: arming, task/result transport, the end handshake.
            "dispatch_seconds": round(report.dispatch_seconds, 6),
            "utilization": round(min(utilization, 1.0), 3),
            # Per-worker imbalance of actual work done — the number work
            # stealing drives toward 1.0 — vs the planner's per-range
            # imbalance the pool had to absorb.
            "partition_skew": round(_skew(worker_work), 3),
            "morsel_skew": round(_skew(morsel_work), 3),
        }

    # -------------------------------------------------------------- reporting
    def execution_metadata(self) -> Dict[str, object]:
        """Template facts plus the schedule: pool stats, or why it declined."""
        return {**self._template.execution_metadata(), **self._stats}

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor({self.query.name!r}, inner={self.inner_algorithm!r}, "
            f"{self.schedule.describe()})"
        )
