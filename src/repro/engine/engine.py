"""The query engine facade.

``QueryEngine`` wires together three explicit layers:

1. the **executor registry** (:mod:`repro.engine.executors`) — every join
   algorithm behind one uniform protocol, looked up by name;
2. the **plan cache** — decomposition/order choices memoised per database
   under name-erased query signatures, with :meth:`prepare` returning a
   reusable :class:`~repro.engine.prepared.PreparedQuery` handle;
3. **cost-based selection** (:mod:`repro.engine.selector`) — pass
   ``algorithm="auto"`` and the statistics-driven selector picks
   lftj/clftj/ytd for the query at hand.

Every execution reports, in ``ExecutionResult.metadata``, how much each
caching layer helped: per-run ``plan_builds``/``plan_cache_hits`` and
``index_builds``/``index_cache_hits`` deltas.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.instrumentation import OperationCounter
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.compiler import (
    COMPILED_ALGORITHMS,
    DELTAS_PENDING,
    cache_fallback,
    pending_deltas,
    resolve_driver,
    store_loop,
)
from repro.engine.executors import (
    Executor,
    ExecutorRequest,
    algorithm_spec,
    registered_algorithms,
)
from repro.engine.faults import Deadline
from repro.engine.parallel import OVER_BUDGET, resolve_schedule
from repro.engine.planner import ExecutionPlan, Planner
from repro.engine.prepared import PreparedQuery
from repro.engine.results import ExecutionResult
from repro.engine.selector import AlgorithmChoice, CostBasedSelector
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database

#: Names accepted by :meth:`QueryEngine.count` / :meth:`QueryEngine.evaluate`.
ALGORITHMS: Tuple[str, ...] = registered_algorithms()

#: The pseudo-algorithm resolved per query by the cost-based selector.
AUTO_ALGORITHM: str = "auto"


def _validated_timeout(timeout: Optional[float]) -> Optional[float]:
    """Normalise a ``timeout=`` argument, rejecting non-positive values."""
    if timeout is None:
        return None
    try:
        timeout = float(timeout)
    except (TypeError, ValueError):
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        ) from None
    if timeout <= 0:
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        )
    return timeout


def _validated_limit(limit: Optional[int]) -> Optional[int]:
    """Check a ``limit=`` argument: ``None`` or a non-negative ``int``."""
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
    ):
        raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
    return limit


def _check_parallel_backend(parallel: Optional[object], backend: Optional[str]) -> None:
    """Validate the ``parallel_backend=`` keyword; the engine then drops it.

    The worker pool has one transport, forked processes, so the keyword
    only stays for callers that name it: ``"processes"`` next to a
    ``parallel=`` request is accepted and changes nothing, anything else
    raises.  Nothing below the engine carries it.
    """
    if backend is None:
        return
    if backend != "processes":
        raise ValueError(
            f"unknown parallel backend {backend!r}: the worker pool has one "
            f"transport, 'processes' (forked workers)"
        )
    if parallel is None or parallel is False:
        raise ValueError("parallel_backend requires parallel= (a worker count or True)")


def _coded_rows(executor: Executor, limit: Optional[int]) -> Tuple[list, int]:
    """An encoded executor's rows (the first ``limit`` of them) and count.

    A compiled driver stops at the rows kept (``evaluate_head``); every
    other executor evaluates in full, then the list is cut.  A driver's
    list is kept as it comes, never copied.
    """
    head = getattr(executor, "evaluate_head", None)
    if limit is not None and head is not None:
        taken = head(limit)
        if taken is not None:
            return taken
    coded_rows = executor.evaluate_coded()
    if not isinstance(coded_rows, list):
        coded_rows = list(coded_rows)
    value = len(coded_rows)
    if limit is not None:
        del coded_rows[limit:]
    return coded_rows, value


class QueryEngine:
    """Plan and execute conjunctive queries over one database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.planner = Planner(database)
        self.selector = CostBasedSelector(database)

    # ------------------------------------------------------------------ plans
    def plan(
        self,
        query: ConjunctiveQuery,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
    ) -> ExecutionPlan:
        """Produce the execution plan CLFTJ/YTD would use for ``query``."""
        return self.planner.plan(
            query,
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
        )

    def prepare(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> PreparedQuery:
        """Resolve, validate and plan ``query`` once; return a reusable handle.

        ``algorithm="auto"`` runs the cost-based selector exactly once.  The
        returned :class:`~repro.engine.prepared.PreparedQuery` re-executes
        through the plan and index caches and, for CLFTJ, keeps a persistent
        adhesion cache per execution mode (warm across runs).  With
        ``parallel=`` (on ``lftj``/``clftj``), every
        re-execution runs morsel-parallel on the database's persistent
        worker pool — warm repeats spawn no new workers, and parallel CLFTJ
        workers keep their adhesion caches warm across re-executions.
        """
        _check_parallel_backend(parallel, parallel_backend)
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "compile": compile,
            "timeout": _validated_timeout(timeout),
        }
        requested = algorithm
        resolved, selection = self._resolve_algorithm(query, algorithm, parameters)
        spec = algorithm_spec(resolved)
        spec.reject_unused(**parameters)
        if spec.needs_plan:
            # Seed the plan cache so every later execution is a hit.
            self.plan(
                query,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
            )
        return PreparedQuery(
            self,
            query,
            algorithm=resolved,
            requested_algorithm=requested,
            parameters=parameters,
            selection=selection,
        )

    # ------------------------------------------------------------------ counts
    def count(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> ExecutionResult:
        """Run a count query with the chosen algorithm and return the result.

        Pass ``parallel=N`` (worker count; ``True`` for automatic) with
        ``algorithm`` ``"lftj"``/``"clftj"`` to run the
        execution morsel-parallel over the top join variable on the
        database's persistent pool of forked workers (``parallel_backend``
        may only name that one transport, ``"processes"``).  A request the
        pool would not repay runs serial and says why in
        ``metadata["parallel_reason"]`` (see
        :func:`repro.engine.parallel.resolve_schedule`).

        ``timeout=`` (seconds) arms a cooperative deadline across every
        backend — interpreted, compiled and pool-parallel executions all
        raise :class:`repro.engine.faults.QueryTimeoutError` once it
        expires, leaving the worker pool reusable.
        """
        _check_parallel_backend(parallel, parallel_backend)
        return self._execute(
            query,
            algorithm,
            "count",
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
            cache=cache,
            parallel=parallel,
            compile=compile,
            timeout=timeout,
        )

    def evaluate(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> ExecutionResult:
        """Run a full evaluation and return the materialised result rows.

        Rows are reported as tuples following the executor's declared
        ``variable_order`` (the query's textual order for the row-stream
        adapters around YTD and the pairwise baseline).  Parallel executions
        (``parallel=``) merge shard rows deterministically in partition
        order, which for LFTJ reproduces the serial row order exactly.

        ``limit=N`` keeps only the first ``N`` rows (``result.rows`` is the
        full result's ``rows[:N]``) while ``result.count`` stays the exact
        row count.  A compiled driver then stops its evaluate loop past
        ``N`` rows and counts the rest without materialising them; every
        other execution evaluates in full and truncates.  Under a limit the
        operation counter holds the work done, not a full evaluation's.
        """
        _check_parallel_backend(parallel, parallel_backend)
        return self._execute(
            query,
            algorithm,
            "evaluate",
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
            cache=cache,
            parallel=parallel,
            compile=compile,
            timeout=timeout,
            limit=limit,
        )

    # -------------------------------------------------------------- comparison
    def compare(
        self,
        query: ConjunctiveQuery,
        algorithms: Sequence[str] = ("lftj", "clftj", "ytd"),
        mode: str = "count",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        compile: Optional[bool] = None,
    ) -> Dict[str, ExecutionResult]:
        """Run ``query`` with several algorithms and return results keyed by name.

        Each planning parameter is forwarded to exactly the algorithms whose
        registry spec accepts it (forwarding e.g. a caching policy to plain
        LFTJ would otherwise be rejected as unused; ``parallel`` reaches only
        the shardable algorithms).  Each run gets a fresh adhesion cache —
        use :meth:`prepare` or pass ``cache=`` to the single-algorithm
        methods to study warm-cache behaviour.
        """
        if mode not in ("count", "evaluate"):
            raise ValueError(f"unknown mode {mode!r}; use 'count' or 'evaluate'")
        _check_parallel_backend(parallel, parallel_backend)
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "parallel": parallel,
            "compile": compile,
        }
        results: Dict[str, ExecutionResult] = {}
        for algorithm in algorithms:
            if algorithm == AUTO_ALGORITHM:
                forwarded: Dict[str, object] = {}
            else:
                accepts = algorithm_spec(algorithm).accepts
                forwarded = {
                    name: value
                    for name, value in parameters.items()
                    if value is not None and name in accepts
                }
            results[algorithm] = self._execute(query, algorithm, mode, **forwarded)
        return results

    # ------------------------------------------------------------- explanation
    def explain(
        self,
        query: ConjunctiveQuery,
        algorithm: str = AUTO_ALGORITHM,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> str:
        """A human-readable account of how ``query`` would be executed.

        Shows the (memoised) execution plan, the selector's reasoning when
        ``algorithm="auto"``, the schedule a ``parallel=`` request resolves
        to (workers and range bounds, or why it stays serial), and the
        current plan-/index-cache state of the database — without executing
        the query.
        """
        _check_parallel_backend(parallel, parallel_backend)
        lines = []
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "compile": compile,
            "timeout": _validated_timeout(timeout),
        }
        # The "newly planned vs cached" verdict reads this explain call's
        # own scope, not a before/after diff of the global counter a
        # concurrent execution may bump in between.
        with self.database.execution_scope() as accounting:
            resolved, selection = self._resolve_algorithm(query, algorithm, parameters)
            spec = algorithm_spec(resolved)
            spec.reject_unused(**parameters)
            if selection is not None:
                lines.append(selection.describe())
            else:
                lines.append(f"algorithm: {resolved} (explicit)")
            plan_consulted = selection is not None
            plan: Optional[ExecutionPlan] = None
            if spec.needs_plan or selection is not None:
                plan = self.plan(
                    query,
                    decomposition=decomposition,
                    variable_order=variable_order,
                    cache_capacity=cache_capacity,
                    policy=policy,
                )
                plan_consulted = plan_consulted or decomposition is None
                lines.append("")
                lines.append(plan.describe())
        schedule = resolve_schedule(
            self.database,
            query,
            plan.variable_order
            if plan is not None
            else tuple(variable_order or query.variables),
            parallel,
            self.selector,
            plan if resolved == "clftj" else None,
        )
        probed_cache: Optional[AdhesionCache] = None  # what a compiled count probes
        if resolved == "clftj":
            capacity = (
                plan.cache_capacity
                if plan.cache_capacity is not None
                else "unbounded"
            )
            pooled = schedule is not None and schedule.parallel
            scope = (
                "worker-local persistent caches (one per pool worker)"
                if pooled
                else "one cache per execution (prepare() keeps it warm)"
            )
            # pool workers cache like the plan's fresh cache
            probed_cache = cache if cache is not None and not pooled else plan.make_cache()
            lines.append("")
            lines.append(
                f"adhesion caching: policy={type(plan.policy).__name__}, "
                f"capacity={capacity}, {scope}"
            )
        if schedule is not None:
            lines.append("")
            lines.append(schedule.describe())
        if decomposition is not None:
            plan_state = "bypassed (explicit decomposition)"
        elif not plan_consulted:
            plan_state = "not planned (algorithm plans nothing)"
        elif accounting.get("plan_builds"):
            plan_state = "newly planned"
        else:
            plan_state = "cached"
        lines.append("")
        lines.append(
            "plan cache: "
            f"{self.database.plan_cache_size()} plan(s) cached, "
            f"{self.database.plan_builds} build(s), "
            f"{self.database.plan_cache_hits} hit(s); "
            f"this query: {plan_state}"
        )
        lines.append(
            "index cache: "
            f"{self.database.index_cache_size()} index(es) cached, "
            f"{self.database.index_builds} build(s), "
            f"{self.database.index_cache_hits} hit(s), "
            f"{self.database.index_patches} delta patch(es), "
            f"{self.database.index_compactions} compaction(s)"
        )
        lines.append(
            "compiled drivers: "
            f"{self.database.compiled_cache_size()} driver(s) cached, "
            f"{self.database.compiled_builds} build(s), "
            f"{self.database.compiled_cache_hits} hit(s); "
            f"this query: "
            f"{self._compiled_state(query, resolved, variable_order, compile, plan, probed_cache)}"
        )
        if timeout is not None:
            lines.append(
                f"timeout: {timeout:.6g}s cooperative deadline "
                "(raises QueryTimeoutError; checked at morsel boundaries, "
                "in interpreted recursion and in compiled loop bodies)"
            )
        budget = self.database.memory_budget_bytes
        if budget is not None:
            footprint = self.database.memory_footprint()
            state = "over budget" if footprint > budget else "within budget"
            lines.append(
                f"memory budget: {budget} bytes, tracked footprint "
                f"{footprint} bytes ({state}; over-budget executions degrade "
                "in order: disable adhesion caching -> evict compiled "
                "drivers/indexes -> serial fallback)"
            )
        return "\n".join(lines)

    # --------------------------------------------------------------- internals
    def _driver(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        variable_order: Optional[Sequence[Variable]],
        plan: Optional[ExecutionPlan],
    ) -> tuple:
        """The order ``algorithm``'s trie join would run, then what
        :func:`resolve_driver` makes of it: ``(order, key, decomposition,
        reason)``.  ``plan`` is the execution plan where one applies:
        clftj's, or the selector's when ``auto`` resolved to lftj.
        """
        if plan is not None:
            variable_order = plan.variable_order
        order = tuple(variable_order or query.variables)
        decomposition = plan.decomposition if algorithm == "clftj" else None
        return (order, *resolve_driver(query, order, decomposition))

    def _compiled_state(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        variable_order: Optional[Sequence[Variable]],
        compile: Optional[bool],
        plan: Optional[ExecutionPlan] = None,
        cache: Optional[AdhesionCache] = None,
    ) -> str:
        """The explain() account of this query's compiled-driver state: what
        the executor's ``build()`` would find, but only peeking — it builds
        no index, compiles nothing and bumps no counter.  A cached driver
        adds a ``levels:`` line: what the count loop that would run over
        ``cache`` is made of, once compiled — and, for a driver with an
        evaluate loop, an ``evaluate levels:`` line under it."""
        if algorithm not in COMPILED_ALGORITHMS:
            return f"not applicable (algorithm {algorithm!r} runs interpreted)"
        if compile is False:
            return "disabled (compile=False; interpreted oracle path)"
        order, key, probing, reason = self._driver(query, algorithm, variable_order, plan)
        if pending_deltas(query, self.database, order):
            return f"unavailable ({DELTAS_PENDING}; interpreted until the next compaction)"
        if reason is None and probing is not None:
            reason = cache_fallback(plan.policy, cache)
        if reason is not None:
            return f"unavailable ({reason})"
        driver = self.database.peek_compiled_driver(key)
        if driver is not None:
            state, note = "cached", "count mode; evaluation runs interpreted"
            loop = store_loop(cache)[0] if probing is not None else "count"
            words = driver.levels.get(loop)
            levels = (f"\n  levels: {' > '.join(words)}" if words is not None
                      else f"\n  levels: {loop} compiles on first use")
            if "evaluate" in driver.levels:
                levels += f"\n  evaluate levels: {' > '.join(driver.levels['evaluate'])}"
        else:
            state, note, levels = "will compile on first execution", "count mode", ""
        return (f"{state} ({note})" if probing is not None else state) + levels

    def _resolve_algorithm(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        parameters: Dict[str, object],
    ) -> Tuple[str, Optional[AlgorithmChoice]]:
        """Resolve ``"auto"`` through the selector; pass anything else through."""
        if algorithm != AUTO_ALGORITHM:
            return algorithm, None
        # A timeout is an execution bound, not a planning choice — auto
        # keeps accepting it (the resolved algorithm's own contract still
        # applies afterwards).
        provided = sorted(
            name
            for name, value in parameters.items()
            if value is not None and name != "timeout"
        )
        if provided:
            raise ValueError(
                f"algorithm 'auto' does not accept explicit planning parameters "
                f"({', '.join(provided)}); the selector owns those choices — "
                f"pick a concrete algorithm to set them"
            )
        plan = self.plan(query)
        selection = self.selector.choose(query, plan)
        return selection.algorithm, selection

    def _execute(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        mode: str,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
        selection: Optional[AlgorithmChoice] = None,
        limit: Optional[int] = None,
    ) -> ExecutionResult:
        """One execution through registry lookup, planning and the executor."""
        with self.database.execution_scope() as scope:
            return self._execute_scoped(
                query,
                algorithm,
                mode,
                scope,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
                cache=cache,
                parallel=parallel,
                compile=compile,
                timeout=timeout,
                selection=selection,
                limit=limit,
            )

    def _execute_scoped(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        mode: str,
        scope,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
        selection: Optional[AlgorithmChoice] = None,
        limit: Optional[int] = None,
    ) -> ExecutionResult:
        """The body of :meth:`_execute`, accounting into ``scope``.

        Every cache/build counter bump this execution causes in this
        thread is recorded in ``scope``, so the per-run cache-delta metadata
        stays correct under concurrent executions (before/after reads of
        the global counters would attribute overlapping executions' builds
        to each other).
        """
        timeout = _validated_timeout(timeout)
        limit = _validated_limit(limit)
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "compile": compile,
            "timeout": timeout,
        }
        # The result keeps the caller's label ("auto" stays "auto"); the
        # resolved name lands in metadata["selected_algorithm"].
        label = algorithm
        if selection is None:
            algorithm, selection = self._resolve_algorithm(query, algorithm, parameters)
        spec = algorithm_spec(algorithm)
        spec.reject_unused(**parameters)
        if selection is not None and algorithm == "lftj":
            # The selector priced lftj and clftj under the plan's one shared
            # order (as the paper compares them); run the order it priced.
            variable_order = self.plan(query).variable_order

        # The deadline starts here so planning/compilation count against it
        # too — a query cannot blow its budget inside build().
        deadline = Deadline.start(timeout) if timeout is not None else None

        # Memory-budget degradation (after validation, before planning):
        # over budget, progressively give up memory-hungry machinery in the
        # documented order instead of crashing.  Each step is recorded in
        # metadata["degradations"]; the last rung, serial instead of
        # parallel, is the schedule resolver's to take (see below).
        degradations: list = []
        budget = self.database.memory_budget_bytes
        if budget is not None:
            footprint = self.database.memory_footprint()
            if footprint > budget:
                # Step 1: stop growing (and drop) adhesion caches.
                if cache is not None:
                    cache.invalidate()
                if spec.name == "clftj":
                    cache_capacity = 0
                degradations.append(
                    f"adhesion caching disabled (footprint {footprint} "
                    f"> budget {budget} bytes)"
                )
                footprint = self.database.memory_footprint()
            if footprint > budget:
                # Step 2: evict cold compiled drivers and cached indexes.
                self.database.clear_compiled_cache()
                self.database.clear_index_cache()
                degradations.append(
                    "evicted compiled drivers and cached indexes "
                    f"(footprint {footprint} > budget {budget} bytes)"
                )

        counter = OperationCounter()
        plan: Optional[ExecutionPlan] = None
        if spec.needs_plan:
            plan = self.plan(
                query,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
            )
        executor: Executor = spec.factory(
            ExecutorRequest(
                query=query,
                database=self.database,
                counter=counter,
                plan=plan,
                variable_order=tuple(variable_order) if variable_order is not None else None,
                cache=cache,
                parallel=parallel,
                selector=self.selector,
                compile=compile,
                deadline=deadline,
            )
        )
        # The cooperative deadline travels inside the request and is
        # assigned here UNCONDITIONALLY: interpreted recursion, compiled
        # drivers and the parallel scheduler all read ``executor.deadline``,
        # and overwriting — even with ``None`` — guarantees an executor can
        # never inherit a previous execution's clock, concurrent or not
        # (``reject_unused`` above guarantees the algorithm honours the
        # deadline whenever a timeout was passed).
        executor.deadline = deadline
        # Two-phase build/execute: compile (or cache-hit) the specialized
        # driver before the clock starts, so codegen cost never pollutes
        # measured runtimes — the compiled_builds metadata reports it.
        build = getattr(executor, "build", None)
        if build is not None:
            build()
        if deadline is not None:
            deadline.check()

        rows = None
        coded_rows = None
        started = time.perf_counter()
        if mode == "count":
            value = executor.count()
        elif mode == "evaluate":
            if getattr(executor, "encoded", False):
                # Code-space executors produce code tuples (always
                # ``tuple``s); keep them as-is and let the result decode
                # lazily on first access — a result whose rows are never
                # read costs zero decodes.
                coded_rows, value = _coded_rows(executor, limit)
            else:
                rows = [tuple(row) for row in executor.evaluate()]
                value = len(rows)
                if limit is not None:
                    del rows[limit:]
        else:
            raise ValueError(f"unknown mode {mode!r}; use 'count' or 'evaluate'")
        elapsed = time.perf_counter() - started

        result = self._result(
            query, label, value, elapsed, executor, plan, selection, scope
        )
        # Decodes the execution crossed: an executor that decodes reports its
        # own (ytd's bag rows); code rows are charged as they are read.
        result.metadata.setdefault("decodes", 0)
        # Time spent at the result boundary, after ``elapsed``: none yet.
        result.metadata["decode_seconds"] = 0.0
        declined = result.metadata.get("parallel_reason", "")
        if declined.startswith(OVER_BUDGET):
            # Step 3: the pool's amplification (per-worker caches, result
            # buffers) was given up — by the resolver, in its words.
            degradations.append(
                f"parallel execution restricted to one worker ({declined})"
            )
        if degradations:
            result.metadata["degradations"] = degradations
        if timeout is not None:
            result.metadata["timeout"] = timeout
        if coded_rows is not None:
            result.set_coded_rows(coded_rows, self.database.dictionary)
        elif rows is not None:
            result.rows = rows
        return result

    def _result(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        count: int,
        elapsed: float,
        executor: Executor,
        plan: Optional[ExecutionPlan],
        selection: Optional[AlgorithmChoice],
        scope,
    ) -> ExecutionResult:
        metadata: Dict[str, object] = {}
        if plan is not None:
            metadata["num_bags"] = plan.decomposition.num_nodes
            metadata["max_adhesion_size"] = plan.decomposition.max_adhesion_size
        metadata.update(executor.execution_metadata())
        if selection is not None:
            metadata["selected_algorithm"] = selection.algorithm
            metadata["selector_costs"] = {
                name: round(cost, 2) for name, cost in selection.costs.items()
            }
        # Per-run cache deltas come from the execution's own accounting
        # scope, never from diffing the global counters — concurrent
        # executions would misattribute each other's builds otherwise.
        metadata["index_builds"] = scope.get("index_builds")
        metadata["index_cache_hits"] = scope.get("index_cache_hits")
        metadata["plan_builds"] = scope.get("plan_builds")
        metadata["plan_cache_hits"] = scope.get("plan_cache_hits")
        metadata["compiled_builds"] = scope.get("compiled_builds")
        metadata["compiled_cache_hits"] = scope.get("compiled_cache_hits")
        # Index mutations observed during this execution (an executor never
        # mutates, but a caller interleaving updates on this thread sees
        # them attributed to the run that noticed them).
        if scope.get("index_patches"):
            metadata["index_patches"] = scope.get("index_patches")
        if scope.get("index_compactions"):
            metadata["index_compactions"] = scope.get("index_compactions")
        return ExecutionResult(
            algorithm=algorithm,
            query_name=query.name,
            count=count,
            elapsed_seconds=elapsed,
            counter=executor.counter,
            variable_order=tuple(executor.variable_order),
            metadata=metadata,
        )
