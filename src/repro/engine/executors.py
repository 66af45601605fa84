"""The executor protocol and the per-algorithm factory registry.

Every join algorithm in this repository is exposed to the engine through one
uniform :class:`Executor` interface: ``count()`` returns ``|q(D)|`` and
``evaluate()`` yields result rows as tuples following the executor's declared
``variable_order``.  The engine never dispatches on concrete classes — it
looks an :class:`AlgorithmSpec` up by name, asks the spec which planning
parameters the algorithm actually consumes (so unused parameters are
rejected loudly instead of silently dropped), and calls the spec's factory
with an :class:`ExecutorRequest`.

New algorithms plug in with :func:`register_algorithm`; nothing else in the
engine or the CLI needs to change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.baselines.binary_join import PairwiseHashJoin
from repro.baselines.yannakakis import YannakakisTreeJoin
from repro.core.cache import AdhesionCache
from repro.core.instrumentation import OperationCounter
from repro.engine.compiler import trie_join_executor
from repro.engine.faults import Deadline
from repro.engine.parallel import ParallelExecutor, resolve_schedule
from repro.engine.planner import ExecutionPlan
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database

#: Planning/execution parameters an algorithm may consume.  Everything a
#: spec does not list is rejected with ``ValueError`` when passed explicitly.
PARAMETERS: Tuple[str, ...] = (
    "decomposition",
    "variable_order",
    "cache_capacity",
    "policy",
    "cache",
    "parallel",
    "compile",
    "timeout",
)


@runtime_checkable
class Executor(Protocol):
    """What the engine needs from any join algorithm.

    ``evaluate()`` must yield rows as tuples whose positions follow
    ``variable_order``; ``execution_metadata()`` reports per-algorithm facts
    that the engine merges into the result metadata.

    Every index is keyed by dictionary codes, so the executors that join
    over indexes (the trie-join family and the parallel executor) run in
    code space: they carry the class constant
    ``encoded = True`` plus an ``evaluate_coded()`` returning rows of int
    codes, each a ``tuple`` (the batch decode kernel unpacks them): a
    compiled driver's one ``list``, which the engine keeps as it is, or an
    interpreted generator, which the engine drains with ``list(...)``.  A
    compiled executor also has ``evaluate_head(limit)``: the first
    ``limit`` rows and the exact count, computed without materialising the
    rest (``None`` when the execution runs interpreted); under an
    evaluation ``limit`` every other executor evaluates in full and the
    engine cuts the list.  The engine defers decoding to the result
    boundary (:class:`repro.engine.results.ExecutionResult.rows`), so
    count-only executions and untouched result sets never decode.  The
    value-space baselines (``ytd``, ``pairwise``) have neither member; the
    engine duck-types them and takes plain ``evaluate()``.
    """

    counter: OperationCounter
    variable_order: Tuple[Variable, ...]

    def count(self) -> int: ...

    def evaluate(self) -> Iterator[Tuple[object, ...]]: ...

    def execution_metadata(self) -> Dict[str, object]: ...


@dataclass
class ExecutorRequest:
    """Everything a factory may need to build one executor.

    ``parallel`` asks for a morsel-parallel schedule: an ``int`` pins the
    worker count, ``True`` asks for an automatic one, ``None`` / ``False``
    mean serial execution.  What comes of the request is decided by
    :func:`repro.engine.parallel.resolve_schedule` alone.

    ``deadline`` is this execution's cooperative deadline (or ``None``).
    It travels in the request — not as a post-construction patch — so a
    freshly built executor can never observe another execution's clock:
    the engine assigns ``executor.deadline`` from the request
    unconditionally, overwriting whatever a constructor (or a hypothetical
    future executor cache) left there.
    """

    query: ConjunctiveQuery
    database: Database
    counter: OperationCounter
    plan: Optional[ExecutionPlan] = None
    variable_order: Optional[Tuple[Variable, ...]] = None
    cache: Optional[AdhesionCache] = None
    parallel: Optional[object] = None
    selector: Optional[object] = None
    compile: Optional[bool] = None
    deadline: Optional[Deadline] = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: its factory plus its parameter contract.

    ``needs_plan`` tells the engine to run the planner (decomposition +
    strongly compatible order) before calling the factory; ``accepts`` lists
    the :data:`PARAMETERS` the algorithm consumes.
    """

    name: str
    factory: Callable[[ExecutorRequest], Executor]
    description: str
    needs_plan: bool = False
    accepts: FrozenSet[str] = field(default_factory=frozenset)

    def reject_unused(self, **parameters: object) -> None:
        """Raise ``ValueError`` for any explicitly-passed parameter the
        algorithm does not consume — user intent must never be dropped
        silently."""
        for parameter, value in parameters.items():
            if value is not None and parameter not in self.accepts:
                accepted = ", ".join(sorted(self.accepts)) or "none"
                raise ValueError(
                    f"algorithm {self.name!r} does not use the {parameter!r} "
                    f"parameter (accepted parameters: {accepted}); drop it or "
                    f"pick an algorithm that honours it"
                )


class RowStreamAdapter:
    """Adapts executors that yield assignment mappings (YTD, pairwise) to the
    tuple-stream protocol.

    The wrapped executor must provide ``count()``, ``evaluate_tuples(order)``
    and ``execution_metadata()``; rows are streamed in the adapter's declared
    ``variable_order`` (the query's textual order).
    """

    def __init__(self, inner, variable_order: Sequence[Variable]) -> None:
        self.inner = inner
        self.variable_order: Tuple[Variable, ...] = tuple(variable_order)

    @property
    def counter(self) -> OperationCounter:
        return self.inner.counter

    def count(self) -> int:
        return self.inner.count()

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        for row in self.inner.evaluate_tuples(self.variable_order):
            yield row

    def execution_metadata(self) -> Dict[str, object]:
        return self.inner.execution_metadata()


# ---------------------------------------------------------------- factories
def _scheduled(request: ExecutorRequest, executor, inner: str) -> Executor:
    """``executor`` itself, or — when ``parallel=`` asks — the morsel
    scheduler around it (the serial executor is the scheduler's template).

    Resolved after ``executor`` built its indexes, so the partition planner
    sees the encoded domain of the top variable.
    """
    schedule = resolve_schedule(
        request.database,
        request.query,
        executor.variable_order,
        request.parallel,
        request.selector,
        request.plan,  # clftj's; lftj is planned nothing
    )
    if schedule is None:
        return executor
    if request.cache is not None:
        raise ValueError(
            "clftj cannot combine cache= with parallel=: parallel "
            "workers keep their own persistent adhesion caches"
        )
    return ParallelExecutor(executor, schedule, inner, request.compile, request.plan)


def _build_lftj(request: ExecutorRequest) -> Executor:
    executor = trie_join_executor(
        request.query,
        request.database,
        request.variable_order,
        request.compile,
        counter=request.counter,
    )
    return _scheduled(request, executor, "lftj")


def _build_clftj(request: ExecutorRequest) -> Executor:
    plan = request.plan
    executor = trie_join_executor(
        request.query,
        request.database,
        plan.variable_order,
        request.compile,
        decomposition=plan.decomposition,
        policy=plan.policy,
        cache=request.cache if request.cache is not None else plan.make_cache(),
        counter=request.counter,
    )
    return _scheduled(request, executor, "clftj")


def _build_ytd(request: ExecutorRequest) -> Executor:
    inner = YannakakisTreeJoin(
        request.query, request.database, request.plan.decomposition, request.counter
    )
    return RowStreamAdapter(inner, request.query.variables)


def _build_pairwise(request: ExecutorRequest) -> Executor:
    inner = PairwiseHashJoin(request.query, request.database, request.counter)
    return RowStreamAdapter(inner, request.query.variables)


# ----------------------------------------------------------------- registry
_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec, replace: bool = False) -> None:
    """Register ``spec`` under its name; refuses silent overwrites."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def algorithm_spec(name: str) -> AlgorithmSpec:
    """Look an algorithm up by name, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose one of {registered_algorithms()}"
        ) from None


def registered_algorithms() -> Tuple[str, ...]:
    """Names of all registered algorithms, in registration order."""
    return tuple(_REGISTRY)


register_algorithm(
    AlgorithmSpec(
        name="lftj",
        factory=_build_lftj,
        description="vanilla Leapfrog Trie Join (Figure 1)",
        accepts=frozenset(
            {
                "variable_order",
                "parallel",
                "compile",
                "timeout",
            }
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="clftj",
        factory=_build_clftj,
        description="Cached Leapfrog Trie Join over a tree decomposition (Figure 2)",
        needs_plan=True,
        accepts=frozenset(
            {
                "decomposition",
                "variable_order",
                "cache_capacity",
                "policy",
                "cache",
                "parallel",
                "compile",
                "timeout",
            }
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="ytd",
        factory=_build_ytd,
        description="Yannakakis over a tree decomposition with per-bag LFTJ",
        needs_plan=True,
        accepts=frozenset({"decomposition"}),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="pairwise",
        factory=_build_pairwise,
        description="left-deep pairwise hash joins with a greedy optimiser",
    )
)
