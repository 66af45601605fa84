"""Cost-based algorithm selection for ``algorithm="auto"``.

The selector estimates, for one planned query, the work each of the three
paper algorithms would do and picks the cheapest.  Each estimate is plain
arithmetic around Section 4.3's one cost walk,
:meth:`~repro.decomposition.cost.ChuCostModel.walk`, which reads the
database's one statistics catalog — the planner prices its candidate orders
with the same walk, keeping the two cost views consistent:

* **lftj** — the walk of the plan's variable order: the expected iterator
  work of enumerating every partial assignment.
* **clftj** — the same walk given the decomposition: on entry into a
  non-root node the running multiplicity is capped by the estimated number
  of *distinct adhesion keys*, since with an (unbounded) adhesion cache the
  subtree below the node is computed once per distinct key, not once per
  partial assignment reaching it.  A small probe overhead charges the cache
  lookups themselves, so on single-bag decompositions (no caching possible)
  plain LFTJ wins.
* **ytd** — per bag, the walk of the order restricted to the bag, plus full
  materialisation and two semi-join passes over every bag: YTD always pays
  for assignments that never extend to a full result, which is the
  memory-traffic weakness the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.decomposition.cost import ChuCostModel
from repro.engine.planner import ExecutionPlan
from repro.engine.pool import available_workers
from repro.query.atoms import ConjunctiveQuery
from repro.storage.database import Database

#: The candidates ``algorithm="auto"`` chooses between, in tie-break order.
AUTO_CANDIDATES: Tuple[str, ...] = ("clftj", "lftj", "ytd")

#: Relative overhead charged to CLFTJ for cache probes/bookkeeping; keeps
#: the selector honest when a decomposition admits no (or tiny) reuse.
_CLFTJ_PROBE_OVERHEAD = 1.05

#: Per-tuple factor charged to YTD for bag materialisation + the two
#: semi-join reduction passes.
_YTD_MATERIALIZE_FACTOR = 3.0

#: Cost of one trie-seek unit relative to YTD's per-tuple materialisation
#: work: seeks gallop over dense int-code arrays (with batched block kernels
#: at the deepest level), while YTD's work is value-shaped.  Calibrated on
#: warm triangle counting over the wiki-Vote / ego-Facebook stand-ins.
_SEEK_UNIT = 0.5

#: The work floor of a *morsel* — and of engaging a worker — in estimated
#: cost units: what dispatching a job on the persistent fork pool costs
#: whatever it computes.  Measured on
#: the 2-core reference box: a warm no-op job takes 0.4 ms for 2 morsels plus
#: 0.06 ms per further morsel, and a real one 1-1.5 ms once the plan is
#: pickled to each worker, each worker builds its executor and CLFTJ workers
#: size their caches; compiled count loops retire 3k-12k units per ms
#: (re-measured on the benchmark graphs once the drivers derived their
#: counters: ``p4.lftj`` 3.0k, ``c4.lftj`` 3.5k, ``p4.clftj`` 6k,
#: ``tri.lftj`` 10k, ``lol.clftj`` 12k; ``c5.lftj``, bound by C-level set
#: intersections, stays at 1.4k), and the floor is taken at the fast end,
#: because queries that cheap are the ones it exists for: 12k units are
#: still the 1-1.2 ms a dispatch costs.  A range worth less than this is
#: not cut off: a 3 ms query becomes one range per worker, while 100 ms of
#: work still gets its 16 per worker.
_MORSEL_DISPATCH_COST = 12000.0


@dataclass(frozen=True)
class AlgorithmChoice:
    """The selector's decision plus everything needed to explain it."""

    algorithm: str
    costs: Mapping[str, float]
    reasons: Tuple[str, ...]

    def describe(self) -> str:
        """A human-readable account of the decision (used by ``explain``)."""
        lines = [f"selected algorithm: {self.algorithm}"]
        for name in AUTO_CANDIDATES:
            marker = "*" if name == self.algorithm else " "
            lines.append(f"  {marker} {name:<6} estimated cost {self.costs[name]:,.1f}")
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


class CostBasedSelector:
    """Pick lftj/clftj/ytd per (query, database) from statistics estimates.

    Every estimate reads the database's one statistics catalog
    (``database.statistics``): statistics are computed once per relation
    and, when the data changes underneath (``Database.insert``/``delete``),
    refreshed incrementally from the applied delta batches instead of being
    rescanned — so ``algorithm="auto"`` keeps reasoning from *current*
    statistics on a mutating database at negligible cost.
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def choose(self, query: ConjunctiveQuery, plan: ExecutionPlan) -> AlgorithmChoice:
        """Estimate every candidate's cost under ``plan`` and pick the cheapest."""
        model = ChuCostModel(self.database, query)
        costs: Dict[str, float] = {
            "lftj": _lftj_cost(model, plan.variable_order),
            "clftj": _clftj_cost(model, plan),
            "ytd": _ytd_cost(model, plan),
        }
        algorithm = min(AUTO_CANDIDATES, key=lambda name: costs[name])
        reasons = self._reasons(query, plan, costs, algorithm)
        return AlgorithmChoice(algorithm=algorithm, costs=costs, reasons=reasons)

    def recommend_workers(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence,
        available: Optional[int] = None,
    ) -> int:
        """Auto worker count for ``parallel=True``: scale with estimated work.

        A worker has to be worth one morsel, so every worker is charged
        the work floor (:data:`_MORSEL_DISPATCH_COST`): a query whose whole
        estimated LFTJ cost is below two floors — under the pool's measured
        break-even — runs serial (1 worker); larger queries get one worker
        per floor, capped at the **actually usable** cores
        (:func:`~repro.engine.pool.available_workers` respects container
        CPU affinity, unlike a bare ``os.cpu_count()``).  Skew smoothing is
        the morsel scheduler's job (see :meth:`recommend_morsels`); extra
        workers on a persistent pool would just thrash the ones doing work.
        A function of query, statistics and cores only: the memory budget's
        serial rung is :func:`repro.engine.parallel.resolve_schedule`'s.
        """
        if available is None:
            available = available_workers()
        available = max(int(available), 1)
        cost = _lftj_cost(ChuCostModel(self.database, query), variable_order)
        return max(1, min(available, int(cost // _MORSEL_DISPATCH_COST)))

    def recommend_morsels(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence,
        workers: Optional[int] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> int:
        """Morsel count for a pool of ``workers``: fine, but not free.

        Targets ``MORSEL_OVERPARTITION`` (16) ranges per worker so stealing
        can level skew, but never plans a morsel worth less than
        :data:`_MORSEL_DISPATCH_COST` units of estimated work, never fewer
        than one range per worker, and always a whole number of ranges per
        worker: a query worth three morsels on two workers gets two, because
        the third would run alone.  (The partition planner separately
        floors the *keys* per morsel; this floors the work.)  ``plan`` is
        the CLFTJ plan when the morsels run cached: the work is then the
        cached estimate, an order of magnitude below LFTJ's on paths.
        """
        from repro.engine.parallel import MORSEL_OVERPARTITION

        if workers is None:
            workers = self.recommend_workers(query, variable_order)
        workers = max(int(workers), 1)
        if workers == 1:
            return 1
        model = ChuCostModel(self.database, query)
        cost = _clftj_cost(model, plan) if plan is not None else _lftj_cost(model, variable_order)
        affordable = int(cost // _MORSEL_DISPATCH_COST)
        affordable -= affordable % workers
        return max(workers, min(workers * MORSEL_OVERPARTITION, affordable))

    # -------------------------------------------------------------- reporting
    def _reasons(
        self,
        query: ConjunctiveQuery,
        plan: ExecutionPlan,
        costs: Mapping[str, float],
        algorithm: str,
    ) -> Tuple[str, ...]:
        decomposition = plan.decomposition
        reasons = [
            f"plan: {decomposition.num_nodes} bag(s), "
            f"max adhesion {decomposition.max_adhesion_size}, "
            f"order {', '.join(v.name for v in plan.variable_order)}",
        ]
        if decomposition.num_nodes == 1:
            reasons.append(
                "single-bag decomposition admits no adhesion caching; "
                "clftj is charged pure probe overhead over lftj"
            )
        else:
            reasons.append(
                f"adhesion caching caps subtree work at the estimated distinct "
                f"adhesion keys across {decomposition.num_nodes - 1} cached node(s)"
            )
        if algorithm == "clftj" and decomposition.num_nodes > 1:
            workers = self.recommend_workers(query, plan.variable_order)
            if workers > 1:
                reasons.append(
                    f"parallel: clftj with parallel=True would engage "
                    f"{workers} worker(s) of the persistent pool (worker-local "
                    f"adhesion caches stay warm across morsels and executions)"
                )
        runner_up = min(
            (name for name in AUTO_CANDIDATES if name != algorithm),
            key=lambda name: costs[name],
        )
        if costs[runner_up] > 0:
            margin = costs[runner_up] / max(costs[algorithm], 1e-9)
            reasons.append(
                f"{algorithm} is estimated {margin:.2f}x cheaper than {runner_up}"
            )
        return tuple(reasons)


def _lftj_cost(model: ChuCostModel, variable_order: Sequence) -> float:
    """The walk of the order: every partial assignment is enumerated."""
    return model.walk(variable_order)[0] * _SEEK_UNIT


def _clftj_cost(model: ChuCostModel, plan: ExecutionPlan) -> float:
    """The walk capped at each cached node's distinct adhesion keys."""
    total, _ = model.walk(plan.variable_order, plan.decomposition)
    return total * _SEEK_UNIT * _CLFTJ_PROBE_OVERHEAD


def _ytd_cost(model: ChuCostModel, plan: ExecutionPlan) -> float:
    """Per bag, the walk of the bag's order, then its materialisation.

    Every bag is fully materialised and reduced twice, whether or not its
    assignments survive into the final result.  One running total crosses
    the bags, as the estimate has always summed.
    """
    decomposition = plan.decomposition
    total = 0.0
    for node in decomposition.preorder():
        bag = decomposition.bag(node)
        bag_order = [variable for variable in plan.variable_order if variable in bag]
        total, live = model.walk(bag_order, total=total)
        total += _YTD_MATERIALIZE_FACTOR * live
    return total
