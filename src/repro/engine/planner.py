"""Query planning: choose a decomposition, an order and a caching policy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, AlwaysCachePolicy, CachePolicy
from repro.decomposition.cost import select_decomposition
from repro.decomposition.ordering import strongly_compatible_order
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.views import query_signature


@dataclass
class ExecutionPlan:
    """Everything CLFTJ (and YTD) need to run: decomposition, order, cache setup."""

    query: ConjunctiveQuery
    decomposition: TreeDecomposition
    variable_order: Tuple[Variable, ...]
    policy: CachePolicy = field(default_factory=AlwaysCachePolicy)
    cache_capacity: Optional[int] = None

    def make_cache(self) -> AdhesionCache:
        """A fresh adhesion cache honouring the plan's capacity bound."""
        if self.cache_capacity is None:
            return AdhesionCache()
        return AdhesionCache(capacity=self.cache_capacity, eviction="lru")

    def describe(self) -> str:
        """A human-readable plan summary."""
        order = ", ".join(variable.name for variable in self.variable_order)
        lines = [
            f"query: {self.query.name}",
            f"variable order: {order}",
            f"decomposition ({self.decomposition.num_nodes} bags, "
            f"max adhesion {self.decomposition.max_adhesion_size}):",
            self.decomposition.describe(),
        ]
        if self.cache_capacity is not None:
            lines.append(f"cache capacity: {self.cache_capacity}")
        return "\n".join(lines)


class Planner:
    """Chooses decompositions/orders for a database (Section 4.3's selection step).

    The expensive part of planning — enumerating candidate tree
    decompositions and scoring their orders with the cost model — is
    memoised in the database's plan cache under the query's name-erased
    signature (:func:`repro.storage.views.query_signature`).  A signature
    hit for a *renamed* variant of a cached query (``E(a,b), E(b,c)`` after
    ``E(x,y), E(y,z)``) translates the cached decomposition and order
    positionally instead of re-planning.  Explicit caller-provided
    decompositions bypass the cache entirely.
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def _select(self, query: ConjunctiveQuery) -> Tuple[TreeDecomposition, Tuple[Variable, ...]]:
        """The memoised decomposition/order choice for ``query``."""
        key = ("decomposition", query_signature(query))

        def build() -> Tuple[Tuple[Variable, ...], TreeDecomposition, Tuple[Variable, ...]]:
            choice = select_decomposition(query, self.database)
            return (query.variables, choice.decomposition, choice.order)

        cached_variables, decomposition, order = self.database.cached_plan(
            key, query.relation_names, build
        )
        if cached_variables != query.variables:
            mapping = dict(zip(cached_variables, query.variables))
            decomposition = decomposition.rename(mapping)
            order = tuple(mapping[variable] for variable in order)
        return decomposition, order

    def plan(
        self,
        query: ConjunctiveQuery,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
    ) -> ExecutionPlan:
        """Build an execution plan, reusing caller-provided pieces when given."""
        if decomposition is None:
            decomposition, order = self._select(query)
            if variable_order is not None:
                order = tuple(variable_order)
        else:
            order = (
                tuple(variable_order)
                if variable_order is not None
                else strongly_compatible_order(decomposition.contract_ownerless_bags())
            )
        return ExecutionPlan(
            query=query,
            decomposition=decomposition,
            variable_order=order,
            policy=policy if policy is not None else AlwaysCachePolicy(),
            cache_capacity=cache_capacity,
        )
