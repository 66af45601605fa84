"""Aggregate evaluation over (cached) trie joins via commutative semirings.

The paper's concluding remarks list "extension to general aggregate
operators" (after Joglekar et al.'s AJAR and Khamis et al.'s FAQ) as future
work.  This module implements that extension for the class of aggregates
expressible over a commutative semiring:

* the **counting** semiring computes ``CachedTJCount``'s count (the
  operations it records are its own: it walks every depth with the
  per-key leapfrog and records one result per leaf, not per factor);
* the **sum-product** semiring computes ``SUM(w_1 * w_2 * ...)`` of per-tuple
  weights (e.g. edge weights);
* the **min/max (tropical) semirings** compute the minimum/maximum weight of
  any result (e.g. the lightest 5-cycle);
* the **boolean** semiring decides emptiness.

The algorithm is the cached trie join of Figure 2 with ``+`` replaced by the
semiring's addition and the product of children's intermediate results by
the semiring's multiplication; the cache stores semiring values per adhesion
assignment, so all of CLFTJ's caching machinery (policies, bounded caches)
carries over unchanged.
"""

from __future__ import annotations

from typing import Callable, Generic, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.leapfrog import LeapfrogJoin
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.views import atom_variables_in_order

Value = TypeVar("Value")


class Semiring(Generic[Value]):
    """A commutative semiring ``(zero, one, add, multiply)``."""

    name: str = "semiring"

    @property
    def zero(self) -> Value:
        """The additive identity (value of an empty aggregate)."""
        raise NotImplementedError

    @property
    def one(self) -> Value:
        """The multiplicative identity (weight of an empty product)."""
        raise NotImplementedError

    def add(self, left: Value, right: Value) -> Value:
        """Combine two alternative contributions."""
        raise NotImplementedError

    def multiply(self, left: Value, right: Value) -> Value:
        """Combine two independent factors."""
        raise NotImplementedError

    def is_absorbing(self, value: Value) -> bool:
        """True when ``value`` annihilates products (enables early exit)."""
        return False


class CountingSemiring(Semiring[int]):
    """Natural numbers with + and *: plain result counting."""

    name = "count"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, left: int, right: int) -> int:
        return left + right

    def multiply(self, left: int, right: int) -> int:
        return left * right

    def is_absorbing(self, value: int) -> bool:
        return value == 0


class SumProductSemiring(Semiring[float]):
    """Reals with + and *: SUM over results of the product of tuple weights."""

    name = "sum-product"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, left: float, right: float) -> float:
        return left + right

    def multiply(self, left: float, right: float) -> float:
        return left * right

    def is_absorbing(self, value: float) -> bool:
        return value == 0.0


class MinSemiring(Semiring[float]):
    """The (min, +) tropical semiring: minimum total weight over all results."""

    name = "min-plus"

    @property
    def zero(self) -> float:
        return float("inf")

    @property
    def one(self) -> float:
        return 0.0

    def add(self, left: float, right: float) -> float:
        return min(left, right)

    def multiply(self, left: float, right: float) -> float:
        return left + right


class MaxSemiring(Semiring[float]):
    """The (max, +) semiring: maximum total weight over all results."""

    name = "max-plus"

    @property
    def zero(self) -> float:
        return float("-inf")

    @property
    def one(self) -> float:
        return 0.0

    def add(self, left: float, right: float) -> float:
        return max(left, right)

    def multiply(self, left: float, right: float) -> float:
        return left + right


class BooleanSemiring(Semiring[bool]):
    """Booleans with OR and AND: non-emptiness of the result."""

    name = "boolean"

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def add(self, left: bool, right: bool) -> bool:
        return left or right

    def multiply(self, left: bool, right: bool) -> bool:
        return left and right

    def is_absorbing(self, value: bool) -> bool:
        return value is False


#: Weight of one atom match: receives (atom, matched values in the atom's
#: first-occurrence variable order) and returns a semiring value.
WeightFunction = Callable[[Atom, Tuple[object, ...]], object]


def uniform_weights(_atom: Atom, _values: Tuple[object, ...]) -> object:
    """The default weight function: every matched atom contributes ``one``.

    With the counting semiring :class:`CachedAggregateTrieJoin` then equals
    ``CachedTJCount``'s count; its operation counts are its own.
    """
    return None  # interpreted as the semiring's multiplicative identity


class CachedAggregateTrieJoin(CachedLeapfrogTrieJoin):
    """CLFTJ generalised from counting to an arbitrary commutative semiring.

    The per-variable contribution is the product, over the atoms for which
    the variable is the *last* bound variable, of the weight function applied
    to the atom's matched values.  With uniform weights and the counting
    semiring, the result equals ``|q(D)|``.

    Caching requires distributivity, which every semiring provides: the
    aggregate of a subtree given its adhesion assignment is a semiring value
    that can be multiplied into any outer context — so the cache stores one
    semiring value per ``(node, adhesion assignment)``, exactly as in
    Figure 2.  The plan geometry (validation, contraction, depth tables) and
    the per-execution cache/policy binding are
    :class:`~repro.core.clftj.CachedLeapfrogTrieJoin`'s; only the semiring
    recursion and the weight tables live here.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: TreeDecomposition,
        semiring: Semiring,
        weight: WeightFunction = uniform_weights,
        variable_order: Optional[Sequence[Variable]] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        super().__init__(
            query, database, decomposition, variable_order, policy, cache, counter
        )
        self.semiring = semiring
        self.weight = weight
        # Weight functions receive *values* (they look up user-facing weight
        # tables) while the assignment holds codes, so matched values are
        # decoded at this boundary.  Uniform weights never look at the
        # values, keeping plain counting zero-decode.
        self._decode_weight_values = weight is not uniform_weights

        # For weighting: per atom, the depth at which all its variables are
        # bound (its last variable in the global order) and the depths of its
        # variables in the atom's first-occurrence order — the order in which
        # the weight function receives the matched values.
        depth_of = self._depth_of
        self._atoms_completed_at: List[List[int]] = [[] for _ in self.variable_order]
        self._atom_value_depths: List[Tuple[int, ...]] = []
        for atom_index, atom in enumerate(query.atoms):
            first_occurrence_vars = atom_variables_in_order(atom)
            depths = tuple(depth_of[variable] for variable in first_occurrence_vars)
            self._atom_value_depths.append(depths)
            self._atoms_completed_at[max(depths)].append(atom_index)

        # Accumulated weight of the atoms completed at the owner's own depths
        # along the current path (needed so cached subtree aggregates include
        # the weights of atoms completed while binding the node's own vars).
        self._own_weight: List[object] = []

    # ------------------------------------------------------------------ run
    def aggregate(self) -> object:
        """Evaluate the aggregate (the semiring-generalised CachedTJCount)."""
        # One cache never mixes aggregates of two semirings, nor an aggregate
        # with CLFTJ's own count / evaluate entries.
        self.cache.bind_mode(f"aggregate:{self.semiring.name}")
        self._prepare()
        self._total = self.semiring.zero
        self._intrmd = {node: self.semiring.zero for node in self.decomposition.preorder()}
        self._own_weight = [self.semiring.one] * self.num_variables
        self._recurse(0, self.semiring.one)
        return self._total

    def _depth_weight(self, depth: int) -> object:
        """Product of weights of the atoms fully bound at ``depth``."""
        value = self.semiring.one
        for atom_index in self._atoms_completed_at[depth]:
            values = tuple(
                self._assignment[d] for d in self._atom_value_depths[atom_index]
            )
            if self._decode_weight_values:
                values = self.database.dictionary.decode_row(values)
            weight = self.weight(self.query.atoms[atom_index], values)
            if weight is None:
                continue
            value = self.semiring.multiply(value, weight)
        return value

    def _recurse(self, depth: int, factor: object) -> None:
        self.counter.record_recursive_call()
        if depth == self.num_variables:
            self._total = self.semiring.add(self._total, factor)
            self.counter.record_result(1)
            return

        node = self._owner_at_depth[depth]
        entering = depth == 0 or self._owner_at_depth[depth - 1] != node
        consult_cache = entering and depth > 0
        if entering:
            self._intrmd[node] = self.semiring.zero
        adhesion_key: Tuple[object, ...] = ()
        if consult_cache:
            adhesion_key = self._adhesion_key(node)
            cached = self.cache.get(node, adhesion_key)
            if cached is not None:
                self._recurse(
                    self._subtree_last_depth[node] + 1,
                    self.semiring.multiply(factor, cached),
                )
                self._intrmd[node] = cached
                return

        participants = self._participants(depth)
        for iterator in participants:
            iterator.open()
        join = LeapfrogJoin(participants)
        is_last_own = depth == self._last_own_depth[node]
        children = self.decomposition.children(node)
        is_first_own = depth == self._own_depths[node][0]
        while not join.at_end:
            self._assignment[depth] = join.key()
            step_weight = self._depth_weight(depth)
            if is_first_own:
                self._own_weight[depth] = step_weight
            else:
                self._own_weight[depth] = self.semiring.multiply(
                    self._own_weight[depth - 1], step_weight
                )
            self._recurse(depth + 1, self.semiring.multiply(factor, step_weight))
            if is_last_own:
                product = self._own_weight[depth]
                for child in children:
                    product = self.semiring.multiply(product, self._intrmd[child])
                    if self.semiring.is_absorbing(product):
                        break
                self._intrmd[node] = self.semiring.add(self._intrmd[node], product)
            join.next()
        self._assignment[depth] = None
        for iterator in participants:
            iterator.up()

        if consult_cache:
            intermediate = self._intrmd[node]
            if self.policy.should_cache(
                node, self._adhesion_vars[node], adhesion_key, intermediate
            ):
                if self.cache.put(node, adhesion_key, intermediate):
                    self.counter.record_materialized(1)


def relation_weight_function(
    database: Database,
    weights: Mapping[str, Mapping[Tuple[object, ...], float]],
    default: float = 1.0,
) -> WeightFunction:
    """Build a weight function from per-relation tuple-weight tables.

    ``weights`` maps relation names to ``{tuple: weight}`` dictionaries keyed
    by the relation's full tuples; atoms over relations without a table get
    ``default``.
    """

    def weigh(atom: Atom, values: Tuple[object, ...]) -> float:
        table = weights.get(atom.relation)
        if table is None:
            return default
        # Reconstruct the base-relation tuple from the atom's variable values
        # (constants are filled from the atom itself).
        by_variable = {}
        position = 0
        for term in atom.terms:
            if isinstance(term, Variable) and term not in by_variable:
                by_variable[term] = values[position]
                position += 1
        row = tuple(
            term.value if not isinstance(term, Variable) else by_variable[term]
            for term in atom.terms
        )
        return table.get(row, default)

    return weigh


def aggregate_count(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition,
    **options,
) -> int:
    """Counting via the semiring machinery (the count must equal ``CachedTJCount``'s)."""
    joiner = CachedAggregateTrieJoin(
        query, database, decomposition, CountingSemiring(), **options
    )
    return joiner.aggregate()


def aggregate_exists(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition,
    **options,
) -> bool:
    """Boolean (emptiness) aggregate."""
    joiner = CachedAggregateTrieJoin(
        query, database, decomposition, BooleanSemiring(), **options
    )
    return bool(joiner.aggregate())
