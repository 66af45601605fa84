"""Section 4.3's pricing: decomposition scoring and the order cost walk.

Two cost components are combined when selecting a decomposition for CLFTJ:

* :func:`td_heuristic_score` -- the structural heuristics the paper lists:
  small adhesions are paramount (they are the cache dimensions), more bags
  are better (more caches to exploit), and shallower trees are better.
* :class:`ChuCostModel` -- an adaptation of the cost model of Chu, Balazinska
  and Suciu (SIGMOD 2015) for estimating the cost of a variable order: its
  one :meth:`~ChuCostModel.walk` accumulates the expected number of
  iterator operations depth by depth from the distinct counts of the
  database's one statistics catalog (``database.statistics``) under an
  independence assumption.  Given a decomposition, the walk caps the live
  estimate at each cached node's distinct adhesion keys.

:func:`select_decomposition` enumerates candidate TDs, scores each together
with its strongly compatible order, and returns the best pair — this is the
planner used by :class:`repro.engine.QueryEngine`.  The algorithm selector
(:mod:`repro.engine.selector`) prices lftj, clftj and ytd as arithmetic
around the same walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.decomposition.generic import enumerate_tree_decompositions
from repro.decomposition.ordering import strongly_compatible_order
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database

#: How many candidate decompositions :func:`select_decomposition` scores.
MAX_CANDIDATES = 16


def td_heuristic_score(decomposition: TreeDecomposition) -> Tuple[int, int, int]:
    """Structural score of a TD — smaller is better.

    The components are, in priority order: maximum adhesion size, negated
    number of bags (more bags preferred) and tree depth.  A single-bag
    decomposition admits no caching at all, so it is ranked behind any
    genuine decomposition by charging it an adhesion size larger than the
    variable count.
    """
    if decomposition.num_nodes == 1:
        adhesion_component = len(decomposition.all_variables()) + 1
    else:
        adhesion_component = decomposition.max_adhesion_size
    return (
        adhesion_component,
        -decomposition.num_nodes,
        decomposition.depth,
    )


class ChuCostModel:
    """Estimate the cost of running a trie join with a given variable order.

    :meth:`walk` is the one estimate: it walks the variable order and
    maintains an estimate of the number of partial assignments alive at
    each depth.  For every depth it adds ``partial_assignments * sum(log2
    (|R| + 1) for atoms containing the variable)`` — the expected seek work
    — and multiplies the running estimate by the expected number of
    matching values, computed from per-attribute distinct counts under
    independence (the spirit of Chu et al.'s tributary-join cost model,
    adapted to our statistics).  Statistics come from the database's one
    catalog (``database.statistics``).
    """

    def __init__(self, database: Database, query: ConjunctiveQuery) -> None:
        self.database = database
        self.query = query
        catalog = database.statistics
        # Per atom: its cardinality (>= 1) and, per variable, the distinct
        # count (>= 1) of the attribute backing its first occurrence.
        self._atoms: List[Tuple[int, Dict[Variable, int]]] = []
        for atom in query.atoms:
            relation = database.relation(atom.relation)
            stats = catalog.relation(atom.relation)
            distinct: Dict[Variable, int] = {}
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term not in distinct:
                    distinct[term] = max(stats.distinct(relation.attributes[position]), 1)
            self._atoms.append((max(len(relation), 1), distinct))

    def estimate_matches(
        self, atom_index: int, variable: Variable, bound: Iterable[Variable]
    ) -> float:
        """Expected number of values of ``variable`` offered by one atom.

        If none of the atom's variables are bound yet, the estimate is the
        number of distinct values of the attribute; otherwise the atom's
        cardinality divided by the product of distinct counts of the bound
        attributes (independence assumption), floored at a small constant.
        """
        cardinality, distinct = self._atoms[atom_index]
        bound_here = [v for v in bound if v in distinct]
        if not bound_here:
            return float(distinct[variable])
        denominator = 1.0
        for bound_variable in bound_here:
            denominator *= float(distinct[bound_variable])
        return max(float(cardinality) / denominator, 0.05)

    def _distinct_keys(self, variable: Variable) -> float:
        """Smallest distinct-count estimate for ``variable`` over covering atoms."""
        estimates = [distinct[variable] for _, distinct in self._atoms if variable in distinct]
        return float(min(estimates) if estimates else 1)

    def walk(
        self,
        order: Sequence[Variable],
        decomposition: Optional[TreeDecomposition] = None,
        total: float = 0.0,
    ) -> Tuple[float, float]:
        """``(total, live)``: ``total`` plus the estimated iterator work of
        ``order``, and the partial assignments alive after its last depth.

        With a ``decomposition``, entering a non-root node caps the live
        estimate at the product of its adhesion variables' distinct counts:
        an unbounded adhesion cache computes the subtree once per distinct
        key, and repeats beyond that are (cheap) cache hits.
        """
        partial = 1.0
        bound: List[Variable] = []
        owner = None
        for depth, variable in enumerate(order):
            if decomposition is not None:
                node = decomposition.owner(variable)
                if depth and node != owner:
                    keys = 1.0
                    for adhesion_variable in decomposition.adhesion(node):
                        keys *= self._distinct_keys(adhesion_variable)
                    partial = min(partial, keys)
                owner = node
            covering = [
                index for index, (_, distinct) in enumerate(self._atoms) if variable in distinct
            ]
            if not covering:
                continue
            total += partial * sum(math.log2(self._atoms[index][0] + 1) for index in covering)
            matches = min(self.estimate_matches(index, variable, bound) for index in covering)
            partial *= max(matches, 0.05)
            bound.append(variable)
        return total, partial

    def order_cost(self, order: Sequence[Variable]) -> float:
        """The estimated total iterator work for ``order``."""
        return self.walk(order)[0]


@dataclass(frozen=True)
class DecompositionChoice:
    """A scored (decomposition, order) candidate."""

    decomposition: TreeDecomposition
    order: Tuple[Variable, ...]
    structural_score: Tuple[int, int, int]
    order_cost: float

    @property
    def sort_key(self) -> Tuple:
        return (*self.structural_score, self.order_cost)


def select_decomposition(
    query: ConjunctiveQuery,
    database: Database,
    max_adhesion_size: int = 2,
) -> DecompositionChoice:
    """Enumerate candidate TDs, score them, and return the best choice.

    The score is lexicographic: structural heuristics first (small adhesions,
    many bags, shallow), then the Chu-style order cost of the strongly
    compatible order derived from the TD.
    """
    model = ChuCostModel(database, query)
    candidates: List[DecompositionChoice] = []
    for decomposition in enumerate_tree_decompositions(
        query,
        max_adhesion_size=max_adhesion_size,
        max_decompositions=MAX_CANDIDATES,
    ):
        order = strongly_compatible_order(decomposition)
        candidates.append(
            DecompositionChoice(
                decomposition=decomposition,
                order=order,
                structural_score=td_heuristic_score(decomposition),
                order_cost=model.order_cost(order),
            )
        )
    if not candidates:
        decomposition = TreeDecomposition.singleton(query.variables)
        order = strongly_compatible_order(decomposition)
        return DecompositionChoice(
            decomposition=decomposition,
            order=order,
            structural_score=td_heuristic_score(decomposition),
            order_cost=model.order_cost(order),
        )
    return min(candidates, key=lambda choice: choice.sort_key)
