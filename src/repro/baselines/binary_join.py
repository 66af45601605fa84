"""A pairwise hash-join engine with a greedy cost-based join-order optimiser.

This is the stand-in for the PostgreSQL baseline of Section 5.3.5: the query
is evaluated as a sequence of binary hash joins over a left-deep plan chosen
greedily by estimated intermediate-result size (a light-weight Selinger-style
optimiser).  Intermediate results are fully materialised — exactly the
behaviour whose memory traffic the paper contrasts with LFTJ/CLFTJ — and the
materialised tuple counts are reported through the shared operation counter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.instrumentation import OperationCounter
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.views import atom_variables_in_order, materialize_atom


class _Intermediate:
    """A materialised intermediate result: a schema plus a list of rows."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables: Tuple[Variable, ...], rows: List[Tuple[object, ...]]) -> None:
        self.variables = variables
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


class PairwiseHashJoin:
    """Left-deep pairwise hash joins with greedy join ordering."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        self.query = query
        self.database = database
        self.counter = counter if counter is not None else OperationCounter()

    # ----------------------------------------------------------------- planning
    def _estimated_cardinality(self, atom: Atom) -> int:
        return len(self.database.relation(atom.relation))

    def _join_selectivity(self, left_vars: Set[Variable], atom: Atom) -> float:
        """Crude selectivity: 1 / max distinct count per shared variable."""
        shared = left_vars & atom.variable_set()
        if not shared:
            return 1.0
        relation = self.database.relation(atom.relation)
        stats = self.database.statistics.relation(atom.relation)
        selectivity = 1.0
        for variable in shared:
            for position, term in enumerate(atom.terms):
                if term == variable:
                    attribute = relation.attributes[position]
                    selectivity *= 1.0 / max(stats.distinct(attribute), 1)
                    break
        return selectivity

    def plan(self) -> List[int]:
        """A greedy left-deep join order over atom indices.

        The first atom is the smallest relation; each subsequent step picks
        the atom minimising the estimated size of the next intermediate
        (preferring atoms that share variables with the prefix).
        """
        remaining = set(range(len(self.query.atoms)))
        if not remaining:
            return []
        first = min(remaining, key=lambda i: self._estimated_cardinality(self.query.atoms[i]))
        order = [first]
        remaining.remove(first)
        bound_vars: Set[Variable] = set(self.query.atoms[first].variable_set())
        estimated = float(self._estimated_cardinality(self.query.atoms[first]))
        while remaining:
            def next_size(index: int) -> float:
                atom = self.query.atoms[index]
                selectivity = self._join_selectivity(bound_vars, atom)
                connected_bonus = 0.0 if (bound_vars & atom.variable_set()) else 1e12
                return estimated * self._estimated_cardinality(atom) * selectivity + connected_bonus

            best = min(remaining, key=next_size)
            estimated = max(next_size(best), 1.0)
            order.append(best)
            remaining.remove(best)
            bound_vars |= self.query.atoms[best].variable_set()
        return order

    # ---------------------------------------------------------------- execution
    def _atom_intermediate(self, atom: Atom) -> _Intermediate:
        view = materialize_atom(self.database, atom)
        variables = tuple(Variable(name) for name in view.attributes)
        rows = list(view.tuples)
        self.counter.record_materialized(len(rows))
        return _Intermediate(variables, rows)

    def _hash_join(self, left: _Intermediate, right: _Intermediate) -> _Intermediate:
        shared = [variable for variable in right.variables if variable in left.variables]
        new_right_vars = [variable for variable in right.variables if variable not in left.variables]
        out_variables = left.variables + tuple(new_right_vars)

        right_shared_positions = [right.variables.index(v) for v in shared]
        right_new_positions = [right.variables.index(v) for v in new_right_vars]
        left_shared_positions = [left.variables.index(v) for v in shared]

        index: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for row in right.rows:
            key = tuple(row[p] for p in right_shared_positions)
            index.setdefault(key, []).append(tuple(row[p] for p in right_new_positions))
        self.counter.record_materialized(len(right.rows))

        out_rows: List[Tuple[object, ...]] = []
        for row in left.rows:
            key = tuple(row[p] for p in left_shared_positions)
            self.counter.record_hash_probe()
            for extension in index.get(key, []):
                out_rows.append(row + extension)
        self.counter.record_materialized(len(out_rows))
        return _Intermediate(out_variables, out_rows)

    def _execute(self) -> _Intermediate:
        order = self.plan()
        if not order:
            raise ValueError("cannot execute an empty query")
        current = self._atom_intermediate(self.query.atoms[order[0]])
        for index in order[1:]:
            current = self._hash_join(current, self._atom_intermediate(self.query.atoms[index]))
        return current

    def count(self) -> int:
        """Return ``|q(D)|`` (distinct assignments over all query variables)."""
        result = self._execute()
        positions = [result.variables.index(variable) for variable in self.query.variables]
        distinct = {tuple(row[p] for p in positions) for row in result.rows}
        self.counter.record_result(len(distinct))
        return len(distinct)

    def evaluate(self) -> Iterator[Dict[Variable, object]]:
        """Yield every result assignment (variable -> value)."""
        result = self._execute()
        positions = [result.variables.index(variable) for variable in self.query.variables]
        seen: Set[Tuple[object, ...]] = set()
        for row in result.rows:
            key = tuple(row[p] for p in positions)
            if key in seen:
                continue
            seen.add(key)
            self.counter.record_result(1)
            yield dict(zip(self.query.variables, key))

    def evaluate_tuples(self, variable_order: Optional[Sequence[Variable]] = None) -> List[Tuple[object, ...]]:
        """Materialise the results as tuples following ``variable_order``."""
        order = tuple(variable_order) if variable_order is not None else tuple(self.query.variables)
        return [tuple(row[variable] for variable in order) for row in self.evaluate()]

    def execution_metadata(self) -> Dict[str, object]:
        """Executor-protocol hook: the greedy left-deep join order."""
        return {"join_order": tuple(self.plan())}


def pairwise_count(
    query: ConjunctiveQuery,
    database: Database,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`PairwiseHashJoin.count`."""
    return PairwiseHashJoin(query, database, counter).count()
