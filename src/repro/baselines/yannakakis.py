"""YTD — Yannakakis's acyclic-join algorithm over a tree decomposition.

This is the paper's main "traditional" competitor (Section 5.1): every bag of
the decomposition is materialised with a worst-case-optimal join
(:class:`~repro.core.lftj.LeapfrogTrieJoin` over the database's shared
tries, so bag joins are counted in trie accesses like LFTJ and CLFTJ), the
bag relations are then fully reduced with semi-joins along the tree, and
finally either

* counted with a weighted message-passing pass (for count queries, matching
  the paper's note that only the relevant adhesion aggregates are kept), or
* joined top-down to produce the materialised result (for evaluation).

Unlike CLFTJ, YTD always materialises every bag's intermediate result —
including assignments that can never extend to a full result — which is
exactly the memory-traffic weakness the paper attributes to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database


class YannakakisTreeJoin:
    """Yannakakis over a TD with per-bag worst-case-optimal joins."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: TreeDecomposition,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        decomposition.validate(query)
        self.query = query
        self.database = database
        self.decomposition = decomposition.remove_redundant_bags()
        self.counter = counter if counter is not None else OperationCounter()
        self._bag_atoms: Dict[int, List[Atom]] = self._assign_atoms()
        self._bag_tuples: Dict[int, List[Dict[Variable, object]]] = {}
        #: Cells of the bag rows decoded from the tries' codes, last run.
        self._decodes = 0

    # --------------------------------------------------------- bag subqueries
    def _assign_atoms(self) -> Dict[int, List[Atom]]:
        """Pick, per bag, the atoms that define its subquery.

        Every atom is assigned to one covering bag; bags whose variables are
        not fully covered by their assigned atoms additionally borrow
        intersecting atoms (their extra variables are projected away when the
        bag relation is materialised).
        """
        decomposition = self.decomposition
        assignments: Dict[int, List[Atom]] = {node: [] for node in decomposition.preorder()}
        for atom in self.query.atoms:
            atom_vars = atom.variable_set()
            covering = [
                node for node in decomposition.preorder()
                if atom_vars <= decomposition.bag(node)
            ]
            if not covering:
                raise ValueError(f"no bag of the decomposition covers atom {atom}")
            assignments[covering[0]].append(atom)
        for node in decomposition.preorder():
            bag = decomposition.bag(node)
            covered: FrozenSet[Variable] = frozenset()
            for atom in assignments[node]:
                covered |= atom.variable_set()
            missing = bag - covered
            if not missing:
                continue
            for atom in self.query.atoms:
                if atom in assignments[node]:
                    continue
                overlap = atom.variable_set() & missing
                if overlap:
                    assignments[node].append(atom)
                    missing -= overlap
                if not missing:
                    break
        return assignments

    def _materialize_bag(self, node: int) -> List[Dict[Variable, object]]:
        """Compute the bag relation with LFTJ and project onto the bag."""
        bag = self.decomposition.bag(node)
        atoms = self._bag_atoms[node]
        subquery = ConjunctiveQuery(atoms, name=f"bag_{node}")
        join = LeapfrogTrieJoin(subquery, self.database, counter=self.counter)
        seen = set()
        rows: List[Dict[Variable, object]] = []
        order = join.variable_order
        decoded = 0
        for full_row in join.evaluate():
            decoded += 1
            assignment = dict(zip(order, full_row))
            projected = tuple(
                (variable, assignment[variable])
                for variable in sorted(bag, key=lambda v: v.name)
            )
            if projected in seen:
                continue
            seen.add(projected)
            rows.append(dict(projected))
        self.counter.record_materialized(len(rows))
        self._decodes += decoded * len(order)
        return rows

    def _materialize_all_bags(self) -> None:
        self._decodes = 0
        self._bag_tuples = {
            node: self._materialize_bag(node) for node in self.decomposition.preorder()
        }

    # ------------------------------------------------------------- semi-joins
    @staticmethod
    def _adhesion_value(row: Dict[Variable, object], adhesion: Sequence[Variable]) -> Tuple[object, ...]:
        return tuple(row[variable] for variable in adhesion)

    def _semijoin_reduce(self) -> None:
        """The classic full reducer: child->parent then parent->child passes."""
        decomposition = self.decomposition
        order = list(decomposition.preorder())
        # Bottom-up: keep only parent rows that join with every child.
        for node in reversed(order):
            for child in decomposition.children(node):
                adhesion = sorted(decomposition.adhesion(child), key=lambda v: v.name)
                child_keys = {
                    self._adhesion_value(row, adhesion) for row in self._bag_tuples[child]
                }
                kept = []
                for row in self._bag_tuples[node]:
                    self.counter.record_hash_probe()
                    if self._adhesion_value(row, adhesion) in child_keys:
                        kept.append(row)
                self._bag_tuples[node] = kept
        # Top-down: keep only child rows that join with their (reduced) parent.
        for node in order:
            for child in decomposition.children(node):
                adhesion = sorted(decomposition.adhesion(child), key=lambda v: v.name)
                parent_keys = {
                    self._adhesion_value(row, adhesion) for row in self._bag_tuples[node]
                }
                kept = []
                for row in self._bag_tuples[child]:
                    self.counter.record_hash_probe()
                    if self._adhesion_value(row, adhesion) in parent_keys:
                        kept.append(row)
                self._bag_tuples[child] = kept

    # ------------------------------------------------------------------ count
    def count(self) -> int:
        """Return ``|q(D)|`` via weighted message passing over the join tree."""
        self._materialize_all_bags()
        self._semijoin_reduce()
        decomposition = self.decomposition
        messages: Dict[int, Dict[Tuple[object, ...], int]] = {}

        for node in reversed(list(decomposition.preorder())):
            children = decomposition.children(node)
            adhesion = sorted(decomposition.adhesion(node), key=lambda v: v.name)
            grouped: Dict[Tuple[object, ...], int] = {}
            for row in self._bag_tuples[node]:
                weight = 1
                for child in children:
                    child_adhesion = sorted(
                        decomposition.adhesion(child), key=lambda v: v.name
                    )
                    key = self._adhesion_value(row, child_adhesion)
                    self.counter.record_hash_probe()
                    weight *= messages[child].get(key, 0)
                    if weight == 0:
                        break
                if weight == 0:
                    continue
                key = self._adhesion_value(row, adhesion)
                grouped[key] = grouped.get(key, 0) + weight
            messages[node] = grouped
            self.counter.record_materialized(len(grouped))

        root_message = messages[decomposition.root]
        total = sum(root_message.values())
        self.counter.record_result(total)
        return total

    # ------------------------------------------------------------- evaluation
    def evaluate(self) -> Iterator[Dict[Variable, object]]:
        """Yield every result assignment (variable -> value) via top-down joins."""
        self._materialize_all_bags()
        self._semijoin_reduce()
        decomposition = self.decomposition

        partials: List[Dict[Variable, object]] = [dict(row) for row in self._bag_tuples[decomposition.root]]
        self.counter.record_materialized(len(partials))

        for node in decomposition.preorder():
            if node == decomposition.root:
                continue
            adhesion = sorted(decomposition.adhesion(node), key=lambda v: v.name)
            index: Dict[Tuple[object, ...], List[Dict[Variable, object]]] = {}
            for row in self._bag_tuples[node]:
                index.setdefault(self._adhesion_value(row, adhesion), []).append(row)
            extended: List[Dict[Variable, object]] = []
            for partial in partials:
                key = tuple(partial[variable] for variable in adhesion)
                self.counter.record_hash_probe()
                for row in index.get(key, []):
                    merged = dict(partial)
                    merged.update(row)
                    extended.append(merged)
            partials = extended
            self.counter.record_materialized(len(partials))

        for assignment in partials:
            self.counter.record_result(1)
            yield assignment

    def evaluate_tuples(self, variable_order: Optional[Sequence[Variable]] = None) -> List[Tuple[object, ...]]:
        """Materialise the results as tuples following ``variable_order``."""
        order = tuple(variable_order) if variable_order is not None else tuple(self.query.variables)
        return [tuple(row[variable] for variable in order) for row in self.evaluate()]

    # --------------------------------------------------------------- reports
    def bag_sizes(self) -> Dict[int, int]:
        """Cardinalities of the materialised bag relations (after the last run)."""
        return {node: len(rows) for node, rows in self._bag_tuples.items()}

    def execution_metadata(self) -> Dict[str, object]:
        """Executor-protocol hook: bag materialisation facts after a run."""
        return {
            "num_bags": self.decomposition.num_nodes,
            "materialized_bag_tuples": sum(len(rows) for rows in self._bag_tuples.values()),
            "decodes": self._decodes,
        }


def ytd_count(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`YannakakisTreeJoin.count`."""
    return YannakakisTreeJoin(query, database, decomposition, counter).count()
