"""GenericJoin — an NPRR-style worst-case-optimal join.

GenericJoin binds one variable at a time (like LFTJ) but uses hash-based
prefix indexes instead of sorted trie iterators: at each depth the candidate
values are obtained from the atom expected to offer the fewest candidates and
probed against the other atoms containing the variable.  The paper's YTD
baseline runs GenericJoin inside every bag of the tree decomposition; we also
expose it standalone for comparison.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bisect import bisect_left, insort

from repro.core.instrumentation import OperationCounter
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.dictionary import ValueDictionary
from repro.storage.relation import Relation
from repro.storage.views import atom_column_order, shared_atom_index


class _PrefixIndex:
    """Hash index over one atom view: prefix tuple -> sorted candidate values.

    Level ``i`` maps an assignment of the first ``i`` variables (in global
    order) to the sorted list of values the ``i+1``-th variable can take —
    all in the code space of the database's ``dictionary``.  The index
    carries no counter so it can be shared between executions (the
    caller records probes); ``column_order`` gives the view columns in global
    variable order.

    Alongside each sorted candidate list the index keeps the multiplicity of
    every ``(prefix, value)`` pair, so :meth:`apply_delta` can patch the
    index in place under inserts *and* deletes: a candidate disappears only
    when the last view tuple carrying it is deleted.
    """

    def __init__(
        self,
        relation: Relation,
        column_order: Sequence[int],
        dictionary: ValueDictionary,
    ) -> None:
        self.column_order = tuple(column_order)
        self.dictionary = dictionary
        self._levels: List[Dict[Tuple[object, ...], List[object]]] = [
            {} for _ in self.column_order
        ]
        self._counts: List[Dict[Tuple[object, ...], Dict[object, int]]] = [
            {} for _ in self.column_order
        ]
        for row in relation.tuples:
            row = dictionary.encode_row(row)
            ordered = tuple(row[index] for index in self.column_order)
            for level in range(len(ordered)):
                prefix = ordered[:level]
                counts = self._counts[level].setdefault(prefix, {})
                counts[ordered[level]] = counts.get(ordered[level], 0) + 1
        for level, buckets in enumerate(self._counts):
            self._levels[level] = {
                prefix: sorted(values) for prefix, values in buckets.items()
            }

    def candidates(self, prefix: Tuple[object, ...]) -> List[object]:
        """Sorted values the next variable can take under ``prefix``."""
        return self._levels[len(prefix)].get(prefix, [])

    def contains(self, prefix: Tuple[object, ...], value: object) -> bool:
        """Membership probe: may ``prefix + (value,)`` be extended to a tuple?"""
        level = self._levels[len(prefix)].get(prefix)
        if not level:
            return False
        position = bisect_left(level, value)
        return position < len(level) and level[position] == value

    def apply_delta(
        self,
        inserted: Sequence[Sequence[object]] = (),
        deleted: Sequence[Sequence[object]] = (),
    ) -> None:
        """Patch the index in place with effective view-row deltas.

        Called by :meth:`repro.storage.database.Database.insert` / ``delete``
        through the shared index cache, mirroring
        :meth:`repro.storage.trie.LsmTrieIndex.apply_delta`; rows arrive in
        view column layout (value space) and are dictionary-encoded and
        permuted here.  Deletes naming never-seen values cannot match and
        are skipped without growing the dictionary.
        """
        dictionary = self.dictionary
        coded_deletes = []
        for row in deleted:
            coded = dictionary.try_encode_row(row)
            if coded is not None:
                coded_deletes.append(coded)
        deleted = coded_deletes
        inserted = [dictionary.encode_row(row) for row in inserted]
        for row in deleted:
            ordered = tuple(row[index] for index in self.column_order)
            for level in range(len(ordered)):
                prefix, value = ordered[:level], ordered[level]
                counts = self._counts[level].get(prefix)
                if counts is None or value not in counts:
                    continue  # tolerated stray no-op row
                counts[value] -= 1
                if counts[value] == 0:
                    del counts[value]
                    bucket = self._levels[level][prefix]
                    position = bisect_left(bucket, value)
                    if position < len(bucket) and bucket[position] == value:
                        bucket.pop(position)
                    if not bucket:
                        del self._levels[level][prefix]
                        del self._counts[level][prefix]
        for row in inserted:
            ordered = tuple(row[index] for index in self.column_order)
            for level in range(len(ordered)):
                prefix, value = ordered[:level], ordered[level]
                counts = self._counts[level].setdefault(prefix, {})
                previous = counts.get(value, 0)
                counts[value] = previous + 1
                if previous == 0:
                    bucket = self._levels[level].setdefault(prefix, [])
                    insort(bucket, value)


def atom_prefix_index(
    database: Database, atom: Atom, column_order: Sequence[int]
) -> _PrefixIndex:
    """Return the shared hash prefix index for ``atom``'s view.

    Sharing and the constants exclusion follow
    :func:`repro.storage.views.shared_atom_index` (kind ``"prefix"``),
    mirroring :func:`repro.storage.views.atom_trie` for the trie family.
    """
    return shared_atom_index(database, atom, column_order, "prefix", _PrefixIndex)


class GenericJoin:
    """Worst-case-optimal variable-at-a-time join over hash prefix indexes."""

    #: Executor-protocol marker: the join runs in dictionary-code space and
    #: ``evaluate_coded()`` yields code tuples.
    encoded = True

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[Variable]] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        self.query = query
        self.database = database
        self.counter = counter if counter is not None else OperationCounter()
        order = tuple(variable_order) if variable_order is not None else tuple(query.variables)
        if set(order) != query.variable_set() or len(order) != len(set(order)):
            raise ValueError("variable order must be a permutation of the query variables")
        self.variable_order = order
        self._depth_of = {variable: depth for depth, variable in enumerate(order)}
        self.num_variables = len(order)

        self._indexes: List[_PrefixIndex] = []
        self._atom_order: List[Tuple[Variable, ...]] = []
        for atom in query.atoms:
            ordered, column_order = atom_column_order(atom, self._depth_of)
            self._indexes.append(atom_prefix_index(database, atom, column_order))
            self._atom_order.append(ordered)

        self._atoms_at_depth: List[Tuple[int, ...]] = [
            tuple(
                index
                for index, atom_vars in enumerate(self._atom_order)
                if variable in atom_vars
            )
            for variable in order
        ]
        #: ``[lo, hi)`` bound on the top variable for the running execution.
        self._range: Tuple[object, object] = (None, None)

    # ------------------------------------------------------------- execution
    def _bound_prefix(self, atom_index: int, assignment: List[object], depth_limit: int) -> Tuple[object, ...]:
        """The values already assigned to the atom's leading variables."""
        prefix: List[object] = []
        for variable in self._atom_order[atom_index]:
            depth = self._depth_of[variable]
            if depth < depth_limit:
                prefix.append(assignment[depth])
            else:
                break
        return tuple(prefix)

    def _prepare(self, lo, hi, counter: Optional[OperationCounter]) -> List[object]:
        """Bind one execution's range and counter; return a blank assignment."""
        if counter is not None:
            self.counter = counter
        self._range = (lo, hi)
        return [None] * self.num_variables

    def count(self, lo=None, hi=None, counter=None) -> int:
        """Return ``|q(D)|``, restricted to top-variable keys in ``[lo, hi)``.

        ``counter``, when given, becomes the executor's counter from this
        execution on (the morsel-parallel executor passes a fresh one per
        morsel).
        """
        return self._count_recursive(0, self._prepare(lo, hi, counter))

    def _count_recursive(self, depth: int, assignment: List[object]) -> int:
        self.counter.record_recursive_call()
        if depth == self.num_variables:
            self.counter.record_result(1)
            return 1
        candidates, probes = self._split_atoms(depth, assignment)
        total = 0
        for value in candidates:
            if all(
                self._probe(atom_index, prefix, value)
                for atom_index, prefix in probes
            ):
                assignment[depth] = value
                total += self._count_recursive(depth + 1, assignment)
        assignment[depth] = None
        return total

    def _probe(self, atom_index: int, prefix: Tuple[object, ...], value: object) -> bool:
        """One counted membership probe against a shared prefix index."""
        self.counter.record_hash_probe()
        return self._indexes[atom_index].contains(prefix, value)

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        """Yield every result tuple in variable-order positions.

        Each row is decoded here for direct callers; the engine consumes
        :meth:`evaluate_coded` and decodes lazily at the result boundary
        instead.
        """
        return self.database.dictionary.decode_stream(self.evaluate_coded())

    def evaluate_coded(
        self, lo=None, hi=None, counter=None
    ) -> Iterator[Tuple[object, ...]]:
        """Yield result tuples in storage space (dictionary codes)."""
        yield from self._evaluate_recursive(0, self._prepare(lo, hi, counter))

    def _evaluate_recursive(self, depth: int, assignment: List[object]) -> Iterator[Tuple[object, ...]]:
        self.counter.record_recursive_call()
        if depth == self.num_variables:
            self.counter.record_result(1)
            yield tuple(assignment)
            return
        candidates, probes = self._split_atoms(depth, assignment)
        for value in candidates:
            if all(
                self._probe(atom_index, prefix, value)
                for atom_index, prefix in probes
            ):
                assignment[depth] = value
                yield from self._evaluate_recursive(depth + 1, assignment)
        assignment[depth] = None

    def execution_metadata(self) -> Dict[str, object]:
        """Executor-protocol hook: per-algorithm facts worth reporting."""
        return {"prefix_indexes": len(self._indexes)}

    def _split_atoms(
        self, depth: int, assignment: List[object]
    ) -> Tuple[List[object], List[Tuple[int, Tuple[object, ...]]]]:
        """Pick the smallest candidate list and the probes for the other atoms."""
        atom_indexes = self._atoms_at_depth[depth]
        best_candidates: Optional[List[object]] = None
        best_atom: Optional[int] = None
        prefixes: Dict[int, Tuple[object, ...]] = {}
        for atom_index in atom_indexes:
            prefix = self._bound_prefix(atom_index, assignment, depth)
            prefixes[atom_index] = prefix
            self.counter.record_hash_probe()
            candidates = self._indexes[atom_index].candidates(prefix)
            if best_candidates is None or len(candidates) < len(best_candidates):
                best_candidates = candidates
                best_atom = atom_index
        probes = [
            (atom_index, prefixes[atom_index])
            for atom_index in atom_indexes
            if atom_index != best_atom
        ]
        candidates = best_candidates or []
        if depth == 0 and self._range != (None, None):
            lo, hi = self._range
            # Candidate lists are sorted by code, so the range
            # restriction is a binary-searched slice; probed values already
            # lie in range, so the membership probes need no change.
            lo_pos = 0 if lo is None else bisect_left(candidates, lo)
            hi_pos = (
                len(candidates) if hi is None else bisect_left(candidates, hi, lo_pos)
            )
            candidates = candidates[lo_pos:hi_pos]
        return candidates, probes


def generic_join_count(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]] = None,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`GenericJoin.count`."""
    return GenericJoin(query, database, variable_order, counter).count()
