"""Execution results: the answer plus everything measured while computing it.

This module is also the **decode boundary** of the encoded execution path:
joins over dictionary-encoded indexes produce rows of int codes, which an
:class:`ExecutionResult` holds as-is and only translates when they are read:
to values — all of them, in one batch, the first time
:attr:`ExecutionResult.rows` is read, or just a prefix through
:meth:`ExecutionResult.head` — or, for a response, straight to JSON text
through :meth:`ExecutionResult.page`, which writes each code's fragment from
the dictionary's table and builds no value tuple at all.  Count-only queries
(the paper's primary measurements) therefore perform zero decode operations
end to end, and evaluation runs whose rows are never inspected pay nothing
either; ``metadata["decodes"]`` and ``metadata["decode_seconds"]`` report the
decode work done for this result so far, a written page charged as the
``head`` of the same rows.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.instrumentation import OperationCounter
from repro.query.terms import Variable
from repro.storage.dictionary import ValueDictionary


class RowPage(Sequence):
    """The first rows of a result: the JSON text a response carries, and the
    values behind it on demand.

    ``json`` is the array text ``json.dumps`` writes for the rows, written
    without building them; ``len`` needs nothing more.  Read as a sequence —
    indexed, iterated, compared with a list of tuples or another page — the
    page decodes its rows once, uncounted: the decode was charged when the
    text was written.
    """

    __slots__ = ("json", "_length", "_load", "_rows")

    def __init__(
        self, text: str, length: int, load: Callable[[], List[Tuple[object, ...]]]
    ) -> None:
        self.json = text
        self._length = length
        self._load = load
        self._rows: Optional[List[Tuple[object, ...]]] = None

    def _values(self) -> List[Tuple[object, ...]]:
        if self._rows is None:
            self._rows = self._load()
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._values()[index]

    def __iter__(self):
        return iter(self._values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowPage):
            other = other._values()
        return self._values() == other

    def __repr__(self) -> str:
        return repr(self._values())


class ExecutionResult:
    """The outcome of one query execution.

    ``count`` is always populated; ``rows`` only for evaluation runs (and,
    on the encoded path, decoded lazily on first access).  ``counter``
    carries the abstract operation counts (memory accesses, cache hits, ...)
    and ``elapsed_seconds`` the wall-clock time.
    """

    def __init__(
        self,
        algorithm: str,
        query_name: str,
        count: int,
        elapsed_seconds: float,
        counter: OperationCounter,
        variable_order: Tuple[Variable, ...] = (),
        rows: Optional[List[Tuple[object, ...]]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.query_name = query_name
        self.count = count
        self.elapsed_seconds = elapsed_seconds
        self.counter = counter
        self.variable_order = variable_order
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self._rows = rows
        self._coded_rows: Optional[List[Tuple[int, ...]]] = None
        self._dictionary: Optional[ValueDictionary] = None

    # ------------------------------------------------------------------ rows
    @property
    def rows(self) -> Optional[List[Tuple[object, ...]]]:
        """The materialised result rows (``None`` for count-only runs).

        On the encoded path the rows are stored as code tuples and decoded
        here, once, on first access, in one batch
        (:meth:`ValueDictionary.decode_rows`); the work is added to
        ``metadata["decodes"]`` / ``["decode_seconds"]`` and the
        dictionary's global counter.
        """
        if self._rows is None and self._coded_rows is not None:
            self._rows = self._decode(self._coded_rows)
            self._coded_rows = None
        return self._rows

    def head(self, n: int) -> Optional[List[Tuple[object, ...]]]:
        """The first ``n`` rows, decoding only those (``None`` for count-only runs).

        What a caller that shows or returns a prefix should read instead of
        ``rows[:n]``: a 13 000-row result asked for 5 rows pays for 5.
        Nothing is kept — a second call decodes again and :attr:`rows` still
        decodes the whole result, each adding to ``metadata["decodes"]``.
        """
        if self._rows is None and self._coded_rows is not None:
            return self._decode(self._coded_rows[:n])
        return None if self._rows is None else self._rows[:n]

    def page(self, n: int) -> Optional[RowPage]:
        """The first ``n`` rows as JSON text (``None`` for count-only runs).

        What a response carries instead of ``head(n)``: the same rows,
        charged the same — to ``metadata["decodes"]`` / ``["decode_seconds"]``
        and the dictionary's counter for code rows, nothing for rows held as
        values — but written by :meth:`ValueDictionary.json_rows` from the
        codes, without a value tuple or a ``json.dumps`` pass over the rows.
        Rows held as values were never coded, so there is no decode to
        spare: they are written by ``json.dumps``.
        """
        if self._rows is None and self._coded_rows is not None:
            codes = self._coded_rows[:n]
            text = self._decode(codes, as_json=True)
            decode = self._dictionary.decode_rows_uncounted
            return RowPage(text, len(codes), lambda: decode(codes))
        if self._rows is None:
            return None
        rows = self._rows[:n]
        return RowPage(json.dumps(rows), len(rows), lambda: rows)

    def _decode(self, coded_rows: List[Tuple[int, ...]], as_json: bool = False):
        """Cross the decode boundary, to values or to JSON text, charging the
        cells crossed to this result (not the dictionary's counter, which
        other threads' decodes move too)."""
        dictionary, metadata = self._dictionary, self.metadata
        started = time.perf_counter()
        if as_json:
            crossed = dictionary.json_rows(coded_rows)
        else:
            crossed = dictionary.decode_rows(coded_rows)
        metadata["decode_seconds"] = (
            metadata.get("decode_seconds", 0.0) + time.perf_counter() - started
        )
        metadata["decodes"] = metadata.get("decodes", 0) + sum(map(len, coded_rows))
        return crossed

    @rows.setter
    def rows(self, value: Optional[List[Tuple[object, ...]]]) -> None:
        self._rows = value

    def set_coded_rows(
        self, rows: List[Tuple[int, ...]], dictionary: ValueDictionary
    ) -> None:
        """Attach code-space rows to be decoded lazily on first access."""
        self._coded_rows = rows
        self._dictionary = dictionary
        self._rows = None

    # ------------------------------------------------------------ properties
    @property
    def memory_accesses(self) -> int:
        """Abstract memory accesses recorded during the execution."""
        return self.counter.memory_accesses

    @property
    def cache_hit_rate(self) -> float:
        """Adhesion-cache hit rate (0.0 for algorithms without a cache)."""
        return self.counter.cache_hit_rate

    def as_record(self) -> Dict[str, object]:
        """Flatten into a dictionary suitable for tabular reporting."""
        record: Dict[str, object] = {
            "algorithm": self.algorithm,
            "query": self.query_name,
            "count": self.count,
            "elapsed_seconds": self.elapsed_seconds,
        }
        record.update(self.counter.as_dict())
        record.update(self.metadata)
        return record

    def speedup_over(self, other: "ExecutionResult") -> float:
        """Wall-clock speedup of this execution relative to ``other``."""
        if self.elapsed_seconds == 0:
            return float("inf")
        return other.elapsed_seconds / self.elapsed_seconds

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(algorithm={self.algorithm!r}, "
            f"query={self.query_name!r}, count={self.count}, "
            f"elapsed_seconds={self.elapsed_seconds})"
        )
