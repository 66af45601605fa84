"""Integer dictionary encoding for join processing in code space.

Every seek in the LFTJ/CLFTJ hot loop compares keys; with arbitrary Python
objects (strings, tuples) each comparison pays rich-dispatch overhead, so the
columnar trie backend is bottlenecked on per-key interpreter work rather than
memory bandwidth.  The standard systems answer is *dictionary encoding*: map
every distinct value to a dense integer code once, at index-build time, and
run the entire join over ``int`` columns.

:class:`ValueDictionary` is the per-database code table.  It is:

* **append-only** — codes are assigned in first-encounter order and never
  change, so cached indexes, adhesion-cache keys and prepared queries stay
  valid forever; delta updates encode genuinely-new values by *appending*
  entries, never re-coding existing ones;
* **shared across relations** — all indexes of one database draw codes from
  one table, so code equality means value equality across atoms.  Code
  *order* is an arbitrary but consistent total order, which is exactly what
  equi-joins need (the trie levels sort by code, not by value);
* **decode-counting** — every decode operation bumps :attr:`decodes`, which
  is how tests and benchmarks prove that count-only queries run end to end
  without a single decode (values are only materialised lazily at the result
  boundary, see :mod:`repro.engine.results`);
* **JSON-writing** — beside the values it keeps ``json.dumps(value)`` of
  each code, built lazily and never invalidated (a code never changes
  meaning), so :meth:`ValueDictionary.json_rows` writes rows of codes as
  JSON text without building a value tuple: what ``POST /evaluate`` sends.

Encoded key columns are ``array('q')``; the batched leapfrog kernels
(:func:`repro.core.leapfrog.intersect_count`) read them directly.  The
library imports no third-party package.
"""

from __future__ import annotations

import json
import threading
from functools import lru_cache
from itertools import islice
from operator import index
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Rows :meth:`ValueDictionary.decode_stream` hands to the batch kernel at a
#: time: enough to amortise the per-batch cost, small enough that a consumer
#: who stops early has paid for little it did not read.
STREAM_CHUNK = 1024


@lru_cache(maxsize=None)
def _row_kernel(width: int) -> Callable[[List[object], list], List[Tuple[object, ...]]]:
    """The batch decode loop for rows of ``width`` codes, generated once.

    ``lambda v, rows: [(v[c0], v[c1]) for c0, c1 in rows]`` for width 2: the
    unpacking target fixes the width (a row of any other length raises
    ``ValueError``) and every lookup is a plain list index.  Measured against
    a ``zip(*rows)`` column gather, ``tuple(map(getitem, row))`` and an
    object-array gather, this comprehension was the fastest at every width.
    """
    codes = [f"c{position}" for position in range(width)]
    target = ", ".join(codes) + "," if codes else "()"
    values = "".join(f"v[{code}], " for code in codes)
    return eval(f"lambda v, rows: [({values}) for {target} in rows]")


@lru_cache(maxsize=None)
def _json_kernel(width: int) -> Callable[[Sequence[str], list], List[str]]:
    """The JSON writing loop for rows of ``width`` codes, generated once.

    ``lambda f, rows: [f"{f[c0]}, {f[c1]}" for c0, c1 in rows]`` for width
    2: each row's fragments joined as ``json.dumps`` separates list items,
    brackets left to the caller's ``"], ["`` join.  The twin of
    :func:`_row_kernel`; an f-string per row beat ``", ".join`` over a
    ``zip`` of the flattened fragments by 1.7x on 5 000 rows of width 3.
    """
    codes = [f"c{position}" for position in range(width)]
    target = ", ".join(codes) + "," if codes else "()"
    fields = ", ".join(f"{{f[{code}]}}" for code in codes)
    return eval(f"lambda f, rows: [f'{fields}' for {target} in rows]")


class _Unencodable:
    """The fragment of a value ``json.dumps`` refuses.

    Formatting it raises the ``TypeError`` the refusal raised, so a page
    holding such a value fails as ``json.dumps`` of its decoded rows would,
    and a page without it is written as usual.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def __format__(self, spec: str) -> str:
        raise TypeError(self.message)


def _json_fragment(value: object):
    """``json.dumps(value)``, or an :class:`_Unencodable` that raises its error."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError) as error:
        return _Unencodable(str(error))


def _json_array(fragments: Sequence[object], rows: List[Sequence[int]], width: int) -> str:
    """The JSON array of ``rows``, each ``width`` indexes into ``fragments``.

    Byte for byte ``json.dumps`` of the rows the fragments stand for, with
    ``json.dumps``' default separators.  Raises ``ValueError`` for a row of
    another width, ``IndexError`` for an index past ``fragments`` and
    ``TypeError`` for an unencodable value.
    """
    return "[[" + "], [".join(_json_kernel(width)(fragments, rows)) + "]]"


class ValueEncodingError(TypeError):
    """A value breaks the storage layer's value contract.

    Stored values must be hashable (the dictionary keys on them) and must
    sort beside the other tuples of their relation.  The contract is checked
    where values enter — ``Relation(...)``, ``Database.insert`` /
    ``delete`` — so no index build or query ever meets such a value;
    :meth:`ValueDictionary.encode` raises it too for direct callers.
    """


class ValueDictionary:
    """An append-only bidirectional value <-> dense-int-code table.

    ``encode`` assigns the next free code to unseen values; ``decode`` maps
    codes back and counts every such operation in :attr:`decodes`.  Note
    that, like relations themselves (which deduplicate tuples through a
    ``set``), the table identifies values that compare equal across types
    (``1 == 1.0 == True`` share one code and decode to the first-seen
    representative).
    """

    __slots__ = ("_codes", "_values", "_fragments", "_grow_lock", "decodes")

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        #: ``_json_fragment(value)`` of codes ``0 .. len - 1`` (see
        #: :attr:`fragments`), grown under :attr:`_grow_lock`.
        self._fragments: List[object] = []
        self._grow_lock = threading.Lock()
        #: Number of code->value decode operations performed, ever: a
        #: best-effort total, since concurrent threads bump it without a lock
        #: and may lose an update.  The zero-decode guarantee for count-only
        #: queries is asserted on this; a result's ``metadata["decodes"]``
        #: counts its own cells instead.
        self.decodes: int = 0

    # ---------------------------------------------------------------- encode
    def encode(self, value: object) -> int:
        """The code of ``value``, appending a new entry for unseen values."""
        try:
            code = self._codes.get(value)
        except TypeError as exc:
            raise ValueEncodingError(
                f"value {value!r} of type {type(value).__name__} cannot be "
                f"dictionary-encoded (not hashable)"
            ) from exc
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def encode_row(self, row: Sequence[object]) -> Tuple[int, ...]:
        """Encode every value of one tuple (appending unseen values)."""
        encode = self.encode
        return tuple(encode(value) for value in row)

    def encode_rows(self, rows: Iterable[Sequence[object]]) -> List[Tuple[int, ...]]:
        """Encode many tuples (appending unseen values)."""
        encode_row = self.encode_row
        return [encode_row(row) for row in rows]

    def code_of(self, value: object) -> Optional[int]:
        """The existing code of ``value``, or ``None`` — never appends."""
        try:
            return self._codes.get(value)
        except TypeError:
            return None

    def try_encode_row(self, row: Sequence[object]) -> Optional[Tuple[int, ...]]:
        """Encode a tuple without appending; ``None`` if any value is unseen.

        Used for membership-style lookups (deletes, ``contains`` probes): a
        tuple containing a value the dictionary has never seen cannot be in
        any encoded index.
        """
        codes = []
        for value in row:
            code = self.code_of(value)
            if code is None:
                return None
            codes.append(code)
        return tuple(codes)

    # ---------------------------------------------------------------- decode
    def decode(self, code: int) -> object:
        """The value behind ``code`` (counted in :attr:`decodes`).

        Raises ``ValueError("unknown dictionary code ...")`` for anything
        that is not a code of this table — out of range, negative (a list
        index would wrap around to a wrong value) or not an integer.  Every
        decode method shares this contract.
        """
        return self.decode_row((code,))[0]

    def decode_row(self, row: Sequence[int]) -> Tuple[object, ...]:
        """Decode one code tuple back to values (counted per value)."""
        decoded = self._checked_row(row)
        self.decodes += len(decoded)
        return decoded

    def decode_rows(self, rows: Iterable[Sequence[int]]) -> List[Tuple[object, ...]]:
        """Decode many code tuples (counted per value): the batch kernel.

        One comprehension specialised for the rows' width does the whole
        batch, so a row costs one tuple unpack, ``width`` list indexings and
        one tuple build — no call, no generator, no counter update.  The
        codes are the engine's own (non-negative by construction) and the
        happy path checks nothing.  Whatever the kernel refuses — a code
        past the end of the table, rows of unequal width, a row that is not
        a sequence of ints — is decoded again row by row, which serves
        ragged input correctly and otherwise raises the ``ValueError`` of
        :meth:`decode` naming the first offending code; :attr:`decodes` does
        not move for a batch that fails.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            return []
        try:
            width = len(rows[0])
            decoded = _row_kernel(width)(self._values, rows)
        except (IndexError, TypeError, ValueError):
            decoded = [self._checked_row(row) for row in rows]
            self.decodes += sum(map(len, decoded))
        else:
            self.decodes += width * len(rows)
        return decoded

    def decode_stream(self, rows: Iterable[Sequence[int]]) -> Iterator[Tuple[object, ...]]:
        """Lazily decode a stream of code tuples, a chunk at a time.

        The one streaming decode: pulls up to :data:`STREAM_CHUNK` rows from
        ``rows``, runs them through :meth:`decode_rows` and yields them, so a
        consumer that stops early has decoded at most one chunk it did not
        read.
        """
        rows = iter(rows)
        while chunk := list(islice(rows, STREAM_CHUNK)):
            yield from self.decode_rows(chunk)

    def decode_rows_uncounted(self, rows: List[Sequence[int]]) -> List[Tuple[object, ...]]:
        """:meth:`decode_rows` for rows whose decode was counted already.

        The values behind a page :meth:`json_rows` wrote: that write counted
        the decode, and reading the same rows back as values is not a second
        one.
        """
        if not rows:
            return []
        try:
            return _row_kernel(len(rows[0]))(self._values, rows)
        except (IndexError, TypeError, ValueError):
            return [self._checked_row(row) for row in rows]

    # ------------------------------------------------------------------ JSON
    @property
    def fragments(self) -> List[object]:
        """The JSON fragment table as far as it is built.

        ``_json_fragment(value)`` per code, ``0 .. len - 1``: ``json.dumps``
        of the value, or a marker that raises its error when written.  The
        table is one list that only grows, and a fragment never changes,
        since a code never changes meaning.
        """
        return self._fragments

    def _grow_fragments(self, size: int) -> List[object]:
        """The fragment table, grown to cover the codes below ``size``.

        Growth is **locked**: a thread extends the table under
        :attr:`_grow_lock`, from the length it finds there, so two growing
        threads never append the same codes twice; a reader indexes the
        list without the lock, and every entry below the length it saw is
        the fragment of its own code.  Grows no further than the codes
        assigned so far.
        """
        fragments = self._fragments
        if len(fragments) < size:
            with self._grow_lock:
                start = len(fragments)
                fragments.extend(map(_json_fragment, self._values[start:size]))
        return fragments

    def json_rows(self, rows: List[Sequence[int]]) -> str:
        """Rows of codes as the JSON text ``json.dumps`` writes for their values.

        Counted as :meth:`decode_rows` counts, since it crosses the same
        boundary, but no value tuple is built: each code's fragment comes
        from the table (grown on demand to the largest code in ``rows``) and
        :func:`_json_array` joins them.  Like :meth:`decode_rows`, the
        happy path trusts the engine's codes; what it refuses — a code past
        the table as built so far, rows of unequal width — is checked, so a
        code that is not one of this table raises the ``ValueError`` of
        :meth:`decode`, and then written after the table has grown.  A
        value ``json.dumps`` refuses raises its ``TypeError``;
        :attr:`decodes` does not move for a page that fails.
        """
        if not rows:
            return "[]"
        try:
            width = len(rows[0])
            text = _json_array(self._fragments, rows, width)
        except (IndexError, TypeError, ValueError):
            # A code past the table as built so far, or input the kernel
            # refuses: name the first code that is not one of ours, grow.
            for row in rows:
                self._checked_row(row)
            top = max(map(max, filter(None, rows)), default=-1)
            fragments = self._grow_fragments(top + 1)
            try:
                text = _json_array(fragments, rows, len(rows[0]))
            except ValueError:  # rows of unequal width, written one by one
                lines = [_json_kernel(len(row))(fragments, (row,))[0] for row in rows]
                text = "[[" + "], [".join(lines) + "]]"
            self.decodes += sum(map(len, rows))
        else:
            self.decodes += width * len(rows)
        return text

    def _checked_row(self, row: Sequence[int]) -> Tuple[object, ...]:
        """Decode one row, uncounted, refusing what is not a code of this table."""
        row = tuple(row)
        values = self._values
        try:
            if min(row, default=0) >= 0:
                return tuple([values[code] for code in row])
        except (IndexError, TypeError):
            pass  # named below, like a negative code
        size = len(values)
        for code in row:
            try:
                if not 0 <= index(code) < size:
                    break
            except TypeError:
                break
        raise ValueError(f"unknown dictionary code {code!r}") from None

    # ------------------------------------------------------------- reporting
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return self.code_of(value) is not None

    def __repr__(self) -> str:
        return f"ValueDictionary(entries={len(self._values)}, decodes={self.decodes})"
