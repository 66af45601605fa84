"""In-memory span recorder used only by ``--trace 1``.

Spans are recorded from the benchmark's own files, around the public calls
into each layer; nothing inside ``repro`` is instrumented.  A span is a dict
with ``id``, ``name``, ``start``/``end`` (``perf_counter_ns``), ``parent``
(the enclosing span on the same thread), ``cycle`` (the workload cycle it
belongs to, ``None`` during set-up) and ``counts`` (what the layer reported
at that boundary).  Spans stay in memory and are written once, at exit.

The module shadows the standard library's ``trace`` for the benchmark's
process, which nothing the benchmark imports uses.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def set_cycle(self, cycle: Optional[int]) -> None:
        """Tag the spans this thread records from now on with ``cycle``."""
        self._local.cycle = cycle

    @contextmanager
    def span(self, name: str, **counts: object) -> Iterator[Dict[str, object]]:
        stack = self._local.__dict__.setdefault("stack", [])
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "cycle": getattr(self._local, "cycle", None),
            "counts": counts,
            "start": time.perf_counter_ns(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    def named(self, name: str, **where: object) -> List[Dict[str, object]]:
        """Recorded spans called ``name`` whose counts include ``where``."""
        return [
            span
            for span in self.spans
            if span["name"] == name
            and all(span["counts"].get(key) == value for key, value in where.items())
        ]

    def timed(self, name: str, **where: object) -> List[Dict[str, object]]:
        """Like :meth:`named`, but only spans recorded inside a cycle."""
        return [span for span in self.named(name, **where) if span["cycle"] is not None]

    def write(self, path: str, header: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)


def span_ms(span: Dict[str, object]) -> float:
    return (span["end"] - span["start"]) / 1e6


@contextmanager
def null_span(name: str, **counts: object) -> Iterator[None]:
    """What untraced cycles pass where traced ones pass ``Tracer.span``."""
    yield None
