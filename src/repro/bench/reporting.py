"""Plain-text tables of execution results.

The CLI and the examples print the same rows/series the paper's figures
show; these helpers keep that output aligned and stable without pulling in
any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine.results import ExecutionResult

#: The columns :func:`format_results` shows unless told otherwise.
RESULT_COLUMNS = (
    "dataset",
    "query",
    "algorithm",
    "count",
    "elapsed_seconds",
    "memory_accesses",
    "cache_hits",
    "cache_hit_rate",
)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_records(
    records: Iterable[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dictionaries as an aligned text table."""
    records = list(records)
    if not records:
        return "(no records)"
    if columns is None:
        seen: List[str] = []
        for record in records:
            for key in record:
                if key not in seen:
                    seen.append(key)
        columns = seen
    header = [str(column) for column in columns]
    rows = [
        [_format_value(record.get(column, "")) for column in columns]
        for record in records
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def results_to_records(
    results: Iterable[ExecutionResult], dataset: str = ""
) -> List[Dict[str, object]]:
    """Flatten execution results into report-friendly dictionaries.

    A result does not know which dataset it ran over; the caller names it.
    """
    return [{"dataset": dataset, **result.as_record()} for result in results]


def format_results(
    results: Iterable[ExecutionResult],
    columns: Sequence[str] = RESULT_COLUMNS,
    dataset: str = "",
) -> str:
    """Render execution results with the default benchmark columns."""
    return format_records(results_to_records(results, dataset), columns=columns)
