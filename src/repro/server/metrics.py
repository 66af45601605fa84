"""Prometheus text exposition for the query service.

:func:`render_metrics` turns one coherent :meth:`QueryService.stats`
snapshot plus the database's global cache counters into the Prometheus
text format (version 0.0.4 — ``# HELP`` / ``# TYPE`` / samples), with no
dependency on any metrics client library.

Two families matter for PR 10's acceptance invariant:

* ``repro_db_*_total`` — the database's *global* cache counters (every
  build, whoever caused it, including work attributed to requests that
  later timed out);
* ``repro_query_*_total`` — the same counters *summed from per-request
  result metadata* by the service.

For completed requests the second family must reconcile exactly with the
sum of the metadata each client received — that is what the concurrency
fix (per-execution counter scopes) guarantees and what the acceptance test
asserts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.storage.database import SCOPED_COUNTERS

__all__ = ["render_metrics"]

_PROM_HELP: Dict[str, str] = {
    "index_builds": "trie indexes built",
    "index_cache_hits": "index cache hits",
    "index_patches": "cached indexes patched in place after updates",
    "index_compactions": "cached indexes compacted",
    "plan_builds": "execution plans computed",
    "plan_cache_hits": "plan cache hits",
    "compiled_builds": "specialized drivers compiled",
    "compiled_cache_hits": "compiled-driver cache hits",
}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def header(self, name: str, help_text: str, kind: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, labels: Dict[str, str] = None) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
            )
            self.lines.append(f"{name}{{{rendered}}} {value}")
        else:
            self.lines.append(f"{name} {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics(service) -> str:
    """The service's full Prometheus exposition (text format 0.0.4)."""
    stats = service.stats()
    database = service.database
    out = _Writer()

    # --- database-global cache counters -----------------------------------
    for counter in SCOPED_COUNTERS:
        name = f"repro_db_{counter}_total"
        out.header(name, f"Database-global total: {_PROM_HELP[counter]}.", "counter")
        out.sample(name, getattr(database, counter))

    # --- per-request attributed totals (the reconciliation family) --------
    attributed = stats["query_metadata_totals"]
    for counter in SCOPED_COUNTERS:
        name = f"repro_query_{counter}_total"
        out.header(
            name,
            f"Summed per-request result metadata: {_PROM_HELP[counter]} "
            "(reconciles with what completed clients were told).",
            "counter",
        )
        out.sample(name, attributed[counter])

    # --- request / execution totals ----------------------------------------
    out.header(
        "repro_requests_total", "HTTP requests by endpoint and status.", "counter"
    )
    for (endpoint, status), total in sorted(stats["requests_total"].items()):
        out.sample(
            "repro_requests_total",
            total,
            {"endpoint": endpoint, "status": str(status)},
        )
    out.header(
        "repro_queries_total", "Query executions completed successfully.", "counter"
    )
    out.sample("repro_queries_total", stats["queries_total"])
    out.header(
        "repro_query_seconds_total",
        "Wall-clock seconds spent in completed query executions "
        "(including admission wait).",
        "counter",
    )
    out.sample("repro_query_seconds_total", f"{stats['query_seconds_total']:.6f}")
    out.header(
        "repro_rows_returned_total", "Result rows returned to clients.", "counter"
    )
    out.sample("repro_rows_returned_total", stats["rows_returned_total"])

    # --- admission ----------------------------------------------------------
    admission = stats["admission"]
    out.header(
        "repro_admission_active", "Executions currently holding a slot.", "gauge"
    )
    out.sample("repro_admission_active", admission["active"])
    out.header(
        "repro_admission_waiting", "Requests queued for a slot.", "gauge"
    )
    out.sample("repro_admission_waiting", admission["waiting"])
    out.header(
        "repro_admission_admitted_total", "Requests admitted to execute.", "counter"
    )
    out.sample("repro_admission_admitted_total", admission["admitted_total"])
    out.header(
        "repro_admission_rejected_total",
        "Requests shed, by reason (queue_full -> 429, timeout -> 429, "
        "shutdown -> 503).",
        "counter",
    )
    for reason in ("queue_full", "timeout", "shutdown"):
        out.sample(
            "repro_admission_rejected_total",
            admission[f"rejected_{reason}_total"],
            {"reason": reason},
        )

    # --- sessions -----------------------------------------------------------
    sessions = stats["sessions"]
    out.header("repro_sessions_active", "Live (unexpired) sessions.", "gauge")
    out.sample("repro_sessions_active", sessions["active"])
    out.header("repro_sessions_created_total", "Sessions ever created.", "counter")
    out.sample("repro_sessions_created_total", sessions["created_total"])
    out.header(
        "repro_sessions_evicted_total", "Sessions evicted (TTL or LRU).", "counter"
    )
    out.sample("repro_sessions_evicted_total", sessions["evicted_total"])
    out.header(
        "repro_sessions_prepared_handles",
        "Warm prepared-query handles held across live sessions.",
        "gauge",
    )
    out.sample("repro_sessions_prepared_handles", sessions["prepared_handles"])

    # --- service state -------------------------------------------------------
    out.header(
        "repro_service_draining",
        "1 while graceful shutdown is in progress.",
        "gauge",
    )
    out.sample("repro_service_draining", int(stats["draining"]))
    out.header("repro_service_uptime_seconds", "Seconds since service start.", "gauge")
    out.sample("repro_service_uptime_seconds", f"{stats['uptime_seconds']:.3f}")
    out.header(
        "repro_db_memory_footprint_bytes",
        "Estimated bytes held by memory-governed structures.",
        "gauge",
    )
    out.sample("repro_db_memory_footprint_bytes", database.memory_footprint())

    return out.text()
