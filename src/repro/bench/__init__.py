"""The paper's workload families and the result-table formatter.

Nothing here measures: timing lives in ``benchmarks/e2e`` and the
paper-figure shape checks in ``benchmarks/bench_*.py``.  What the CLI, those
benches, the examples and the tests share is:

* :mod:`repro.bench.workloads` -- the figure-by-figure workload definitions
  (datasets, queries, parameters).
* :mod:`repro.bench.reporting` -- render result records as aligned text
  tables (the "same rows/series as the paper" output).
"""

from repro.bench.reporting import format_records, format_results, results_to_records
from repro.bench.workloads import (
    FIGURE5_DATASETS,
    FIGURE5_QUERIES,
    evaluation_datasets,
    figure10_cache_sizes,
    path_queries,
    cycle_queries,
    random_queries,
    snap_databases,
)

__all__ = [
    "FIGURE5_DATASETS",
    "FIGURE5_QUERIES",
    "cycle_queries",
    "evaluation_datasets",
    "figure10_cache_sizes",
    "format_records",
    "format_results",
    "path_queries",
    "random_queries",
    "results_to_records",
    "snap_databases",
]
