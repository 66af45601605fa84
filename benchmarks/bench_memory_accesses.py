"""E0 — the introduction's memory-access analysis.

The paper motivates CLFTJ by counting the memory accesses of a single
count 5-cycle query on the SNAP ca-GrQc dataset: roughly 45e9 for LFTJ,
16e9 for tree decomposition + Yannakakis (YTD) and 1.4e9 for CLFTJ — a
more than 30x reduction over LFTJ.

This benchmark regenerates the same three-way comparison on the ca-GrQc
stand-in using the abstract operation counters.  All three algorithms read
the same shared tries: LFTJ and CLFTJ join over them directly, and YTD joins
each bag with LFTJ over them, so every algorithm pays trie accesses for its
joins; YTD adds hash probes for its semi-joins and message passing and
materialised tuples for its bag relations.  Absolute numbers are not
comparable to hardware memory accesses; the asserted claim is the
*ordering* between LFTJ and CLFTJ.  The LFTJ/YTD and YTD/CLFTJ factors are
printed next to the paper's 2.8x and 11.4x but not asserted: on this
stand-in YTD falls below LFTJ only up to about scale 1 (at
``REPRO_BENCH_SCALE=2`` LFTJ counts 2,821,060 accesses, YTD 2,971,514).
"""

import pytest

from repro.query.patterns import cycle_query

from benchmarks.conftest import attach_result, report_row, run_count

ALGORITHMS = ("lftj", "clftj", "ytd")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_memory_accesses_5cycle_ca_grqc(benchmark, engines, algorithm):
    """Figure: memory accesses of count 5-cycle on ca-GrQc per algorithm."""
    engine = engines["ca-GrQc"]
    query = cycle_query(5)
    result = benchmark.pedantic(
        run_count, args=(engine, query, algorithm), rounds=1, iterations=1
    )
    attach_result(benchmark, result, dataset="ca-GrQc")
    report_row(
        "E0",
        dataset="ca-GrQc",
        query=query.name,
        algorithm=algorithm,
        count=result.count,
        memory_accesses=result.memory_accesses,
        cache_hits=result.counter.cache_hits,
    )


#: The paper's factors from LFTJ ~45e9, YTD ~16e9 and CLFTJ ~1.4e9 accesses.
PAPER_RATIOS = {"LFTJ/YTD": 2.8, "YTD/CLFTJ": 11.4, "LFTJ/CLFTJ": 32.1}


def test_memory_access_reduction_clftj_vs_lftj(benchmark, engines):
    """The headline claim: CLFTJ needs far fewer memory accesses than LFTJ."""
    engine = engines["ca-GrQc"]
    query = cycle_query(5)

    def run_all():
        return {algorithm: run_count(engine, query, algorithm) for algorithm in ALGORITHMS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lftj, clftj, ytd = (results[algorithm] for algorithm in ALGORITHMS)
    assert clftj.count == lftj.count
    assert ytd.count == lftj.count
    assert clftj.memory_accesses < lftj.memory_accesses
    for metric, paper in PAPER_RATIOS.items():
        high, low = (results[name.lower()].memory_accesses for name in metric.split("/"))
        ratio = round(high / max(low, 1), 2)
        if metric == "LFTJ/CLFTJ":
            benchmark.extra_info["access_reduction_vs_lftj"] = ratio
        report_row("E0", dataset="ca-GrQc", query=query.name,
                   metric=f"{metric} access ratio", value=ratio, paper=paper)
