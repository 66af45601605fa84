"""Figure 10 — dynamic cache sizes: speedup as a function of cache capacity.

The paper's Figure 10 bounds CLFTJ's cache and measures the speedup over
LFTJ for 4-cycle and 6-cycle count queries on IMDB, and for the 6-cycle on
wiki-Vote.  The reproduced shape: the speedup grows with the cache budget,
small caches already capture a large fraction of the benefit, and a
fully-cached skewed dataset (wiki-Vote) reaches the maximum speedup.

Every capacity is also counted by the compiled CLFTJ executor over the same
decomposition, order and kind of cache: its count and its operation
counters, cache hits, misses, insertions and evictions included, must be
the interpreter's.  That run is not timed.
"""

import pytest

from repro.core.cache import AdhesionCache
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.cost import select_decomposition
from repro.engine.compiler import CompiledCachedTrieJoin
from repro.query.patterns import bipartite_cycle_query, cycle_query

from benchmarks.conftest import report_row

#: Cache capacities swept (the paper sweeps 10K ... 10M on the full datasets).
CAPACITIES = (0, 10, 100, 1000, 10000, None)

_plans = {}
_lftj_baseline = {}


def _plan(query, database):
    key = (query.name, id(database))
    if key not in _plans:
        _plans[key] = select_decomposition(query, database)
    return _plans[key]


def _lftj_seconds(query, database, benchmark_key):
    import time

    if benchmark_key not in _lftj_baseline:
        started = time.perf_counter()
        count = LeapfrogTrieJoin(query, database).count()
        _lftj_baseline[benchmark_key] = (time.perf_counter() - started, count)
    return _lftj_baseline[benchmark_key]


def _run_with_capacity(query, database, capacity, executor=CachedLeapfrogTrieJoin):
    import time

    choice = _plan(query, database)
    cache = AdhesionCache() if capacity is None else AdhesionCache(capacity=capacity, eviction="lru")
    joiner = executor(query, database, choice.decomposition, choice.order, cache=cache)
    started = time.perf_counter()
    count = joiner.count()
    elapsed = time.perf_counter() - started
    return count, joiner, cache, elapsed


def _assert_compiled_agrees(query, database, capacity, count, joiner):
    """The compiled executor's count and counters are the interpreter's."""
    compiled_count, compiled, _cache, _elapsed = _run_with_capacity(
        query, database, capacity, CompiledCachedTrieJoin
    )
    assert compiled.compiled
    assert compiled_count == count
    assert compiled.counter.as_dict() == joiner.counter.as_dict()


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("cycle_length", (4, 6))
def test_fig10_imdb_cache_sweep(benchmark, imdb_db, cycle_length, capacity):
    query = bipartite_cycle_query(cycle_length)
    lftj_seconds, lftj_count = _lftj_seconds(query, imdb_db, ("imdb", cycle_length))

    count, joiner, cache, elapsed = benchmark.pedantic(
        _run_with_capacity, args=(query, imdb_db, capacity), rounds=1, iterations=1
    )
    assert count == lftj_count
    _assert_compiled_agrees(query, imdb_db, capacity, count, joiner)
    speedup = lftj_seconds / max(elapsed, 1e-9)
    benchmark.extra_info["speedup_vs_lftj"] = round(speedup, 3)
    benchmark.extra_info["entries_used"] = len(cache)
    report_row(
        "Figure 10",
        dataset="IMDB",
        query=query.name,
        cache_capacity="unbounded" if capacity is None else capacity,
        count=count,
        speedup_vs_lftj=round(speedup, 2),
        entries_used=len(cache),
        hit_rate=round(joiner.counter.cache_hit_rate, 3),
    )


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_fig10_wiki_vote_cache_sweep(benchmark, snap_dbs, capacity):
    database = snap_dbs["wiki-Vote"]
    query = cycle_query(6)
    lftj_seconds, lftj_count = _lftj_seconds(query, database, ("wiki-Vote", 6))

    count, joiner, cache, elapsed = benchmark.pedantic(
        _run_with_capacity, args=(query, database, capacity), rounds=1, iterations=1
    )
    assert count == lftj_count
    _assert_compiled_agrees(query, database, capacity, count, joiner)
    speedup = lftj_seconds / max(elapsed, 1e-9)
    benchmark.extra_info["speedup_vs_lftj"] = round(speedup, 3)
    benchmark.extra_info["entries_used"] = len(cache)
    report_row(
        "Figure 10",
        dataset="wiki-Vote",
        query=query.name,
        cache_capacity="unbounded" if capacity is None else capacity,
        count=count,
        speedup_vs_lftj=round(speedup, 2),
        entries_used=len(cache),
        hit_rate=round(joiner.counter.cache_hit_rate, 3),
    )
