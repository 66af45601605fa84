"""Ablation — caching policies (DESIGN.md ablation item; paper §3.4 / future work).

The paper evaluates a single admission policy (support threshold) and leaves
"caching policies in depth" to future work.  This ablation compares the
policies implemented in :mod:`repro.core.cache` and
:mod:`repro.core.policies` on a skewed count workload: all of them must
return the same count, and the interesting output is how much trie traffic
each saves and how many cache entries it spends to do so.
"""

import pytest

from repro.core.cache import AdhesionCache
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.policies import policy_suite
from repro.decomposition.cost import select_decomposition
from repro.query.patterns import path_query

from benchmarks.conftest import report_row

QUERY = path_query(5)
_reference = {}
_plans = {}


def _plan(database):
    key = id(database)
    if key not in _plans:
        _plans[key] = select_decomposition(QUERY, database)
    return _plans[key]


def _run_policy(database, policy):
    choice = _plan(database)
    cache = AdhesionCache()
    joiner = CachedLeapfrogTrieJoin(
        QUERY, database, choice.decomposition, choice.order, policy=policy, cache=cache
    )
    return joiner.count(), joiner, cache


POLICY_NAMES = ("always", "never", "support>=2", "second-touch", "skew-aware", "bounded-1k")


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("dataset", ("wiki-Vote", "ego-Twitter"))
def test_ablation_caching_policies(benchmark, scale, policy_name, dataset):
    from repro.datasets.snap import load_snap_standin

    database = load_snap_standin(dataset, scale=scale)
    choice = _plan(database)
    policy = policy_suite(database, QUERY, choice.decomposition)[policy_name]

    count, joiner, cache = benchmark.pedantic(
        _run_policy, args=(database, policy), rounds=1, iterations=1
    )

    if dataset in _reference:
        assert count == _reference[dataset]
    else:
        _reference[dataset] = count

    benchmark.extra_info["count"] = count
    benchmark.extra_info["cache_entries"] = len(cache)
    benchmark.extra_info["cache_hits"] = joiner.counter.cache_hits
    report_row(
        "Ablation/policies",
        dataset=dataset,
        query=QUERY.name,
        policy=policy_name,
        count=count,
        cache_entries=len(cache),
        cache_hits=joiner.counter.cache_hits,
        memory_accesses=joiner.counter.memory_accesses,
    )


@pytest.mark.parametrize("dataset", ("wiki-Vote",))
def test_ablation_policies_never_vs_always(benchmark, scale, dataset):
    """Sanity shape: caching everything must not do more trie work than never caching."""
    from repro.datasets.snap import load_snap_standin

    database = load_snap_standin(dataset, scale=scale)
    choice = _plan(database)
    suite = policy_suite(database, QUERY, choice.decomposition)

    def run_pair():
        return _run_policy(database, suite["always"]), _run_policy(database, suite["never"])

    (always_count, always_joiner, _), (never_count, never_joiner, _) = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    assert always_count == never_count
    assert always_joiner.counter.trie_accesses <= never_joiner.counter.trie_accesses
    report_row(
        "Ablation/policies",
        dataset=dataset,
        metric="trie accesses",
        always=always_joiner.counter.trie_accesses,
        never=never_joiner.counter.trie_accesses,
    )
