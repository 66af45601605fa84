"""Quickstart: count 5-cycles on a skewed social graph with and without caching.

Run with::

    python examples/quickstart.py

The example builds the wiki-Vote stand-in dataset, plans a cached trie join
(CLFTJ) for the 5-cycle count query, runs it next to vanilla LFTJ and the
Yannakakis-over-TD baseline, and prints counts, wall-clock times and the
abstract memory-access figures the paper's analysis is based on.
"""

from repro import QueryEngine, cycle_query, path_query
from repro.bench.reporting import format_results
from repro.datasets import wiki_vote


def main() -> None:
    database = wiki_vote()
    print(f"dataset: wiki-Vote stand-in with {len(database.relation('E'))} edges")

    engine = QueryEngine(database)
    query = cycle_query(5)

    plan = engine.plan(query)
    print("\nexecution plan chosen for CLFTJ:")
    print(plan.describe())

    results = engine.compare(query, algorithms=("lftj", "clftj", "ytd"))
    print("\n5-cycle count results:")
    print(format_results(results.values(), dataset="wiki-Vote"))

    clftj = results["clftj"]
    lftj = results["lftj"]
    print(
        f"\nCLFTJ answered with {clftj.counter.cache_hits} cache hits "
        f"({clftj.cache_hit_rate:.0%} hit rate) and "
        f"{lftj.memory_accesses / max(clftj.memory_accesses, 1):.1f}x fewer "
        f"memory accesses than LFTJ."
    )

    # Counting is not the whole story: full evaluation works the same way.
    small_query = path_query(3)
    evaluation = engine.evaluate(small_query, algorithm="clftj")
    print(
        f"\nfull evaluation of {small_query.name}: "
        f"{evaluation.count} tuples materialised, first 3: {evaluation.rows[:3]}"
    )


if __name__ == "__main__":
    main()
