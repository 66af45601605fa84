"""repro — a reproduction of "Flexible Caching in Trie Joins" (EDBT 2017).

The package implements, in pure Python:

* the query/storage substrate (conjunctive queries, sorted trie indices,
  statistics, loaders) — :mod:`repro.query`, :mod:`repro.storage`;
* Leapfrog Trie Join and the paper's contribution, Cached LFTJ, with
  pluggable caching policies and factorised result representations —
  :mod:`repro.core`;
* the tree-decomposition machinery of Section 4 (constrained-separator
  enumeration, GenericDecompose, cost models) — :mod:`repro.decomposition`;
* the baselines the paper compares against (YTD, pairwise hash joins) —
  :mod:`repro.baselines`;
* synthetic stand-ins for the SNAP / IMDB workloads — :mod:`repro.datasets`;
* a high-level query engine, and the paper's workload families with a
  result-table formatter — :mod:`repro.engine`, :mod:`repro.bench`.

Quickstart::

    from repro import QueryEngine, cycle_query
    from repro.datasets import wiki_vote

    engine = QueryEngine(wiki_vote())
    result = engine.count(cycle_query(5), algorithm="clftj")
    print(result.count, result.counter.cache_hits)
"""

from repro.query import (
    Atom,
    ConjunctiveQuery,
    Variable,
    clique_query,
    cycle_query,
    lollipop_query,
    parse_query,
    path_query,
    random_pattern_query,
    star_query,
)
from repro.storage import Database, Relation
from repro.core import (
    AdhesionCache,
    AlwaysCachePolicy,
    BoundedCachePolicy,
    CachedLeapfrogTrieJoin,
    CompositePolicy,
    LeapfrogTrieJoin,
    NeverCachePolicy,
    OperationCounter,
    SupportThresholdPolicy,
)
from repro.decomposition import (
    TreeDecomposition,
    enumerate_tree_decompositions,
    generic_decompose,
    select_decomposition,
    strongly_compatible_order,
)
from repro.baselines import PairwiseHashJoin, YannakakisTreeJoin
from repro.engine import (
    ExecutionPlan,
    ExecutionResult,
    Planner,
    PreparedQuery,
    QueryEngine,
)

__version__ = "1.0.0"

__all__ = [
    "AdhesionCache",
    "AlwaysCachePolicy",
    "Atom",
    "BoundedCachePolicy",
    "CachedLeapfrogTrieJoin",
    "CompositePolicy",
    "ConjunctiveQuery",
    "Database",
    "ExecutionPlan",
    "ExecutionResult",
    "LeapfrogTrieJoin",
    "NeverCachePolicy",
    "OperationCounter",
    "PairwiseHashJoin",
    "Planner",
    "PreparedQuery",
    "QueryEngine",
    "Relation",
    "SupportThresholdPolicy",
    "TreeDecomposition",
    "Variable",
    "YannakakisTreeJoin",
    "clique_query",
    "cycle_query",
    "enumerate_tree_decompositions",
    "generic_decompose",
    "lollipop_query",
    "parse_query",
    "path_query",
    "random_pattern_query",
    "select_decomposition",
    "star_query",
    "strongly_compatible_order",
    "__version__",
]
