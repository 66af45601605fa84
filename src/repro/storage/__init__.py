"""Storage substrate: relations, databases, trie indices and statistics.

The paper evaluates joins over in-memory trie-indexed relations; this
subpackage provides the equivalent substrate in pure Python.  There is one
index representation: every index a :class:`Database` hands out is a
columnar trie whose keys are codes of the database's
shared value dictionary; values reappear only at decode boundaries.

* :mod:`repro.storage.relation` -- immutable sorted relations.
* :mod:`repro.storage.database` -- a named catalog of relations.
* :mod:`repro.storage.trie` -- sorted trie indices with LFTJ-style linear
  iterators (``open``/``up``/``next``/``seek``/``key``/``at_end``).
* :mod:`repro.storage.statistics` -- cardinalities, distinct counts and skew
  measures used by the cost models and caching policies.
* :mod:`repro.storage.loaders` -- SNAP edge-list and CSV loaders.
* :mod:`repro.storage.dictionary` -- the per-database integer dictionary
  all index keys are codes of, and the typed value-contract error.
"""

from repro.storage.relation import Relation
from repro.storage.database import Database
from repro.storage.dictionary import ValueDictionary, ValueEncodingError
from repro.storage.trie import TrieIndex, TrieIterator
from repro.storage.statistics import AttributeStatistics, RelationStatistics
from repro.storage.loaders import load_edge_list, load_csv_relation, relation_from_edges

__all__ = [
    "AttributeStatistics",
    "Database",
    "Relation",
    "RelationStatistics",
    "TrieIndex",
    "TrieIterator",
    "ValueDictionary",
    "ValueEncodingError",
    "load_csv_relation",
    "load_edge_list",
    "relation_from_edges",
]
