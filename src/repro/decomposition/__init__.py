"""Ordered tree decompositions and the TD-enumeration heuristic of Section 4.

* :mod:`repro.decomposition.tree_decomposition` -- ordered TDs: bags,
  adhesions, owners, preorder, validation, (strong) compatibility.
* :mod:`repro.decomposition.ordering` -- strongly-compatible variable orders.
* :mod:`repro.decomposition.separators` -- constrained separating sets and
  their enumeration by size, one ranked scan over node subsets.
* :mod:`repro.decomposition.generic` -- GenericDecompose / RecursiveTD and the
  TD enumerator built on the separator enumeration.
* :mod:`repro.decomposition.cost` -- TD scoring heuristics and the
  Chu-et-al-style attribute-order cost model.
"""

from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.decomposition.ordering import (
    strongly_compatible_order,
    is_compatible,
    is_strongly_compatible,
)
from repro.decomposition.separators import (
    enumerate_constrained_separators,
    is_separating_set,
    minimum_constrained_separator,
)
from repro.decomposition.generic import (
    GenericDecomposer,
    enumerate_tree_decompositions,
    generic_decompose,
)
from repro.decomposition.cost import (
    ChuCostModel,
    td_heuristic_score,
    select_decomposition,
)

__all__ = [
    "ChuCostModel",
    "GenericDecomposer",
    "TreeDecomposition",
    "enumerate_constrained_separators",
    "enumerate_tree_decompositions",
    "generic_decompose",
    "is_compatible",
    "is_separating_set",
    "is_strongly_compatible",
    "minimum_constrained_separator",
    "select_decomposition",
    "strongly_compatible_order",
    "td_heuristic_score",
]
