"""Additional caching policies (the paper's "future work: caching policies in depth").

:mod:`repro.core.cache` provides the policies the paper actually evaluates
(cache everything, support threshold, bounded budgets).  This module adds the
obvious next steps a production system would try, so that the ablation
benchmark can compare them:

* :class:`FrequencyAdmissionPolicy` — admit an entry only after its adhesion
  assignment has been *requested* (missed) a minimum number of times, i.e. a
  TinyLFU-style admission filter driven by observed recurrence rather than
  precomputed support.
* :class:`SkewAwarePolicy` — use the per-attribute skew statistics to decide,
  per decomposition node, whether its adhesion attributes are skewed enough
  for caching to pay off at all (the criterion Section 4 uses to *choose*
  decompositions, applied at run time).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.cache import CachePolicy
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database


class FrequencyAdmissionPolicy(CachePolicy):
    """Admit an adhesion assignment only after it has been seen ``min_occurrences`` times.

    The first ``min_occurrences - 1`` computations of a subtree for a given
    adhesion assignment are *not* cached; only assignments that demonstrably
    recur earn a cache slot.  With ``min_occurrences=1`` this is
    :class:`~repro.core.cache.AlwaysCachePolicy`.
    """

    def __init__(self, min_occurrences: int = 2) -> None:
        if min_occurrences < 1:
            raise ValueError("min_occurrences must be at least 1")
        self.min_occurrences = min_occurrences
        self._seen: Dict[Tuple[int, Tuple[object, ...]], int] = {}

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        key = (node, tuple(adhesion_values))
        count = self._seen.get(key, 0) + 1
        self._seen[key] = count
        return count >= self.min_occurrences

    def reset(self) -> None:
        """Forget the observed recurrences: every execution starts fresh."""
        self._seen.clear()


class SkewAwarePolicy(CachePolicy):
    """Cache only at decomposition nodes whose adhesion attributes are skewed.

    For every node, the policy looks at the skew (1 - normalised entropy) of
    the base-relation columns backing the adhesion variables; if the maximum
    skew is below ``min_skew`` the node's adhesion values are unlikely to
    recur and the node is excluded from caching altogether, which also lets
    the evaluation variant skip building factorised intermediates for it.
    """

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        decomposition: TreeDecomposition,
        min_skew: float = 0.05,
    ) -> None:
        if not 0.0 <= min_skew <= 1.0:
            raise ValueError("min_skew must be within [0, 1]")
        self.min_skew = min_skew
        catalog = database.statistics
        variable_skew: Dict[Variable, float] = {}
        for atom in query.atoms:
            relation = database.relation(atom.relation)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    attribute = relation.attributes[position]
                    skew = catalog.attribute(atom.relation, attribute).skew
                    variable_skew[term] = max(variable_skew.get(term, 0.0), skew)
        self._node_enabled: Dict[int, bool] = {}
        for node in decomposition.preorder():
            adhesion = decomposition.adhesion(node)
            if not adhesion:
                self._node_enabled[node] = False
                continue
            max_skew = max(variable_skew.get(variable, 0.0) for variable in adhesion)
            self._node_enabled[node] = max_skew >= self.min_skew

    def node_enabled(self, node: int) -> bool:
        """Whether caching is enabled for ``node``."""
        return self._node_enabled.get(node, True)

    def should_cache(self, node, adhesion, adhesion_values, intermediate) -> bool:
        return self.node_enabled(node)

    def wants_intermediates(self, node: int) -> bool:
        return self.node_enabled(node)


def policy_suite(
    database: Database,
    query: ConjunctiveQuery,
    decomposition: TreeDecomposition,
) -> Dict[str, CachePolicy]:
    """The named policies compared by the policy-ablation benchmark."""
    from repro.core.cache import (
        AlwaysCachePolicy,
        BoundedCachePolicy,
        NeverCachePolicy,
        SupportThresholdPolicy,
    )

    return {
        "always": AlwaysCachePolicy(),
        "never": NeverCachePolicy(),
        "support>=2": SupportThresholdPolicy(database, query, threshold=2),
        "second-touch": FrequencyAdmissionPolicy(min_occurrences=2),
        "skew-aware": SkewAwarePolicy(database, query, decomposition),
        "bounded-1k": BoundedCachePolicy(1000),
    }
