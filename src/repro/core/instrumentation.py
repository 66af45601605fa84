"""Operation counters.

The paper motivates CLFTJ with *memory traffic*: the number of memory accesses
issued while traversing trie indices (Section 1 reports 45e9 accesses for
LFTJ vs 1.4e9 for CLFTJ on a 5-cycle over ca-GrQc).  A pure-Python
reproduction cannot measure hardware memory accesses, so every index
operation reports an abstract access count to an :class:`OperationCounter`:

* a trie ``open``/``next``/``up`` costs one access;
* a trie ``seek`` over ``n`` remaining siblings costs ``ceil(log2 n)``
  accesses (binary search probes);
* hash probes (YTD / pairwise joins) and materialised intermediate tuples are
  counted separately and folded into the total.

The counters also track cache behaviour (hits, misses, insertions,
evictions), emitted results and recursive calls, which the CLI and the
benches report alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class OperationCounter:
    """Mutable bundle of counters shared by an execution."""

    trie_accesses: int = 0
    trie_seeks: int = 0
    trie_nexts: int = 0
    trie_opens: int = 0
    hash_probes: int = 0
    tuples_materialized: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_insertions: int = 0
    cache_evictions: int = 0
    cache_rejections: int = 0
    results_emitted: int = 0
    recursive_calls: int = 0

    # ------------------------------------------------------------- recording
    def record_trie(self, accesses: int = 1, seeks: int = 0, nexts: int = 0, opens: int = 0) -> None:
        """Record trie-iterator work."""
        self.trie_accesses += accesses
        self.trie_seeks += seeks
        self.trie_nexts += nexts
        self.trie_opens += opens

    def record_hash_probe(self, count: int = 1) -> None:
        """Record hash-index probes (YTD / pairwise joins)."""
        self.hash_probes += count

    def record_materialized(self, count: int = 1) -> None:
        """Record intermediate tuples written to memory."""
        self.tuples_materialized += count

    def record_cache_hit(self) -> None:
        """Record an adhesion-cache hit."""
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        """Record an adhesion-cache miss."""
        self.cache_misses += 1

    def record_cache_insertion(self) -> None:
        """Record an adhesion-cache insertion."""
        self.cache_insertions += 1

    def record_cache_eviction(self) -> None:
        """Record an adhesion-cache eviction."""
        self.cache_evictions += 1

    def record_cache_rejection(self) -> None:
        """Record an insertion refused by the policy or capacity bound."""
        self.cache_rejections += 1

    def record_result(self, count: int = 1) -> None:
        """Record emitted result tuples (or counted units)."""
        self.results_emitted += count

    def record_recursive_call(self) -> None:
        """Record one recursive join step."""
        self.recursive_calls += 1

    # ------------------------------------------------------------- reporting
    @property
    def memory_accesses(self) -> int:
        """Abstract total memory accesses: trie + hash + materialisation traffic."""
        return self.trie_accesses + self.hash_probes + self.tuples_materialized

    @property
    def cache_lookups(self) -> int:
        """Total cache lookups (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 when the cache was never consulted."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """All counters plus derived figures, for reporting."""
        return {
            "trie_accesses": self.trie_accesses,
            "trie_seeks": self.trie_seeks,
            "trie_nexts": self.trie_nexts,
            "trie_opens": self.trie_opens,
            "hash_probes": self.hash_probes,
            "tuples_materialized": self.tuples_materialized,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_insertions": self.cache_insertions,
            "cache_evictions": self.cache_evictions,
            "cache_rejections": self.cache_rejections,
            "results_emitted": self.results_emitted,
            "recursive_calls": self.recursive_calls,
            "memory_accesses": self.memory_accesses,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def reset(self) -> None:
        """Zero every counter."""
        for name in (
            "trie_accesses", "trie_seeks", "trie_nexts", "trie_opens",
            "hash_probes", "tuples_materialized", "cache_hits", "cache_misses",
            "cache_insertions", "cache_evictions", "cache_rejections",
            "results_emitted", "recursive_calls",
        ):
            setattr(self, name, 0)

    def merge(self, other: "OperationCounter") -> "OperationCounter":
        """Add another counter's figures into this one (and return self)."""
        self.trie_accesses += other.trie_accesses
        self.trie_seeks += other.trie_seeks
        self.trie_nexts += other.trie_nexts
        self.trie_opens += other.trie_opens
        self.hash_probes += other.hash_probes
        self.tuples_materialized += other.tuples_materialized
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_insertions += other.cache_insertions
        self.cache_evictions += other.cache_evictions
        self.cache_rejections += other.cache_rejections
        self.results_emitted += other.results_emitted
        self.recursive_calls += other.recursive_calls
        return self
