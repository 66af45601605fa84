"""Update semantics: delta storage, LSM tries, selective cache invalidation.

Covers the PR-3 mutable storage layer end to end:

* ``Database.insert`` / ``delete`` effective-delta semantics and versioning;
* the main+delta :class:`~repro.storage.trie.LsmTrieIndex` and its merging
  iterator (ordering/seek invariants, tombstones, resurrection, compaction
  equivalence);
* visibility of updates through all five registered algorithms, including a
  seeded property-style sweep against freshly-built databases;
* prepared-query warm adhesion caches surviving updates to relations their
  decomposition bags do not read;
* incremental statistics refresh.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cache import affected_cache_nodes
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query
from repro.storage.database import Database
from repro.storage.dictionary import ValueEncodingError
from repro.storage.relation import DeltaBatch, Relation, VersionedRelation
from repro.storage.statistics import StatisticsCatalog
from repro.storage.trie import LsmTrieIndex, MergedTrieIterator, TrieIndex
from repro.storage.views import signature_view_rows

from tests.conftest import brute_force_count, random_edge_database

ALGORITHMS = ("lftj", "clftj", "ytd", "pairwise")


def lazy_database(*relations, **kwargs) -> Database:
    """A database that never auto-compacts: merged-trie reads stay live."""
    kwargs.setdefault("compaction_floor", 0)
    kwargs.setdefault("compaction_threshold", 1e9)
    return Database(relations, **kwargs)


def walk_rows(index) -> list:
    """Enumerate all tuples through the iterator protocol (full DFS)."""
    iterator = index.iterator()
    rows = []

    def descend(prefix):
        iterator.open()
        while not iterator.at_end():
            key = iterator.key()
            if len(prefix) + 1 == index.depth:
                rows.append(prefix + (key,))
            else:
                descend(prefix + (key,))
            iterator.next()
        iterator.up()

    descend(())
    return rows


class TestDatabaseUpdates:
    def test_insert_returns_effective_count(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2), (2, 3)]))
        assert db.insert("E", [(3, 4), (1, 2), (3, 4)]) == 1
        assert db.relation("E").tuples == ((1, 2), (2, 3), (3, 4))

    def test_delete_returns_effective_count(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2), (2, 3)]))
        assert db.delete("E", [(1, 2), (9, 9)]) == 1
        assert db.relation("E").tuples == ((2, 3),)

    def test_noop_batch_does_not_bump_version(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2)]))
        version = db.relation_version("E")
        assert db.insert("E", [(1, 2)]) == 0
        assert db.delete("E", [(7, 7)]) == 0
        assert db.relation_version("E") == version

    def test_versions_survive_replacement(self):
        db = Database([Relation("E", ("a", "b"), [(1, 2)])])
        db.insert("E", [(2, 3)])
        before = db.relation_version("E")
        db.add_relation(Relation("E", ("a", "b"), [(5, 6)]), replace=True)
        assert db.relation_version("E") == before + 1

    def test_arity_mismatch_rejected(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2)]))
        with pytest.raises(ValueError):
            db.insert("E", [(1, 2, 3)])

    def test_unknown_relation_raises(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2)]))
        with pytest.raises(KeyError):
            db.insert("missing", [(1, 2)])

    @pytest.mark.parametrize(
        "make", [lambda *rels: Database(rels), lazy_database], ids=["eager", "lazy"]
    )
    def test_rejected_batch_is_typed_and_atomic(self, make):
        """A batch breaking the value contract changes nothing: at the
        parent the version was bumped and the indexes patched before
        ``snapshot()`` raised — and kept raising on every later read."""
        db = make(Relation("E", ("a", "b"), [(1, 2), (2, 3), (3, 1)]))
        engine = QueryEngine(db)
        query = parse_query("E(x, y), E(y, z)")
        assert engine.count(query).count == 3

        def state():
            return (
                db.relation_version("E"), db.data_version, db.relation("E").tuples,
                db.index_builds, db.index_patches, engine.count(query).count,
            )

        before = state()
        with pytest.raises(ValueEncodingError, match="'E'.*'a'.*cannot be ordered") as error:
            db.insert("E", [(5, 6), ("x", 2)])
        assert "'x'" in str(error.value)
        with pytest.raises(ValueEncodingError, match="'E'.*'b'.*not hashable"):
            db.insert("E", [(5, 6), (7, [8])])
        with pytest.raises(ValueEncodingError, match="'E'.*'b'.*not hashable"):
            db.delete("E", [(1, 2), (7, {8})])
        assert state() == before
        # A pending (unmerged) insert is ordered against as well.
        assert db.insert("E", [(4, 1)]) == 1
        with pytest.raises(ValueEncodingError, match="cannot be ordered"):
            db.insert("E", [(4, "one")])
        assert db.insert("E", [(3, 4)]) == 1
        assert db.relation("E").tuples == ((1, 2), (2, 3), (3, 1), (3, 4), (4, 1))
        assert engine.count(query).count == brute_force_count(query, db)

    def test_updates_patch_cached_tries_in_place(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2), (2, 3)]))
        trie = db.trie_index("E", (0, 1))
        builds = db.index_builds
        db.insert("E", [(3, 1)])
        assert db.trie_index("E", (0, 1)) is trie
        assert db.index_builds == builds
        assert db.index_patches == 1
        assert sorted(trie.iter_rows()) == [(1, 2), (2, 3), (3, 1)]

    def test_updates_keep_plans_replacement_drops_them(self):
        db = Database([Relation("E", ("src", "dst"), [(1, 2), (2, 3), (3, 1)])])
        engine = QueryEngine(db)
        query = cycle_query(3)
        engine.plan(query)
        assert db.plan_cache_size() == 1
        db.insert("E", [(1, 3)])
        assert db.plan_cache_size() == 1, "delta updates must keep plans"
        db.add_relation(Relation("E", ("src", "dst"), [(4, 5)]), replace=True)
        assert db.plan_cache_size() == 0

    def test_eager_compaction_below_floor(self):
        db = Database([Relation("E", ("a", "b"), [(1, 2), (2, 3)])],
                      compaction_floor=1000)
        trie = db.trie_index("E", (0, 1))
        db.insert("E", [(5, 6)])
        assert not trie.has_deltas, "small indexes fold deltas immediately"
        assert db.index_compactions >= 1

    def test_explicit_compact_folds_everything(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2), (2, 3)]))
        trie = db.trie_index("E", (0, 1))
        db.insert("E", [(4, 5)])
        db.delete("E", [(1, 2)])
        assert trie.has_deltas
        folded = db.compact("E")
        assert folded == 2
        assert not trie.has_deltas
        assert db.relation("E").tuples == ((2, 3), (4, 5))


class TestVersionedRelation:
    def test_snapshot_merges_sorted(self):
        wrapper = VersionedRelation(Relation("E", ("a", "b"), [(2, 2), (5, 5)]))
        wrapper.apply(1, inserts=[(1, 1), (9, 9)], deletes=[(5, 5)])
        assert wrapper.snapshot().tuples == ((1, 1), (2, 2), (9, 9))

    def test_delete_then_reinsert_in_one_batch_is_noop(self):
        wrapper = VersionedRelation(Relation("E", ("a", "b"), [(1, 1)]))
        batch = wrapper.apply(1, inserts=[(1, 1)], deletes=[(1, 1)])
        assert batch.is_empty
        assert wrapper.snapshot().tuples == ((1, 1),)

    def test_deltas_since_returns_applied_batches(self):
        wrapper = VersionedRelation(Relation("E", ("a", "b"), []), created_version=1)
        wrapper.apply(2, inserts=[(1, 1)])
        wrapper.apply(3, inserts=[(2, 2)])
        batches = wrapper.deltas_since(2)
        assert [batch.version for batch in batches] == [3]
        assert wrapper.deltas_since(0) is None, "predates the wrapper"

    def test_deltas_since_after_replacement_forces_recompute(self):
        db = Database([Relation("E", ("a", "b"), [(1, 2)])])
        db.add_relation(Relation("E", ("a", "b"), [(3, 4)]), replace=True)
        assert db.deltas_since("E", 1) is None

    def test_compact_preserves_log(self):
        wrapper = VersionedRelation(Relation("E", ("a", "b"), [(1, 1)]), created_version=1)
        wrapper.apply(2, inserts=[(2, 2)])
        wrapper.compact()
        assert wrapper.delta_size == 0
        assert [batch.version for batch in wrapper.deltas_since(1)] == [2]


class TestLsmTrie:
    def build(self, rows):
        return LsmTrieIndex(TrieIndex.from_tuples(rows, name="T"))

    def test_iterator_is_plain_without_deltas(self):
        index = self.build([(1, 2)])
        assert not isinstance(index.iterator(), MergedTrieIterator)
        index.apply_delta(inserted=[(3, 4)])
        assert isinstance(index.iterator(), MergedTrieIterator)

    def test_merged_enumeration_is_sorted_union(self):
        index = self.build([(1, 2), (1, 4), (3, 1)])
        index.apply_delta(inserted=[(0, 9), (1, 3), (3, 0), (4, 4)], deleted=[(1, 4)])
        expected = [(0, 9), (1, 2), (1, 3), (3, 0), (3, 1), (4, 4)]
        assert walk_rows(index) == expected
        assert list(index.iter_rows()) == expected
        assert index.tuple_count() == len(expected)

    def test_seek_lands_on_least_key_geq(self):
        index = self.build([(1, 2), (3, 1), (7, 7)])
        index.apply_delta(inserted=[(5, 5)], deleted=[(3, 1)])
        # level-0 keys are now [1, 5, 7]
        iterator = index.iterator()
        iterator.open()
        iterator.seek(2)
        assert iterator.key() == 5
        iterator.seek(5)
        assert iterator.key() == 5, "seek never moves backwards past a match"
        iterator.seek(6)
        assert iterator.key() == 7
        iterator.seek(100)
        assert iterator.at_end()

    def test_tombstone_suppresses_fully_deleted_prefix(self):
        index = self.build([(1, 2), (1, 3), (2, 5)])
        index.apply_delta(deleted=[(1, 2), (1, 3)])
        assert walk_rows(index) == [(2, 5)]
        iterator = index.iterator()
        iterator.open()
        assert iterator.key() == 2, "key 1 has no live tuples left"

    def test_partial_tombstone_keeps_prefix(self):
        index = self.build([(1, 2), (1, 3)])
        index.apply_delta(deleted=[(1, 2)])
        assert walk_rows(index) == [(1, 3)]

    def test_delta_insert_shields_tombstoned_prefix(self):
        index = self.build([(1, 2)])
        index.apply_delta(inserted=[(1, 9)], deleted=[(1, 2)])
        assert walk_rows(index) == [(1, 9)]

    def test_reinsert_resurrects_tombstoned_tuple(self):
        index = self.build([(1, 2)])
        index.apply_delta(deleted=[(1, 2)])
        assert walk_rows(index) == []
        index.apply_delta(inserted=[(1, 2)])
        assert walk_rows(index) == [(1, 2)]
        assert not index.has_deltas, "resurrection cancels the tombstone"

    def test_delete_of_pending_insert_retracts_it(self):
        index = self.build([(1, 2)])
        index.apply_delta(inserted=[(5, 5)])
        index.apply_delta(deleted=[(5, 5)])
        assert walk_rows(index) == [(1, 2)]
        assert not index.has_deltas

    def test_contains_reflects_deltas(self):
        index = self.build([(1, 2), (3, 4)])
        index.apply_delta(inserted=[(9, 9)], deleted=[(3, 4)])
        assert index.contains((1, 2))
        assert index.contains((9, 9))
        assert not index.contains((3, 4))

    def test_compaction_equivalence(self):
        rng = random.Random(42)
        rows = {(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                for _ in range(60)}
        index = LsmTrieIndex(TrieIndex.from_tuples(sorted(rows), name="T"))
        inserted = {(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                    for _ in range(25)} - rows
        deleted = set(rng.sample(sorted(rows), 20))
        index.apply_delta(inserted=inserted, deleted=deleted)
        final = sorted((rows | inserted) - deleted)
        assert list(index.iter_rows()) == final
        index.compact()
        rebuilt = TrieIndex.from_tuples(final, name="T")
        assert list(index.main.iter_rows()) == list(rebuilt.iter_rows())
        assert index.main.level_sizes() == rebuilt.level_sizes()
        assert not index.has_deltas
        assert walk_rows(index) == final

    def test_merged_iterator_guard_rails(self):
        index = self.build([(1, 2)])
        index.apply_delta(inserted=[(3, 4)])
        iterator = index.iterator()
        with pytest.raises(RuntimeError):
            iterator.key()
        with pytest.raises(RuntimeError):
            iterator.up()
        iterator.open()
        iterator.open()
        with pytest.raises(RuntimeError):
            iterator.open()  # past the last level

    def test_merged_iterator_reports_operations(self):
        from repro.core.instrumentation import OperationCounter

        index = self.build([(1, 2), (5, 6)])
        index.apply_delta(inserted=[(3, 4)])
        counter = OperationCounter()
        iterator = index.iterator(counter)
        iterator.open()
        while not iterator.at_end():
            iterator.next()
        assert counter.trie_opens == 1
        assert counter.trie_nexts == 3
        assert counter.memory_accesses > 0


class TestSignatureViewRows:
    def test_identity_signature_passes_rows_through(self):
        assert signature_view_rows((0, 1), [(1, 2), (3, 4)]) == [(1, 2), (3, 4)]

    def test_repeated_variable_filters_and_projects(self):
        assert signature_view_rows((0, 0), [(1, 1), (1, 2), (3, 3)]) == [(1,), (3,)]

    def test_constant_marker_selects(self):
        signature = (0, ("c", 3), 1)
        rows = [(1, 3, 2), (1, 4, 2), (5, 3, 6)]
        assert signature_view_rows(signature, rows) == [(1, 2), (5, 6)]


class TestUpdateVisibility:
    """Inserts/deletes must be visible through every registered algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("eager", [False, True], ids=["merged", "compacted"])
    def test_triangle_counts_after_updates(self, algorithm, eager):
        base = random_edge_database(num_nodes=12, num_edges=40, seed=5)
        edges = set(base.relation("E").tuples)
        relation = Relation("E", ("src", "dst"), edges)
        db = Database([relation]) if eager else lazy_database(relation)
        engine = QueryEngine(db)
        query = cycle_query(3)
        engine.count(query, algorithm=algorithm)  # warm the caches
        rng = random.Random(11)
        inserts = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(15)}
        inserts = {edge for edge in inserts if edge[0] != edge[1]}
        deletes = set(rng.sample(sorted(edges), 10))
        db.insert("E", inserts)
        db.delete("E", deletes)
        fresh = Database([Relation("E", ("src", "dst"), (edges | inserts) - deletes)])
        expected = brute_force_count(query, fresh)
        assert engine.count(query, algorithm=algorithm).count == expected
        assert (
            sorted(r for r in engine.evaluate(query, algorithm=algorithm).rows)
            == sorted(r for r in QueryEngine(fresh).evaluate(query, algorithm=algorithm).rows)
        )

    @pytest.mark.parametrize("eager", [False, True], ids=["merged", "compacted"])
    def test_property_random_update_sequences(self, eager):
        """Property-style: any seeded insert/delete sequence ends equal to a
        freshly built database with the final tuples, for every algorithm."""
        query = parse_query("E(x, y), E(y, z), E(z, x)")
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            edges = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(30)}
            edges = {edge for edge in edges if edge[0] != edge[1]}
            factory = (lambda rel: Database([rel])) if eager else (
                lambda rel: lazy_database(rel)
            )
            db = factory(Relation("E", ("src", "dst"), edges))
            engine = QueryEngine(db)
            current = set(edges)
            for _ in range(4):
                inserts = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(6)}
                inserts = {edge for edge in inserts if edge[0] != edge[1]}
                deletes = set(rng.sample(sorted(current), min(4, len(current))))
                db.insert("E", inserts)
                db.delete("E", deletes)
                current = (current | inserts) - deletes
                fresh = Database([Relation("E", ("src", "dst"), current)])
                expected = brute_force_count(query, fresh)
                counts = {
                    algorithm: engine.count(query, algorithm=algorithm).count
                    for algorithm in ALGORITHMS
                }
                assert set(counts.values()) == {expected}, (seed, counts, expected)
                assert db.relation("E").tuples == fresh.relation("E").tuples


class TestPreparedCacheSurvival:
    def make_db(self, seed=9):
        rng = random.Random(seed)
        rows_r = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(45)}
        rows_s = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(45)}
        rows_t = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(10)}
        return Database([
            Relation("R", ("a", "b"), rows_r),
            Relation("S", ("b", "c"), rows_s),
            Relation("T", ("x", "y"), rows_t),
        ])

    def test_unrelated_relation_update_keeps_caches_warm(self):
        db = self.make_db()
        engine = QueryEngine(db)
        prepared = engine.prepare(parse_query("R(x, y), S(y, z)"), algorithm="clftj")
        prepared.count()
        warm = prepared.count()
        assert warm.counter.cache_hits > 0, "the handle must be warm"
        db.insert("T", [(100, 200)])
        after = prepared.count()
        assert prepared.cache_invalidations == 0
        assert after.counter.cache_hits == warm.counter.cache_hits

    def test_root_bag_relation_update_keeps_subtree_caches(self):
        db = self.make_db()
        engine = QueryEngine(db)
        prepared = engine.prepare(parse_query("R(x, y), S(y, z)"), algorithm="clftj")
        prepared.count()
        warm = prepared.count()
        decomposition = prepared._cache_decomposition
        # Cache entries only exist for non-root nodes, so a relation whose
        # affected set stays within the root cannot drop any warm entry.
        root_only = {decomposition.root}
        root_relations = {
            atom.relation
            for atom in prepared.query.atoms
            if affected_cache_nodes(decomposition, prepared.query, {atom.relation})
            <= root_only
        }
        if not root_relations:
            pytest.skip("plan put both atoms below the root for this data")
        target = root_relations.pop()
        db.insert(target, [(1, 2)])
        after = prepared.count()
        assert prepared.cache_invalidations == 0, (
            f"update to root-bag relation {target!r} must not drop subtree caches"
        )
        assert after.counter.cache_hits > 0
        # correctness: matches a freshly planned engine on the same data
        assert after.count == QueryEngine(db).count(prepared.query).count

    def test_subtree_relation_update_invalidates_selectively(self):
        db = self.make_db()
        engine = QueryEngine(db)
        prepared = engine.prepare(parse_query("R(x, y), S(y, z)"), algorithm="clftj")
        prepared.count()
        prepared.count()
        inserted = db.insert("S", [(1, 2), (3, 4)])
        after = prepared.count()
        if inserted:
            assert prepared.cache_invalidations > 0
        assert after.count == QueryEngine(db).count(prepared.query).count

    def test_explicit_cache_parameter_is_invalidated_too(self):
        """Regression: a caller-supplied cache= serves hits like the handle's
        own caches, so data changes must invalidate it as well."""
        from repro.core.cache import AdhesionCache

        db = self.make_db()
        engine = QueryEngine(db)
        query = parse_query("R(x, y), S(y, z)")
        prepared = engine.prepare(query, algorithm="clftj", cache=AdhesionCache())
        prepared.count()
        warm = prepared.count()
        assert warm.counter.cache_hits > 0
        db.insert("S", [(1, 2), (2, 5), (3, 7)])
        db.delete("S", [db.relation("S").tuples[0]])
        after = prepared.count()
        assert after.count == QueryEngine(db).count(query).count

    def test_replacement_still_invalidates(self):
        db = self.make_db()
        engine = QueryEngine(db)
        prepared = engine.prepare(parse_query("R(x, y), S(y, z)"), algorithm="clftj")
        prepared.count()
        db.add_relation(Relation("S", ("b", "c"), [(1, 1)]), replace=True)
        after = prepared.count()
        assert after.count == QueryEngine(db).count(prepared.query).count


class TestIncrementalStatistics:
    def test_catalog_notices_replacement(self):
        """Regression: stats must not be served stale after a replacement."""
        db = Database([Relation("E", ("a", "b"), [(1, 2), (1, 3)])])
        catalog = StatisticsCatalog(db)
        assert catalog.relation("E").cardinality == 2
        db.add_relation(
            Relation("E", ("a", "b"), [(1, 2), (2, 3), (3, 4)]), replace=True
        )
        assert catalog.relation("E").cardinality == 3
        assert catalog.full_recomputes == 2

    def test_catalog_refreshes_incrementally_from_deltas(self):
        db = lazy_database(Relation("E", ("a", "b"), [(1, 2), (1, 3), (2, 3)]))
        catalog = StatisticsCatalog(db)
        catalog.relation("E")
        db.insert("E", [(1, 4), (5, 5)])
        db.delete("E", [(2, 3)])
        stats = catalog.relation("E")
        assert catalog.incremental_refreshes == 1
        assert catalog.full_recomputes == 1
        reference = StatisticsCatalog(db).relation("E")
        assert stats.cardinality == reference.cardinality == 4
        for attribute in ("a", "b"):
            assert stats.attribute(attribute) == reference.attribute(attribute)

    def test_auto_selector_uses_fresh_statistics(self):
        """Regression: ``algorithm="auto"`` must re-read statistics after a
        relation is replaced (the catalog used to memoise forever)."""
        db = Database([Relation("E", ("src", "dst"), [(1, 2), (2, 3), (3, 1)])])
        engine = QueryEngine(db)
        query = cycle_query(3)
        engine.count(query, algorithm="auto")
        rng = random.Random(1)
        edges = {(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(300)}
        db.add_relation(Relation("E", ("src", "dst"), edges), replace=True)
        engine.count(query, algorithm="auto")
        stats = db.statistics.relation("E")
        assert stats.cardinality == len(db.relation("E"))


class TestRelationSatellites:
    def test_hash_is_cached_and_stable(self):
        relation = Relation("E", ("a", "b"), [(1, 2), (3, 4)])
        first = hash(relation)
        assert relation._cached_hash == first
        assert hash(relation) == first
        twin = Relation("E", ("a", "b"), [(3, 4), (1, 2)])
        assert hash(twin) == first

    def test_value_counts_counter(self):
        relation = Relation("E", ("a", "b"), [(1, 2), (1, 3), (2, 3)])
        assert relation.value_counts("a") == {1: 2, 2: 1}
        assert relation.value_counts("b") == {2: 1, 3: 2}


class TestDeltaBatch:
    def test_len_and_empty(self):
        empty = DeltaBatch(version=1, inserted=(), deleted=())
        assert empty.is_empty and len(empty) == 0
        batch = DeltaBatch(version=2, inserted=((1, 2),), deleted=((3, 4),))
        assert not batch.is_empty and len(batch) == 2
