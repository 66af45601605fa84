"""Tests for the Database catalog."""

import sys

import pytest

from repro.storage.database import Database
from repro.storage.relation import Relation


@pytest.fixture
def db() -> Database:
    return Database(
        [
            Relation("E", ("src", "dst"), [(1, 2), (2, 3)]),
            Relation("R", ("a", "b"), [(5, 6)]),
        ],
        name="test",
    )


class TestCatalog:
    def test_lookup(self, db):
        assert len(db.relation("E")) == 2

    def test_unknown_relation(self, db):
        with pytest.raises(KeyError):
            db.relation("missing")

    def test_contains(self, db):
        assert "E" in db
        assert "missing" not in db

    def test_len_and_names(self, db):
        assert len(db) == 2
        assert set(db.relation_names) == {"E", "R"}

    def test_duplicate_add_rejected(self, db):
        with pytest.raises(ValueError):
            db.add_relation(Relation("E", ("src", "dst"), []))

    def test_replace_allowed(self, db):
        db.add_relation(Relation("E", ("src", "dst"), [(9, 9)]), replace=True)
        assert len(db.relation("E")) == 1

    def test_total_tuples(self, db):
        assert db.total_tuples() == 3

    def test_summary(self, db):
        assert db.summary() == {"E": 2, "R": 1}


class TestTrieCache:
    def test_trie_index_memoised(self, db):
        first = db.trie_index("E", (0, 1))
        second = db.trie_index("E", (0, 1))
        assert first is second

    def test_different_orders_distinct(self, db):
        assert db.trie_index("E", (0, 1)) is not db.trie_index("E", (1, 0))

    def test_replace_invalidates_cache(self, db):
        stale = db.trie_index("E", (0, 1))
        db.add_relation(Relation("E", ("src", "dst"), [(7, 8)]), replace=True)
        fresh = db.trie_index("E", (0, 1))
        assert stale is not fresh


class TestMemoryFootprint:
    def test_the_value_dictionarys_tables_are_counted(self):
        """``ValueDictionary`` keeps its code and value tables in slots: the
        footprint walks them, so it grows by at least what they grow by."""
        database = Database([Relation("E", ("a", "b"), [(1, 2)])])
        dictionary = database.dictionary

        def tables():
            return sys.getsizeof(dictionary._codes) + sys.getsizeof(dictionary._values)

        empty = database.memory_footprint()
        assert empty >= tables()
        before = tables()
        database.insert("E", [(index + 10, index + 20) for index in range(500)])
        database.trie_index("E", (0, 1))
        assert tables() > before
        assert database.memory_footprint() - empty >= tables() - before

    def test_a_trie_is_counted_by_its_columns(self):
        """A cached trie keeps its key columns in slots too."""
        database = Database([Relation("E", ("a", "b"), [(i, i + 1) for i in range(2000)])])
        empty = database.memory_footprint()
        trie = database.trie_index("E", (0, 1))
        columns = sum(map(sys.getsizeof, trie.main._keys[0:1]))
        assert database.memory_footprint() - empty >= columns

    def test_a_tries_key_columns_are_charged_once(self):
        """A trie's ``array('q')`` key columns are charged once, not once
        per object that refers to them.  300 distinct values keep the
        dictionary's share small."""
        rows = [(a, 1000 + b) for a in range(200) for b in range(100)]
        database = Database([Relation("E", ("a", "b"), rows)])
        empty = database.memory_footprint()
        trie = database.trie_index("E", (0, 1))
        keys = sum(map(sys.getsizeof, trie.main._keys))
        grown = database.memory_footprint() - empty
        assert keys <= grown < 2 * keys
