"""Tests for relation/attribute statistics: the database's one catalog."""

import gc
import weakref

import pytest

from repro.core.policies import SkewAwarePolicy
from repro.baselines.binary_join import PairwiseHashJoin
from repro.engine.engine import QueryEngine
from repro.engine.parallel import PartitionPlanner
from repro.query.patterns import path_query
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.statistics import StatisticsCatalog


@pytest.fixture
def skewed() -> Relation:
    rows = [(1, value) for value in range(10)] + [(2, 11), (3, 12)]
    return Relation("E", ("src", "dst"), rows)


@pytest.fixture
def database(skewed) -> Database:
    return Database([skewed])


def attribute(relation: Relation, name: str):
    database = Database([relation])  # the catalog holds its database weakly
    return database.statistics.attribute(relation.name, name)


class TestAttributeStatistics:
    def test_cardinality_and_distinct(self, skewed):
        stats = attribute(skewed, "src")
        assert stats.cardinality == 12
        assert stats.distinct == 3

    def test_skew_ordering(self, skewed):
        assert attribute(skewed, "src").skew > attribute(skewed, "dst").skew

    def test_uniform_attribute_has_zero_skew(self):
        rows = [(value, value) for value in range(10)]
        relation = Relation("U", ("a", "b"), rows)
        assert attribute(relation, "a").skew == pytest.approx(0.0)

    def test_single_value_attribute_has_full_skew(self):
        relation = Relation("S", ("a", "b"), [(1, i) for i in range(5)])
        assert attribute(relation, "a").skew == pytest.approx(1.0)

    def test_empty_relation(self):
        stats = attribute(Relation("E", ("a", "b"), []), "a")
        assert stats.cardinality == 0
        assert stats.distinct == 0
        assert stats.skew == 0.0


class TestRelationStatistics:
    def test_all_attributes_covered(self, database):
        stats = database.statistics.relation("E")
        assert set(stats.attributes) == {"src", "dst"}

    def test_distinct_shortcut(self, database):
        assert database.statistics.relation("E").distinct("src") == 3

    def test_unknown_attribute(self, database):
        with pytest.raises(KeyError):
            database.statistics.relation("E").attribute("missing")


class TestCatalog:
    def test_catalog_lazy_and_cached(self, database):
        catalog = database.statistics
        first = catalog.relation("E")
        second = catalog.relation("E")
        assert first is second

    def test_catalog_attribute_access(self, database):
        catalog = StatisticsCatalog(database)
        assert catalog.attribute("E", "src").distinct == 3

    def test_a_database_is_freed_without_the_cycle_collector(self, skewed):
        """The catalog holds its database weakly: a strong reference back
        made every database a cycle, so a closed database kept its tries
        and drivers until the cyclic collector ran."""
        database = Database([skewed])
        engine = QueryEngine(database)
        for algorithm in ("lftj", "clftj", "auto", "ytd", "pairwise"):
            engine.count(path_query(3), algorithm=algorithm)
        freed = weakref.ref(database)
        gc.disable()
        try:
            del engine, database
            assert freed() is None
        finally:
            gc.enable()

    def test_value_frequencies_are_a_copy(self, database):
        catalog = database.statistics
        counts = catalog.value_frequencies("E", "src")
        assert counts == {1: 10, 2: 1, 3: 1}
        counts[1] = 0
        assert catalog.value_frequencies("E", "src")[1] == 10

    def test_every_reader_shares_the_databases_catalog(self, database):
        """Planning, selection, the partition planner, the pairwise
        baseline and the skew-aware policy all read one catalog: the
        relation is scanned once, however many of them ask."""
        engine = QueryEngine(database)
        query = path_query(3)
        plan = engine.plan(query)
        engine.selector.choose(query, plan)
        engine.selector.recommend_morsels(query, plan.variable_order, workers=2, plan=plan)
        database.trie_index("E", (0, 1))
        PartitionPlanner(database).plan(query, plan.variable_order, 4)
        PairwiseHashJoin(query, database).plan()
        SkewAwarePolicy(database, query, plan.decomposition)
        assert database.statistics.full_recomputes == 1
        assert database.statistics.incremental_refreshes == 0
