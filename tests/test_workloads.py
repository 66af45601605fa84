"""Tests for the figure-by-figure workload definitions."""

import pytest

from repro.bench.workloads import (
    FIGURE5_DATASETS,
    cycle_queries,
    evaluation_datasets,
    figure10_cache_sizes,
    figure10_queries,
    imdb_database,
    lollipop_workload,
    path_queries,
    random_queries,
    snap_databases,
)


class TestSnapWorkloads:
    def test_figure5_datasets_resolvable(self):
        databases = snap_databases(FIGURE5_DATASETS)
        assert set(databases) == set(FIGURE5_DATASETS)
        assert all(len(db.relation("E")) > 0 for db in databases.values())

    def test_scale_parameter(self):
        small = snap_databases(("wiki-Vote",), scale=0.5)["wiki-Vote"]
        regular = snap_databases(("wiki-Vote",), scale=1.0)["wiki-Vote"]
        assert len(small.relation("E")) < len(regular.relation("E"))

    def test_evaluation_datasets_are_smaller(self):
        eval_db = evaluation_datasets()["wiki-Vote"]
        count_db = snap_databases(("wiki-Vote",))["wiki-Vote"]
        assert len(eval_db.relation("E")) <= len(count_db.relation("E"))


class TestQueryFamilies:
    def test_path_queries_cover_3_to_7(self):
        names = [query.name for query in path_queries()]
        assert names == ["3-path", "4-path", "5-path", "6-path", "7-path"]

    def test_cycle_queries_cover_3_to_6(self):
        names = [query.name for query in cycle_queries()]
        assert names == ["3-cycle", "4-cycle", "5-cycle", "6-cycle"]

    def test_random_queries_connected_and_named(self):
        queries = random_queries(patterns_per_setting=1)
        assert len(queries) == 2
        assert all("rand" in query.name for query in queries)

    def test_figure10_queries_are_imdb_cycles(self):
        queries = figure10_queries()
        assert [len(query) for query in queries] == [4, 6]
        assert all(
            set(query.relation_names) == {"male_cast", "female_cast"} for query in queries
        )

    def test_figure10_cache_sizes_increasing(self):
        sizes = figure10_cache_sizes()
        assert list(sizes) == sorted(sizes)
        assert sizes[0] == 0


class TestOtherWorkloads:
    def test_imdb_database_has_both_relations(self):
        database = imdb_database()
        assert set(database.relation_names) == {"male_cast", "female_cast"}

    def test_imdb_scale(self):
        assert len(imdb_database(scale=0.5).relation("male_cast")) < len(
            imdb_database(scale=1.0).relation("male_cast")
        )

    def test_lollipop_workload(self):
        query, databases = lollipop_workload()
        assert query.name == "{3,2}-lollipop"
        assert set(databases) == {"wiki-Vote", "ca-GrQc"}

