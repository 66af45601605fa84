"""Cross-algorithm integration tests on the paper's workload stand-ins.

Every algorithm must produce identical counts (and identical result sets) on
the actual benchmark datasets, not just on the synthetic unit-test graphs.
These tests intentionally use small scales so they stay fast.
"""

import pytest

from repro.bench.workloads import imdb_database, snap_databases
from repro.engine.engine import QueryEngine
from repro.query.patterns import (
    bipartite_cycle_query,
    cycle_query,
    lollipop_query,
    path_query,
    random_pattern_query,
)

ALGOS = ("lftj", "clftj", "ytd", "pairwise")


@pytest.fixture(scope="module")
def small_snap():
    return snap_databases(("wiki-Vote", "p2p-Gnutella04"), scale=0.35)


@pytest.fixture(scope="module")
def small_imdb():
    return imdb_database(scale=0.3)


class TestSnapAgreement:
    @pytest.mark.parametrize("query_factory", [
        lambda: path_query(3),
        lambda: path_query(4),
        lambda: cycle_query(4),
        lambda: cycle_query(5),
        lambda: lollipop_query(3, 2),
        lambda: random_pattern_query(5, 0.4, seed=11),
    ])
    @pytest.mark.parametrize("dataset", ["wiki-Vote", "p2p-Gnutella04"])
    def test_count_agreement(self, small_snap, dataset, query_factory):
        query = query_factory()
        engine = QueryEngine(small_snap[dataset])
        counts = {algo: engine.count(query, algorithm=algo).count for algo in ALGOS}
        assert len(set(counts.values())) == 1, counts

    def test_evaluation_agreement(self, small_snap):
        query = cycle_query(4)
        engine = QueryEngine(small_snap["wiki-Vote"])
        canonical = {}
        for algorithm in ("lftj", "clftj", "ytd"):
            result = engine.evaluate(query, algorithm=algorithm)
            by_name = {variable: index for index, variable in enumerate(result.variable_order)}
            positions = [by_name[variable] for variable in query.variables]
            canonical[algorithm] = {tuple(row[p] for p in positions) for row in result.rows}
        assert canonical["lftj"] == canonical["clftj"] == canonical["ytd"]


class TestImdbAgreement:
    @pytest.mark.parametrize("length", [4, 6])
    def test_bipartite_cycles(self, small_imdb, length):
        query = bipartite_cycle_query(length)
        engine = QueryEngine(small_imdb)
        counts = {
            algo: engine.count(query, algorithm=algo).count
            for algo in ("lftj", "clftj", "ytd")
        }
        assert len(set(counts.values())) == 1, counts


class TestPaperShapeProperties:
    def test_clftj_beats_lftj_on_skewed_snap_paths(self, small_snap):
        """The headline claim: CLFTJ needs far less trie traffic than LFTJ."""
        query = path_query(4)
        engine = QueryEngine(small_snap["wiki-Vote"])
        lftj = engine.count(query, algorithm="lftj")
        clftj = engine.count(query, algorithm="clftj")
        assert clftj.count == lftj.count
        assert clftj.memory_accesses < lftj.memory_accesses

    def test_clftj_matches_lftj_on_triangles(self, small_snap):
        """3-cycles admit no decomposition, so CLFTJ is effectively LFTJ."""
        query = cycle_query(3)
        engine = QueryEngine(small_snap["wiki-Vote"])
        lftj = engine.count(query, algorithm="lftj")
        clftj = engine.count(query, algorithm="clftj")
        assert clftj.count == lftj.count
        assert clftj.counter.cache_hits == 0
