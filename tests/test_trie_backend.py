"""The columnar trie: differential tests against the reference node trie
(``tests/node_trie.py``), shared-index-cache semantics, and cross-algorithm
agreement."""

import random

import pytest

from repro.baselines.yannakakis import YannakakisTreeJoin
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import generic_decompose
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query, star_query
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex
from repro.storage.views import atom_signature, atom_trie

from tests.conftest import brute_force_count, brute_force_evaluate, random_edge_database
from tests.node_trie import NodeTrieIndex


def _random_relation(rng: random.Random, arity: int, rows: int, domain: int) -> Relation:
    tuples = {
        tuple(rng.randint(0, domain) for _ in range(arity)) for _ in range(rows)
    }
    return Relation("T", tuple(f"c{i}" for i in range(arity)), tuples)


def _enumerate(index) -> list:
    """Full depth-first enumeration through the iterator interface."""
    iterator = index.iterator()
    results = []

    def walk(prefix):
        iterator.open()
        while not iterator.at_end():
            value = prefix + (iterator.key(),)
            if len(value) == index.depth:
                results.append(value)
            else:
                walk(value)
            iterator.next()
        iterator.up()

    walk(())
    return results


class TestColumnarMatchesNodeBackend:
    @pytest.mark.parametrize("arity,rows,domain,seed", [
        (1, 30, 10, 0),
        (2, 50, 8, 1),
        (2, 200, 30, 2),
        (3, 120, 6, 3),
        (3, 40, 3, 4),
    ])
    def test_enumeration_identical(self, arity, rows, domain, seed):
        relation = _random_relation(random.Random(seed), arity, rows, domain)
        order = tuple(random.Random(seed + 100).sample(range(arity), arity))
        columnar = TrieIndex.build(relation, order)
        nodes = NodeTrieIndex.build(relation, order)
        assert _enumerate(columnar) == _enumerate(nodes)
        assert columnar.tuple_count() == nodes.tuple_count()
        assert len(columnar) == len(nodes)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_walks_identical_including_counters(self, seed):
        """Identical operation sequences give identical keys AND identical
        memory-access accounting on both backends."""
        rng = random.Random(seed)
        relation = _random_relation(rng, 3, 80, 5)
        col_counter, node_counter = OperationCounter(), OperationCounter()
        col = TrieIndex.build(relation, (0, 1, 2)).iterator(col_counter)
        node = NodeTrieIndex.build(relation, (0, 1, 2)).iterator(node_counter)

        def step(action, argument=None):
            outcomes = []
            for iterator in (col, node):
                try:
                    result = getattr(iterator, action)(*([argument] if argument is not None else []))
                    outcomes.append(("ok", result))
                except RuntimeError:
                    outcomes.append(("error", None))
            assert outcomes[0] == outcomes[1], f"divergence on {action}({argument})"
            return outcomes[0]

        for _ in range(400):
            choice = rng.random()
            if choice < 0.35:
                step("open")
            elif choice < 0.5:
                step("up")
            elif choice < 0.7:
                step("next")
            elif choice < 0.9:
                step("seek", rng.randint(0, 6))
            else:
                status, _ = step("at_end")
                if status == "ok":
                    step("key")
            assert col.depth == node.depth
            if col.depth:
                assert col.current_prefix() == node.current_prefix()
        assert col_counter.as_dict() == node_counter.as_dict()

    def test_empty_relation_both_backends(self):
        empty = Relation("E", ("a", "b"), [])
        for cls in (TrieIndex, NodeTrieIndex):
            iterator = cls.build(empty, (0, 1)).iterator()
            iterator.open()
            assert iterator.at_end()
            with pytest.raises(RuntimeError):
                iterator.open()

    def test_level_sizes(self):
        trie = TrieIndex.from_tuples([(1, 2), (1, 3), (2, 2)])
        assert trie.level_sizes() == (2, 3)


class TestSharedIndexCache:
    def test_atom_trie_identity_across_constructions(self, small_graph_db):
        query = cycle_query(3)
        first = LeapfrogTrieJoin(query, small_graph_db)
        second = LeapfrogTrieJoin(query, small_graph_db)
        for left, right in zip(first._atom_tries, second._atom_tries):
            assert left is right

    def test_triangle_self_join_shares_tries_between_atoms(self, small_graph_db):
        """E(x1,x2) and E(x2,x3) induce the same (signature, order) view, so
        the triangle needs only two physical tries, not three."""
        small_graph_db.clear_index_cache()
        builds_before = small_graph_db.index_builds
        joiner = LeapfrogTrieJoin(cycle_query(3), small_graph_db)
        assert joiner._atom_tries[0] is joiner._atom_tries[1]
        assert small_graph_db.index_builds - builds_before == 2

    def test_warm_engine_runs_build_no_new_tries(self, small_graph_db):
        engine = QueryEngine(small_graph_db)
        query = cycle_query(3)
        first = engine.count(query, algorithm="lftj")
        builds_after_first = small_graph_db.index_builds
        second = engine.count(query, algorithm="lftj")
        third = engine.count(query, algorithm="lftj")
        assert first.count == second.count == third.count
        assert small_graph_db.index_builds == builds_after_first
        assert small_graph_db.index_cache_hits > 0

    def test_tries_shared_across_algorithms(self, small_graph_db):
        """LFTJ and CLFTJ draw from the same cache when their per-atom level
        orders coincide."""
        engine = QueryEngine(small_graph_db)
        query = path_query(3)
        engine.count(query, algorithm="lftj")
        builds_after_lftj = small_graph_db.index_builds
        engine.count(query, algorithm="lftj")
        assert small_graph_db.index_builds == builds_after_lftj

    def test_signature_erases_variable_names(self):
        left = parse_query("E(x, y)").atoms[0]
        right = parse_query("E(a, b)").atoms[0]
        assert atom_signature(left) == atom_signature(right) == (0, 1)
        repeated = parse_query("E(x, x)").atoms[0]
        assert atom_signature(repeated) == (0, 0)
        constant = parse_query("R(x, 3, y)").atoms[0]
        assert atom_signature(constant) == (0, ("c", 3), 1)

    def test_renamed_queries_share_tries(self, small_graph_db):
        first = LeapfrogTrieJoin(parse_query("E(x, y), E(y, z)"), small_graph_db)
        second = LeapfrogTrieJoin(parse_query("E(a, b), E(b, c)"), small_graph_db)
        assert first._atom_tries[0] is second._atom_tries[0]

    def test_selective_atoms_do_not_collide(self, small_graph_db):
        edge = small_graph_db.relation("E").tuples[0]
        query = parse_query(f"E(x, y), E(y, {edge[1]})")
        plain = atom_trie(small_graph_db, query.atoms[0], (0, 1))
        selected = atom_trie(small_graph_db, query.atoms[1], (0,))
        assert plain is not selected
        expected = brute_force_count(query, small_graph_db)
        assert LeapfrogTrieJoin(query, small_graph_db).count() == expected

    def test_constant_bearing_atoms_bypass_the_cache(self, small_graph_db):
        """Signatures embedding constants must not pile up in the cache — a
        parameterized workload would otherwise leak one index per value."""
        small_graph_db.clear_index_cache()
        for value in range(1, 6):
            query = parse_query(f"E(x, y), E(y, {value})")
            LeapfrogTrieJoin(query, small_graph_db).count()
        cached_signatures = small_graph_db.index_cache_size()
        assert cached_signatures == 1  # only the constant-free E(x, y) trie

    def test_replacing_relation_invalidates_shared_tries(self, small_graph_db):
        query = cycle_query(3)
        stale = LeapfrogTrieJoin(query, small_graph_db)._atom_tries[0]
        replacement = Relation("E", ("src", "dst"), [(1, 2), (2, 3), (3, 1)])
        small_graph_db.add_relation(replacement, replace=True)
        fresh = LeapfrogTrieJoin(query, small_graph_db)
        assert fresh._atom_tries[0] is not stale
        # The single directed 3-cycle matches in its three rotations.
        assert fresh.count() == 3

    @pytest.mark.parametrize("length", [3, 5])
    def test_ytd_bags_join_over_the_lftj_tries(self, small_graph_db, length):
        """YTD's per-bag joins are LFTJ over the shared tries: after an LFTJ
        count, a YTD count of the same cycle builds no index of its own."""
        engine = QueryEngine(small_graph_db)
        query = cycle_query(length)
        lftj = engine.count(query, algorithm="lftj")
        builds = small_graph_db.index_builds
        ytd = engine.count(query, algorithm="ytd")
        assert ytd.count == lftj.count
        assert ytd.metadata["index_builds"] == 0
        assert small_graph_db.index_builds == builds

    def test_trie_backend_is_not_an_option(self, small_graph_db):
        """One trie layout: asking an executor for another fails loudly."""
        with pytest.raises(TypeError, match="trie_backend"):
            LeapfrogTrieJoin(cycle_query(3), small_graph_db, trie_backend="nodes")


class TestBackendAgreement:
    """LFTJ / CLFTJ / YTD agree on the columnar backend."""

    QUERIES = [
        lambda: cycle_query(3),
        lambda: cycle_query(4),
        lambda: path_query(3),
        lambda: star_query(3),
        lambda: parse_query("E(x, y), E(y, x)", name="2-loop"),
        lambda: parse_query("E(x, x), E(x, y)", name="self-loop-out"),
    ]

    @pytest.mark.parametrize("query_factory", QUERIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_counts_agree(self, query_factory, seed):
        database = random_edge_database(seed=seed)
        query = query_factory()
        expected = brute_force_count(query, database)
        assert LeapfrogTrieJoin(query, database).count() == expected
        decomposition = generic_decompose(query)
        assert YannakakisTreeJoin(query, database, decomposition).count() == expected
        clftj = CachedLeapfrogTrieJoin(query, database, decomposition)
        assert clftj.count() == expected

    @pytest.mark.parametrize("query_factory", QUERIES)
    def test_evaluation_sets_agree(self, query_factory):
        database = random_edge_database(seed=11)
        query = query_factory()
        expected = brute_force_evaluate(query, database)

        def rows(executor):
            order = executor.variable_order
            return {
                tuple(dict(zip(order, row))[variable] for variable in query.variables)
                for row in executor.evaluate()
            }

        assert rows(LeapfrogTrieJoin(query, database)) == expected
        decomposition = generic_decompose(query)
        ytd = YannakakisTreeJoin(query, database, decomposition)
        assert set(ytd.evaluate_tuples(query.variables)) == expected
        assert rows(CachedLeapfrogTrieJoin(query, database, decomposition)) == expected
