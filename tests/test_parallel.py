"""Morsel-parallel execution: differential correctness + the bounded-cursor
contract + thread-safety audits.

Four suites:

* **Differential** — every parallel configuration (inner algorithm x worker
  count, prime counts and empty ranges included) must produce
  exactly the serial executor's count and row set.
* **Bounded cursors** — regression tests pinning the
  :class:`~repro.storage.trie.BoundedTrieIterator` contract on all three
  cursor classes: a range-bounded seek at the top trie level must never leak
  keys outside ``[lo, hi)``, not even after ``up()``/``next()`` across level
  boundaries, and not around tombstones sitting exactly at range edges.
* **Thread safety** — concurrent executions of one :class:`PreparedQuery`
  and concurrent ``Database.view_index`` fills must produce correct results
  with no duplicate index builds (the database lock serialises cache fills,
  so the allowed race window is zero).
* **Per-job cost** — what a job pays beside the join: one executor and one
  cache-footprint walk per worker per job, and morsels no smaller than the
  work floor.
"""

import os
import re
import threading

import pytest

import repro.engine.parallel as parallel_module
import repro.engine.selector as selector_module
from repro.core.cache import AdhesionCache
from repro.core.lftj import LeapfrogTrieJoin
from repro.engine import QueryEngine
from repro.engine.executors import registered_algorithms
from repro.engine.parallel import ParallelExecutor, PartitionPlanner, resolve_schedule
from repro.engine.pool import available_workers
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import BoundedTrieIterator, LsmTrieIndex, TrieIndex

from tests.conftest import brute_force_evaluate, random_edge_database
from tests.node_trie import NodeTrieIndex

INNER_ALGORITHMS = ("lftj", "clftj")
WORKER_COUNTS = (1, 2, 4, 7)


def _edge_database() -> Database:
    base = random_edge_database(num_nodes=18, num_edges=55, seed=23)
    return Database(list(base), name="par")


def _query_order_rows(result, query):
    """Result rows re-projected into the query's textual variable order."""
    by_name = {variable: index for index, variable in enumerate(result.variable_order)}
    positions = [by_name[variable] for variable in query.variables]
    return [tuple(row[p] for p in positions) for row in result.rows]


# One param: the id keeps these tests' names what they were while a second,
# "raw" storage representation existed beside this one.
@pytest.fixture(scope="module", params=["encoded"])
def engine_and_serial():
    """One engine plus the serial triangle baseline."""
    database = _edge_database()
    engine = QueryEngine(database)
    query = cycle_query(3)
    serial = {
        algorithm: engine.evaluate(query, algorithm=algorithm)
        for algorithm in INNER_ALGORITHMS
    }
    yield engine, query, serial
    database.close_pools()


class TestDifferential:
    # compile=False: the forked workers run the interpreted join loop too.
    @pytest.mark.parametrize("compile", [None, False])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("algorithm", INNER_ALGORITHMS)
    def test_parallel_matches_serial(self, engine_and_serial, algorithm, workers,
                                     compile):
        engine, query, serial_results = engine_and_serial
        serial = serial_results[algorithm]
        result = engine.evaluate(query, algorithm=algorithm, parallel=workers,
                                 compile=compile)
        assert result.count == serial.count
        assert sorted(result.rows) == sorted(serial.rows)
        assert "parallel_mode" not in result.metadata  # one discipline, no label
        if workers == 1:  # declined: the serial executor ran, no pool stats
            assert result.metadata["parallel"] is False
            assert result.metadata["parallel_reason"] == "one worker requested"
            assert "shard_results" not in result.metadata
            return
        assert result.metadata["parallel"] is True
        assert result.metadata["workers"] == workers
        assert result.metadata["inner_algorithm"] == algorithm
        assert sum(result.metadata["shard_results"]) == result.count
        assert "shards" not in result.metadata  # the PR 5 alias is gone
        assert (
            len(result.metadata["partition_bounds"])
            == result.metadata["morsels"] - 1
        )

    def test_lftj_merge_preserves_serial_row_order(self, engine_and_serial):
        """Deterministic merge: range concatenation == the serial row stream."""
        engine, query, serial_results = engine_and_serial
        serial = serial_results["lftj"]
        result = engine.evaluate(query, algorithm="lftj", parallel=4)
        assert result.rows == serial.rows

    def test_empty_ranges_are_harmless(self, monkeypatch):
        """More ranges than distinct top-level keys -> some ranges are
        deliberately empty.  (The key floor and the work floor, lifted
        here, would simply plan fewer morsels instead.)"""
        monkeypatch.setattr(parallel_module, "MIN_MORSEL_KEYS", 1)
        monkeypatch.setattr(selector_module, "_MORSEL_DISPATCH_COST", 1e-9)
        rows = [(1, 2), (2, 3), (3, 1)]
        database = Database([Relation("E", ("s", "t"), rows)], name="tiny")
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj")
        result = engine.count(query, algorithm="lftj", parallel=7)
        assert result.count == serial.count == 3  # one triangle, 3 rotations
        assert result.metadata["morsels"] == 7 * parallel_module.MORSEL_OVERPARTITION
        assert 0 in result.metadata["shard_results"]
        database.close_pools()

    def test_tiny_domain_caps_morsel_count(self):
        """Morsel mode's per-range key floor keeps tiny domains whole."""
        rows = [(1, 2), (2, 3), (3, 1)]
        database = Database([Relation("E", ("s", "t"), rows)], name="tiny")
        engine = QueryEngine(database)
        result = engine.count(cycle_query(3), algorithm="lftj", parallel=7)
        assert result.count == 3
        # 3 keys < MIN_MORSEL_KEYS: one range is no pool job at all.
        assert result.metadata["parallel"] is False
        assert result.metadata["parallel_reason"] == (
            "the top variable's domain does not split"
        )
        assert "morsels" not in result.metadata
        database.close_pools()

    def test_parallel_counts_on_longer_pattern(self, engine_and_serial):
        engine, _query, _serial = engine_and_serial
        query = path_query(4)
        serial = engine.count(query, algorithm="lftj")
        for algorithm in INNER_ALGORITHMS:
            result = engine.count(query, algorithm=algorithm, parallel=3)
            assert result.count == serial.count

    def test_parallel_agrees_with_brute_force(self):
        database = _edge_database()
        engine = QueryEngine(database)
        query = parse_query("E(x, y), E(y, z), E(x, z)", name="tri-dag")
        expected = brute_force_evaluate(query, database)
        for algorithm in INNER_ALGORITHMS:
            result = engine.evaluate(query, algorithm=algorithm, parallel=4)
            assert set(_query_order_rows(result, query)) == expected

    def test_count_only_parallel_runs_never_decode(self):
        database = _edge_database()
        engine = QueryEngine(database)
        result = engine.count(cycle_query(3), algorithm="lftj", parallel=4)
        assert "encoded" not in result.metadata  # a key that could only say True
        assert database.dictionary.decodes == 0

    def test_parallel_is_a_schedule_not_an_algorithm(self, engine_and_serial):
        """``plftj`` / ``pclftj`` left the registry: ``parallel=`` on the
        algorithm itself is the only way to ask."""
        engine, query, serial_results = engine_and_serial
        for name in ("plftj", "pclftj"):
            assert name not in registered_algorithms()
            with pytest.raises(ValueError, match="unknown algorithm"):
                engine.count(query, algorithm=name, parallel=2)
        result = engine.count(query, algorithm="lftj", parallel=2)
        assert result.count == serial_results["lftj"].count
        assert result.metadata["parallel"] is True

    def test_single_worker_runs_inline(self, engine_and_serial):
        engine, query, serial_results = engine_and_serial
        result = engine.count(query, algorithm="lftj", parallel=1)
        assert result.count == serial_results["lftj"].count
        # One worker never pays for a pool: nothing is reported about one.
        assert result.metadata["parallel"] is False
        assert result.metadata["parallel_reason"] == "one worker requested"
        for key in ("parallel_backend", "workers", "morsels", "partition_source"):
            assert key not in result.metadata

    def test_morsel_metadata_reports_scheduling(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        result = engine.count(query, algorithm="lftj", parallel=2)
        metadata = result.metadata
        assert metadata["morsels"] >= metadata["workers"] == 2
        assert metadata["tasks_executed"] == metadata["morsels"]  # one task per range
        assert metadata["steals"] >= 0
        assert "splits" not in metadata and "parallel_backend" not in metadata
        assert len(metadata["worker_busy_seconds"]) == 2
        assert metadata["dispatch_seconds"] >= 0.0
        assert 0.0 <= metadata["utilization"] <= 1.0
        assert metadata["partition_skew"] >= 1.0
        assert metadata["morsel_skew"] >= 1.0


class TestParameterSurface:
    def test_clftj_accepts_parallel(self, engine_and_serial):
        engine, query, serial = engine_and_serial
        result = engine.count(query, algorithm="clftj", parallel=2)
        assert result.count == serial["lftj"].count
        assert result.metadata["workers"] == 2

    def test_clftj_rejects_explicit_cache_with_parallel(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        from repro.core.cache import AdhesionCache

        with pytest.raises(ValueError, match="worker"):
            engine.count(
                query, algorithm="clftj", parallel=2, cache=AdhesionCache()
            )

    def test_parallel_backend_requires_parallel(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        with pytest.raises(ValueError, match="parallel_backend requires parallel"):
            engine.count(query, algorithm="lftj", parallel_backend="processes")

    def test_parallel_mode_is_not_an_option(self, engine_and_serial):
        """The static discipline is gone; asking for it fails loudly."""
        engine, query, _serial = engine_and_serial
        with pytest.raises(TypeError, match="parallel_mode"):
            engine.count(query, algorithm="lftj", parallel=2, parallel_mode="static")

    def test_parallel_false_means_serial(self, engine_and_serial):
        engine, query, serial_results = engine_and_serial
        result = engine.count(query, algorithm="lftj", parallel=False)
        assert result.count == serial_results["lftj"].count
        assert "workers" not in result.metadata  # a genuinely serial run

    def test_auto_rejects_parallel(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        with pytest.raises(ValueError, match="auto"):
            engine.count(query, algorithm="auto", parallel=2)

    def test_invalid_worker_count(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        with pytest.raises(ValueError, match="worker count"):
            engine.count(query, algorithm="lftj", parallel=0)

    def test_parallel_executor_rejects_uncuttable_inner(self, engine_and_serial):
        """An algorithm no factory wraps says so through its parameter
        contract (the scheduler itself constructs no executor to guard)."""
        engine, query, _serial = engine_and_serial
        for algorithm in ("ytd", "pairwise"):
            with pytest.raises(ValueError, match="does not use the 'parallel'"):
                engine.count(query, algorithm=algorithm, parallel=2)

    def test_parallel_executor_wraps_the_serial_executor(self, engine_and_serial):
        """The scheduler takes the serial executor as its template and the
        resolved schedule; a declined one runs that very executor."""
        engine, query, serial = engine_and_serial
        template = LeapfrogTrieJoin(query, engine.database)
        schedule = resolve_schedule(
            engine.database, query, template.variable_order, 1, engine.selector
        )
        executor = ParallelExecutor(template, schedule, "lftj")
        assert executor.counter is template.counter
        assert executor.variable_order == template.variable_order
        assert executor.count() == serial["lftj"].count
        assert template.counter.results_emitted == serial["lftj"].count
        assert executor.execution_metadata()["parallel_reason"] == "one worker requested"

    # The schedule table: what ``explain()`` prints just before an execution
    # is what that execution's metadata says it did, in every cell.
    ASKS = (None, False, True, 1, 2)
    ALGORITHMS = ("lftj", "clftj")
    GRAPHS = {
        "3-node": lambda: [(1, 2), (2, 3), (3, 1)],
        "300-node": lambda: list(
            random_edge_database(num_nodes=300, num_edges=3000, seed=5).relation("E").tuples
        ),
    }

    @staticmethod
    def _schedule_line(text):
        lines = [line for line in text.splitlines() if line.startswith("parallel:")]
        assert len(lines) <= 1
        return lines[0] if lines else None

    @pytest.mark.parametrize("budget", (None, 1), ids=("no-budget", "budget-1"))
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_explain_and_execution_agree_on_the_schedule(self, graph, budget):
        database = Database(
            [Relation("E", ("s", "t"), self.GRAPHS[graph]())],
            name=f"schedule-{graph}",
            memory_budget_bytes=budget,
        )
        engine = QueryEngine(database)
        query = cycle_query(3)
        engaged = set()
        for algorithm in self.ALGORITHMS:
            oracle = engine.evaluate(query, algorithm=algorithm)
            for ask in self.ASKS:
                cell = (algorithm, ask)
                text = engine.explain(query, algorithm=algorithm, parallel=ask)
                line = self._schedule_line(text)
                counted = engine.count(query, algorithm=algorithm, parallel=ask)
                result = engine.evaluate(query, algorithm=algorithm, parallel=ask)
                assert counted.count == result.count == oracle.count, cell
                assert result.rows == oracle.rows, cell
                for metadata in (counted.metadata, result.metadata):
                    self._check_cell(cell, text, line, metadata)
                if result.metadata.get("parallel"):
                    engaged.add(ask)
        if graph == "3-node" or budget is not None:
            assert not engaged  # nothing to cut, or the budget's serial rung
        else:
            assert engaged == ({True, 2} if available_workers() > 1 else {2})
        database.close_pools()

    @staticmethod
    def _check_cell(cell, text, line, metadata):
        _algorithm, ask = cell
        serial_rung = any(
            "restricted to one worker" in step
            for step in metadata.get("degradations", ())
        )
        if ask in (None, False):  # not asked: no schedule anywhere
            assert line is None and "worker-local" not in text, cell
            assert "parallel" not in metadata and "parallel_reason" not in metadata, cell
            assert not serial_rung, cell
            return
        if metadata["parallel"]:
            assert line.startswith(
                f"parallel: workers={metadata['workers']}, "
                f"{metadata['morsels']} range(s) "
            ), (cell, line)
            assert f"bounds: {metadata['partition_bounds']!r};" in line, (cell, line)
            assert "parallel_reason" not in metadata and not serial_rung, cell
        else:
            # Same words; the footprint the budget rung quotes moves between
            # the two calls (an over-budget execution evicts and rebuilds).
            expected = f"parallel: declined, runs serial ({metadata['parallel_reason']})"
            assert re.sub(r"\d+", "N", line) == re.sub(r"\d+", "N", expected), cell
            for key in ("workers", "morsels", "partition_source",
                        "shard_results", "steals", "worker_caches"):
                assert key not in metadata, (cell, key)
            assert serial_rung == metadata["parallel_reason"].startswith("memory budget"), cell
        assert ("worker-local" in text) == (cell[0] == "clftj" and metadata["parallel"]), cell

    def test_auto_worker_count_keeps_tiny_queries_serial(self):
        """The selector charges every worker one morsel's work floor."""
        rows = [(1, 2), (2, 3), (3, 1)]
        database = Database([Relation("E", ("s", "t"), rows)], name="tiny")
        engine = QueryEngine(database)
        workers = engine.selector.recommend_workers(
            cycle_query(3), cycle_query(3).variables, available=8
        )
        assert workers == 1
        result = engine.count(cycle_query(3), algorithm="lftj", parallel=True)
        assert result.metadata["parallel"] is False
        assert result.metadata["parallel_reason"] in (
            "estimated work is under the pool's break-even",
            "one usable core",
        )
        database.close_pools()

    def test_auto_worker_count_scales_with_work(self):
        """Under two work floors of estimated work ``parallel=True`` declines
        to serial; well above, it takes every usable core."""
        small = QueryEngine(_edge_database())
        query = path_query(5)
        assert small.selector.recommend_workers(query, query.variables, available=4) == 1
        base = random_edge_database(num_nodes=60, num_edges=420, seed=23)
        engine = QueryEngine(Database(list(base), name="par-large"))
        workers = engine.selector.recommend_workers(
            query, query.variables, available=4
        )
        assert workers == 4
        morsels = engine.selector.recommend_morsels(
            query, query.variables, workers=workers
        )
        assert morsels >= workers

    def test_recommended_workers_never_exceed_available(self):
        database = _edge_database()
        engine = QueryEngine(database)
        query = path_query(5)
        assert (
            engine.selector.recommend_workers(query, query.variables, available=2)
            <= 2
        )

    def test_explain_shows_partition_bounds(self, engine_and_serial):
        engine, query, _serial = engine_and_serial
        text = engine.explain(query, algorithm="lftj", parallel=3)
        assert "parallel: workers=3, " in text
        assert "mode=" not in text
        assert "range(s) on variable" in text
        assert "bounds:" in text

    def test_cold_explain_neither_mutates_nor_poisons(self):
        """explain() on a cold database must not grow the dictionary, and
        its degenerate no-index partition plan must not be memoised — the
        next execution re-plans with real bounds and explain then agrees."""
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        assert len(database.dictionary) == 0
        cold = engine.explain(query, algorithm="lftj", parallel=4)
        assert "parallel: workers=4, 1 range(s)" in cold
        assert len(database.dictionary) == 0  # no side effects
        result = engine.count(query, algorithm="lftj", parallel=4)
        assert result.metadata["morsels"] > 1
        assert (
            len(result.metadata["partition_bounds"])
            == result.metadata["morsels"] - 1
        )
        text = engine.explain(query, algorithm="lftj", parallel=4)
        assert str(result.metadata["partition_bounds"]) in text
        database.close_pools()


class TestPartitionPlanner:
    def _database(self):
        return _edge_database()

    def test_ranges_tile_the_key_space(self):
        database = self._database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")  # build indexes/dictionary
        plan = PartitionPlanner(database).plan(query, query.variables, 4)
        ranges = plan.ranges()
        assert len(ranges) == 4
        assert ranges[0][0] is None and ranges[-1][1] is None
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # adjacent ranges share their cut: no gaps
        bounds = list(plan.bounds)
        assert bounds == sorted(bounds)
        assert plan.source == "statistics"
        assert plan.num_shards == 4

    def test_single_shard_plan(self):
        database = self._database()
        plan = PartitionPlanner(database).plan(cycle_query(3), cycle_query(3).variables, 1)
        assert plan.bounds == ()
        assert plan.ranges() == [(None, None)]
        assert plan.source == "single"

    def test_weighted_split_isolates_heavy_keys(self):
        """A hub carrying most of the mass gets a shard of its own."""
        rows = [(0, target) for target in range(1, 60)]  # hub node 0
        rows += [(source, source + 1) for source in range(1, 6)]
        database = Database([Relation("E", ("s", "t"), rows)], name="skew")
        database.trie_index("E", (0, 1))  # codes follow the sorted rows: code == node
        query = cycle_query(3)
        plan = PartitionPlanner(database).plan(query, query.variables, 2)
        assert plan.source == "statistics"
        # All of node 0's weight lands in shard 0; the cut sits right above it.
        assert plan.weights[0] >= plan.weights[1]
        assert plan.bounds[0] == 1

    def test_constant_bearing_atoms_still_partition(self):
        """Base-relation frequencies overapproximate a selected view's
        domain — good enough to cut ranges (only balance blurs)."""
        rows = [(value, value % 3) for value in range(20)]
        database = Database([Relation("R", ("a", "b"), rows)], name="consts")
        query = parse_query("R(x, 1)", name="const-query")
        engine = QueryEngine(database)
        serial = engine.count(query, algorithm="lftj")
        plan = PartitionPlanner(database).plan(query, query.variables, 3)
        assert plan.source == "statistics"
        assert len(plan.bounds) == 2
        result = engine.count(query, algorithm="lftj", parallel=3)
        assert result.count == serial.count

    def test_equal_width_fallback_without_statistics(self):
        """No covering atom offers any frequencies (empty relation) but the
        dictionary has codes -> equal-width code ranges."""
        populated = Relation("S", ("a", "b"), [(v, v + 1) for v in range(20)])
        empty = Relation("R", ("a", "b"), [])
        database = Database([populated, empty], name="fallback")
        engine = QueryEngine(database)
        engine.count(parse_query("S(x, y)", name="warm"), algorithm="lftj")
        query = parse_query("R(x, y)", name="empty-query")
        plan = PartitionPlanner(database).plan(query, query.variables, 3)
        assert plan.source == "equal-width"
        assert len(plan.bounds) == 2
        result = engine.count(query, algorithm="lftj", parallel=3)
        assert result.count == 0
        assert result.metadata["morsels"] == 3

    def test_small_domains_pad_with_empty_shards(self):
        rows = [(1, 2), (2, 3), (3, 1)]
        database = Database([Relation("E", ("s", "t"), rows)], name="tiny")
        database.trie_index("E", (0, 1))  # planning cuts in code space
        query = cycle_query(3)
        plan = PartitionPlanner(database).plan(query, query.variables, 7)
        assert plan.num_shards == 7
        bounds = list(plan.bounds)
        assert bounds == sorted(bounds)
        assert len(bounds) == 6  # padded; duplicates make empty shards


# ---------------------------------------------------------------------------
# Bounded-cursor contract.
# ---------------------------------------------------------------------------

ROWS = [
    (1, 10), (1, 11),
    (3, 30),
    (5, 50), (5, 51),
    (7, 70),
    (9, 90), (9, 91),
]


def _walk_top_level(iterator):
    """Keys visible at the first level via the plain next() protocol."""
    keys = []
    iterator.open()
    while not iterator.at_end():
        keys.append(iterator.key())
        iterator.next()
    iterator.up()
    return keys


def _walk_with_descents(iterator):
    """Top-level keys plus children, crossing level boundaries repeatedly."""
    seen = []
    iterator.open()
    while not iterator.at_end():
        top = iterator.key()
        children = []
        iterator.open()
        while not iterator.at_end():
            children.append(iterator.key())
            iterator.next()
        iterator.up()          # back to the bounded level
        seen.append((top, tuple(children)))
        iterator.next()        # the bound must still hold after up()+next()
    iterator.up()
    return seen


def _cursor_factories():
    columnar = TrieIndex.from_tuples(ROWS)
    nodes = NodeTrieIndex.from_tuples(ROWS)
    lsm = LsmTrieIndex(TrieIndex.from_tuples(ROWS))
    lsm.apply_delta(inserted=[(4, 40)], deleted=[(3, 30)])
    return {
        "TrieIterator": (columnar.iterator, [1, 3, 5, 7, 9]),
        "NodeTrieIterator": (nodes.iterator, [1, 3, 5, 7, 9]),
        "MergedTrieIterator": (lsm.iterator, [1, 4, 5, 7, 9]),
    }


@pytest.mark.parametrize("cursor", ["TrieIterator", "NodeTrieIterator", "MergedTrieIterator"])
class TestBoundedCursorContract:
    def test_next_walk_stays_in_range(self, cursor):
        factory, keys = _cursor_factories()[cursor]
        for lo, hi in [(None, None), (3, 8), (None, 5), (5, None), (2, 2), (0, 1)]:
            bounded = BoundedTrieIterator(factory(), lo, hi)
            expected = [
                key for key in keys
                if (lo is None or key >= lo) and (hi is None or key < hi)
            ]
            assert _walk_top_level(bounded) == expected, (lo, hi)

    def test_no_leak_across_level_boundaries(self, cursor):
        """The satellite bug class: up()/next() after a descent must not
        escape [lo, hi)."""
        factory, keys = _cursor_factories()[cursor]
        bounded = BoundedTrieIterator(factory(), 3, 8)
        walked = _walk_with_descents(bounded)
        assert [top for top, _children in walked] == [
            key for key in keys if 3 <= key < 8
        ]
        for _top, children in walked:
            assert children  # every surviving key still exposes its subtree

    def test_seek_clamps_to_lower_bound(self, cursor):
        factory, keys = _cursor_factories()[cursor]
        bounded = BoundedTrieIterator(factory(), 5, None)
        bounded.open()
        assert bounded.key() == 5  # open() lands at lo, not the first key
        bounded = BoundedTrieIterator(factory(), 5, None)
        bounded.open()
        bounded.seek(2)  # below lo: clamped, must not move before lo
        assert bounded.key() == 5

    def test_seek_past_upper_bound_ends_level(self, cursor):
        factory, _keys = _cursor_factories()[cursor]
        bounded = BoundedTrieIterator(factory(), None, 6)
        bounded.open()
        bounded.seek(7)
        assert bounded.at_end()
        with pytest.raises(RuntimeError):
            bounded.key()
        with pytest.raises(RuntimeError):
            bounded.next()
        with pytest.raises(RuntimeError):
            bounded.seek(8)

    def test_reopen_after_reset(self, cursor):
        factory, keys = _cursor_factories()[cursor]
        bounded = BoundedTrieIterator(factory(), 3, 8)
        _walk_top_level(bounded)
        bounded.reset()
        expected = [key for key in keys if 3 <= key < 8]
        assert _walk_top_level(bounded) == expected


class TestBoundedCursorEdges:
    def test_tombstone_at_lower_range_edge(self):
        """A fully-deleted key sitting exactly at lo must stay invisible."""
        lsm = LsmTrieIndex(TrieIndex.from_tuples(ROWS))
        lsm.apply_delta(deleted=[(3, 30)])
        bounded = BoundedTrieIterator(lsm.iterator(), 3, 8)
        assert _walk_top_level(bounded) == [5, 7]

    def test_tombstone_at_upper_range_edge(self):
        """Deleting the last in-range key must not resurrect out-of-range ones."""
        lsm = LsmTrieIndex(TrieIndex.from_tuples(ROWS))
        lsm.apply_delta(deleted=[(7, 70)])
        bounded = BoundedTrieIterator(lsm.iterator(), 3, 8)
        assert _walk_top_level(bounded) == [3, 5]

    def test_delta_insert_exactly_at_bounds(self):
        lsm = LsmTrieIndex(TrieIndex.from_tuples(ROWS))
        lsm.apply_delta(inserted=[(3, 31), (8, 80)])  # at lo, and at hi (excluded)
        bounded = BoundedTrieIterator(lsm.iterator(), 3, 8)
        walked = _walk_with_descents(bounded)
        assert [top for top, _ in walked] == [3, 5, 7]
        assert walked[0][1] == (30, 31)

    def test_encoded_current_run_is_clamped(self):
        """The batched-kernel hook must see the same restriction."""
        relation = Relation("E", ("s", "t"), ROWS)
        database = Database([relation], name="runs")
        trie = database.trie_index("E", (0, 1))
        dictionary = database.dictionary
        lo = dictionary.encode(5)
        hi = dictionary.encode(9)
        lo, hi = min(lo, hi), max(lo, hi)
        bounded = BoundedTrieIterator(trie.iterator(), lo, hi)
        bounded.open()
        run = bounded.current_run()
        assert run is not None
        keys, run_lo, run_hi = run
        assert all(lo <= keys[i] < hi for i in range(run_lo, run_hi))

    def test_bound_level_must_be_positive(self):
        trie = TrieIndex.from_tuples(ROWS)
        with pytest.raises(ValueError, match="bound level"):
            BoundedTrieIterator(trie.iterator(), 1, 2, level=0)


# ---------------------------------------------------------------------------
# Thread-safety audit.
# ---------------------------------------------------------------------------


def _run_threads(worker, count):
    """Start ``count`` threads behind a barrier; re-raise any worker error."""
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as error:  # noqa: BLE001 - surfaced to the test
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestThreadSafety:
    def test_concurrent_index_cache_fills_build_once(self):
        """The database lock makes the duplicate-build race window zero."""
        database = _edge_database()
        built = []

        def worker(_index):
            built.append(database.trie_index("E", (0, 1)))

        _run_threads(worker, 8)
        assert database.index_builds == 1
        assert database.index_cache_hits == 7
        assert all(index is built[0] for index in built)

    def test_concurrent_view_index_fills_across_algorithms(self):
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)

        def worker(index):
            algorithm = "lftj" if index % 2 == 0 else "ytd"
            result = engine.count(query, algorithm=algorithm)
            assert result.count >= 0

        _run_threads(worker, 8)
        # The triangle needs two column orders ((0,1) and (1,0) for the
        # E(x3, x1) atom), and YTD's one bag joins over the same shared
        # tries as LFTJ: 2 tries, each built exactly once despite 8 racing
        # threads.
        assert database.index_builds == 2

    @pytest.mark.parametrize("algorithm", ["lftj", "ytd", "clftj"])
    def test_concurrent_prepared_executions(self, algorithm):
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm=algorithm).count
        prepared = engine.prepare(query, algorithm=algorithm)
        counts = []

        def worker(_index):
            for _ in range(3):
                counts.append(prepared.count().count)

        _run_threads(worker, 6)
        assert counts == [serial] * 18
        assert prepared.executions == 18

    def test_concurrent_parallel_executions_of_one_prepared_handle(self):
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count
        prepared = engine.prepare(query, algorithm="lftj", parallel=2)
        builds_before = database.index_builds
        counts = []

        def worker(_index):
            counts.append(prepared.count().count)

        _run_threads(worker, 4)
        assert counts == [serial] * 4
        assert database.index_builds == builds_before  # warm: zero rebuilds


class TestPerJobCost:
    def test_one_executor_and_one_cache_walk_per_worker_per_job(
        self, monkeypatch, tmp_path
    ):
        """A worker builds its range executor once per job and re-ranges it
        per morsel, and its cache footprint is measured once, after its last
        morsel — not once per morsel each.  The workers are forked after the
        patches, so they log each call to a file the parent reads back."""
        base = random_edge_database(num_nodes=60, num_edges=420, seed=11)
        database = Database(list(base), name="per-job-cost")
        engine = QueryEngine(database)
        query = path_query(4)
        serial = engine.count(query, algorithm="clftj")
        # Lift the work floor so the job has many morsels per worker.
        monkeypatch.setattr(selector_module, "_MORSEL_DISPATCH_COST", 1.0)
        log = tmp_path / "calls.log"

        def record(kind, key=""):
            with open(log, "a") as handle:
                handle.write(f"{kind} {os.getpid()} {key}\n")

        make = parallel_module.make_range_executor
        monkeypatch.setattr(
            parallel_module,
            "make_range_executor",
            lambda *args, **kwargs: record("build") or make(*args, **kwargs),
        )
        estimate = AdhesionCache.memory_estimate

        def counting_estimate(cache):
            record("walk", id(cache))
            return estimate(cache)

        monkeypatch.setattr(AdhesionCache, "memory_estimate", counting_estimate)
        result = engine.count(query, algorithm="clftj", parallel=2)
        assert result.count == serial.count
        assert result.metadata["tasks_executed"] >= 8
        calls = [line.split() for line in log.read_text().splitlines()]
        builds = [pid for kind, pid, *_ in calls if kind == "build"]
        walks = [(pid, *key) for kind, pid, *key in calls if kind == "walk"]
        parent = str(os.getpid())
        # One per worker: the submitting thread's template is the serial
        # executor the factory built, not a range executor.
        assert 1 <= len(builds) <= 2 and len(set(builds)) == len(builds)
        assert parent not in builds
        worker_walks = [walk for walk in walks if walk[0] != parent]
        assert 1 <= len(worker_walks) <= 2 and len(set(walks)) == len(walks)
        caches = result.metadata["worker_caches"]
        assert [entry["worker"] for entry in caches] == sorted(
            {entry["worker"] for entry in caches}
        )
        for entry in caches:
            assert set(entry) == {"worker", "entries", "memory_bytes", "hits", "stores"}
            assert entry["memory_bytes"] > 0 and entry["entries"] > 0
        assert sum(entry["hits"] for entry in caches) == result.counter.cache_hits
        database.close_pools()

    def test_work_floor_sizes_morsels(self):
        """Work under the floor is cut once per worker; work far above it
        keeps its 16 ranges per worker; explain says which applied."""
        base = random_edge_database(num_nodes=200, num_edges=1200, seed=23)
        database = Database(list(base), name="work-floor")
        engine = QueryEngine(database)
        light, heavy = cycle_query(3), cycle_query(5)
        result = engine.count(light, algorithm="lftj", parallel=2)
        assert result.metadata["morsels"] == 2
        recommend = engine.selector.recommend_morsels
        assert recommend(light, light.variables, workers=2) == 2
        assert recommend(light, light.variables, workers=4) == 4
        assert recommend(heavy, heavy.variables, workers=2) == 32
        assert "planned morsels: 2 (work floor" in engine.explain(
            light, algorithm="lftj", parallel=2
        )
        assert "planned morsels: 32 (16 per worker)" in engine.explain(
            heavy, algorithm="lftj", parallel=2
        )
        database.close_pools()

    def test_cached_work_is_sized_by_the_cached_estimate(self):
        """A path's CLFTJ estimate is an order of magnitude under LFTJ's, so
        parallel clftj plans fewer morsels than parallel lftj for the same
        query."""
        base = random_edge_database(num_nodes=60, num_edges=420, seed=11)
        database = Database(list(base), name="work-floor-clftj")
        engine = QueryEngine(database)
        query = path_query(4)
        plan = engine.plan(query)
        recommend = engine.selector.recommend_morsels
        uncached = recommend(query, plan.variable_order, workers=2)
        cached = recommend(query, plan.variable_order, workers=2, plan=plan)
        assert uncached > cached == 2
        result = engine.count(query, algorithm="clftj", parallel=2)
        assert result.metadata["morsels"] == cached
        assert f"planned morsels: {cached} (work floor" in engine.explain(
            query, algorithm="clftj", parallel=2
        )
        database.close_pools()


class TestForkSafety:
    def test_fork_worker_reinitialises_inherited_locks(self):
        """A fork can happen while another parent thread holds the database
        lock; that thread does not exist in the child, so the worker entry
        point replaces the lock (``reinitialise_child_locks``) before
        touching the index cache or it deadlocks.

        Simulated in-process: the lock is left held by a thread that has
        already exited (exactly what the child observes after the fork),
        and the morsel runner must still complete after reinitialisation.
        """
        from repro.engine.parallel import MorselSpec, _run_morsel
        from repro.engine.pool import MorselTask, reinitialise_child_locks

        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count

        stuck_lock = threading.RLock()
        holder = threading.Thread(target=stuck_lock.acquire)
        holder.start()
        holder.join()
        database._lock = stuck_lock  # held by a thread that no longer exists
        reinitialise_child_locks(database)  # what _fork_worker_main does first

        spec = MorselSpec(
            query=query,
            variable_order=tuple(query.variables),
            inner="lftj",
            compile=None,
            run_mode="count",
        )
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.append(
                _run_morsel(database, spec, MorselTask(0, None, None))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "morsel runner deadlocked on inherited lock"
        assert len(outcomes) == 1
        assert outcomes[0].value == serial  # full-range morsel

    @pytest.mark.parametrize("inner", ["lftj", "clftj"])
    def test_a_held_statistics_lock_never_reaches_a_morsel(self, inner):
        """The database's statistics catalog is inherited too, and its lock
        may be held by a parent thread that is planning or selecting.  A
        worker never reads statistics (the spec carries the plan), so
        ``reinitialise_child_locks`` leaves that lock alone and the morsel
        still completes."""
        from repro.engine.parallel import MorselSpec, _run_morsel
        from repro.engine.pool import MorselTask, reinitialise_child_locks

        database = _edge_database()
        engine = QueryEngine(database)
        query = path_query(4)
        serial = engine.count(query, algorithm="lftj").count
        prepared = engine.prepare(query, algorithm="clftj")
        prepared.count()  # build the contracted plan's tries and driver

        stuck_lock = threading.RLock()
        holder = threading.Thread(target=stuck_lock.acquire)
        holder.start()
        holder.join()
        database.statistics._lock = stuck_lock  # held by a thread that no longer exists
        reinitialise_child_locks(database)
        assert database.statistics._lock is stuck_lock

        plan = engine.plan(query)
        clftj = inner == "clftj"
        spec = MorselSpec(
            query=query,
            variable_order=plan.variable_order,
            inner=inner,
            compile=None,
            run_mode="count",
            decomposition=plan.decomposition.contract_ownerless_bags() if clftj else None,
            policy=plan.policy if clftj else None,
            cache_key=("held-statistics-lock",) if clftj else None,
        )
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.append(
                _run_morsel(database, spec, MorselTask(0, None, None))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "morsel runner waited on the statistics lock"
        assert [outcome.value for outcome in outcomes] == [serial]


class TestPreparedParallel:
    def test_prepared_parallel_reexecutes_warm(self):
        database = _edge_database()
        engine = QueryEngine(database)
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj").count
        prepared = engine.prepare(query, algorithm="lftj", parallel=3)
        first = prepared.count()
        second = prepared.count()
        assert first.count == second.count == serial
        assert second.metadata["workers"] == 3
        assert second.metadata["index_builds"] == 0
        database.close_pools()

    def test_parallel_runs_leave_clftj_warm_caches_alone(self):
        """Parallel traffic must not disturb a clftj handle's adhesion cache."""
        database = _edge_database()
        engine = QueryEngine(database)
        query = path_query(4)
        cached = engine.prepare(query, algorithm="clftj")
        warmup = cached.count()
        parallel = engine.prepare(query, algorithm="lftj", parallel=2)
        parallel_result = parallel.count()
        warm = cached.count()
        assert warm.count == warmup.count == parallel_result.count
        assert warm.counter.cache_hits > 0  # the warm cache still serves hits
