"""Tests for the plan -> compile -> execute split (repro.engine.compiler).

The compiled driver must be invisible except for speed: identical counts,
identical row streams, identical instrumentation counters.  These tests pin
the cache-and-invalidation contract (version-keyed drivers dropped on
replacement, delta updates and compaction), the two-phase build protocol,
the metadata/explain reporting, the interpreted escape hatch and the CLI
surface.
"""

import ast
import hashlib
import itertools
import os
import random
import re
import sys
import time
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

import pytest

import repro.engine.compiler as compiler_module
from repro.cli import main
from repro.core.cache import (
    AdhesionCache,
    AlwaysCachePolicy,
    BoundedCachePolicy,
    CompositePolicy,
    NeverCachePolicy,
    SupportThresholdPolicy,
    entry_bytes,
)
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.core.policies import FrequencyAdmissionPolicy
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine import QueryEngine, QueryTimeoutError, inject_faults
from repro.engine.compiler import (
    COMPILED_ALGORITHMS,
    CompiledTrieJoin,
    cache_fallback,
    driver_cache_key,
    store_loop,
    trie_join_executor,
)
from repro.engine.parallel import make_range_executor
from repro.query.parser import parse_query
from repro.query.patterns import clique_query, cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation


def _edges(seed=11, nodes=50, count=320):
    rng = random.Random(seed)
    return sorted({(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(count)})


@pytest.fixture
def database():
    return Database([Relation("E", ("a", "b"), _edges())])


@pytest.fixture
def engine(database):
    return QueryEngine(database)


def _this_query(explanation):
    """The ``this query:`` state of explain()'s compiled-drivers line."""
    (line,) = [
        line for line in explanation.splitlines() if line.startswith("compiled drivers:")
    ]
    return line.split("this query: ", 1)[1]


QUERIES = [
    cycle_query(3),
    clique_query(4),
    path_query(3),
    parse_query("E(x, y), E(y, x)"),
]


class TestParity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_count_and_counters_match_interpreted(self, database, query):
        compiled_counter, interpreted_counter = OperationCounter(), OperationCounter()
        compiled = CompiledTrieJoin(query, database, counter=compiled_counter)
        interpreted = LeapfrogTrieJoin(query, database, counter=interpreted_counter)
        assert compiled.count() == interpreted.count()
        assert compiled_counter.as_dict() == interpreted_counter.as_dict()

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_evaluate_rows_match_interpreted_ordered(self, database, query):
        compiled_counter, interpreted_counter = OperationCounter(), OperationCounter()
        compiled = list(
            CompiledTrieJoin(query, database, counter=compiled_counter).evaluate()
        )
        interpreted = list(
            LeapfrogTrieJoin(query, database, counter=interpreted_counter).evaluate()
        )
        assert compiled == interpreted  # ordered, byte-identical
        assert compiled_counter.as_dict() == interpreted_counter.as_dict()

    def test_engine_compiled_vs_oracle_flag(self, engine):
        query = cycle_query(3)
        compiled = engine.count(query, algorithm="lftj")
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert compiled.count == oracle.count
        assert compiled.metadata["compiled"] is True
        assert "compiled" not in oracle.metadata
        assert compiled.counter.as_dict() == oracle.counter.as_dict()

    def test_parallel_shards_share_one_driver(self, engine, database, monkeypatch,
                                              tmp_path):
        """One compilation, the template's, serves every shard.  A forked
        worker's lookups only move its own copy of the counters, so the
        workers, forked after the patch, log each lookup to a file."""
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj", compile=False)
        log = tmp_path / "lookups.log"
        lookup = Database.compiled_driver

        def logged(self, key, relation_names, build):
            builds = self.compiled_builds
            driver = lookup(self, key, relation_names, build)
            kind = "build" if self.compiled_builds > builds else "hit"
            with open(log, "a") as handle:
                handle.write(f"{kind} {os.getpid()}\n")
            return driver

        monkeypatch.setattr(Database, "compiled_driver", logged)
        result = engine.count(query, algorithm="lftj", parallel=4)
        database.close_pools()
        assert result.count == serial.count
        assert result.metadata["parallel"] is True
        assert result.metadata["compiled_builds"] == 1
        assert database.compiled_cache_size() == 1
        lookups = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert [kind for kind, pid in lookups if pid == parent] == ["build"]
        workers = [pid for kind, pid in lookups if pid != parent]
        # Each worker that ran a morsel looked the driver up once and hit.
        assert 1 <= len(workers) <= 4 and len(set(workers)) == len(workers)
        assert {kind for kind, pid in lookups if pid != parent} == {"hit"}


class TestCacheAndInvalidation:
    def test_cache_hit_on_second_execution(self, engine):
        query = cycle_query(3)
        first = engine.count(query, algorithm="lftj")
        second = engine.count(query, algorithm="lftj")
        assert first.metadata["compiled_builds"] == 1
        assert first.metadata["compiled_cache_hits"] == 0
        assert second.metadata["compiled_builds"] == 0
        assert second.metadata["compiled_cache_hits"] == 1

    def test_same_shape_queries_share_a_driver(self, engine, database):
        engine.count(cycle_query(3), algorithm="lftj")
        engine.count(parse_query("E(a, b), E(b, c), E(c, a)"), algorithm="lftj")
        assert database.compiled_builds == 1
        assert database.compiled_cache_hits == 1

    def test_replacement_invalidates_driver(self, engine, database):
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        assert database.compiled_cache_size() == 1
        database.add_relation(
            Relation("E", ("a", "b"), _edges(seed=99)), replace=True
        )
        assert database.compiled_cache_size() == 0
        rebuilt = engine.count(query, algorithm="lftj")
        assert rebuilt.metadata["compiled_builds"] == 1
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert rebuilt.count == oracle.count

    def test_delta_update_invalidates_then_fallback_then_recompile(self):
        # Small relations auto-compact after every batch (the compaction
        # floor), which would merge the deltas before the compiler ever saw
        # them; disable that to pin the deltas-pending fallback.
        database = Database(
            [Relation("E", ("a", "b"), _edges())],
            compaction_floor=0,
            compaction_threshold=1000.0,
        )
        engine = QueryEngine(database)
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        database.insert("E", [(997, 998), (998, 999), (999, 997)])
        # The driver captured the pre-insert arrays: it must be gone.
        assert database.compiled_cache_size() == 0
        # With deltas pending the compiler stands down; the interpreted
        # fallback still answers correctly.
        pending = engine.count(query, algorithm="lftj")
        assert pending.metadata["compiled"] is False
        assert "delta" in pending.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert pending.count == oracle.count
        # Compaction folds the deltas; the next run compiles again.
        database.compact()
        recompiled = engine.count(query, algorithm="lftj")
        assert recompiled.metadata["compiled"] is True
        assert recompiled.metadata["compiled_builds"] == 1
        assert recompiled.count == oracle.count

    def test_compaction_drops_version_keyed_driver(self, engine, database):
        # A driver compiled while another relation's deltas are compacted
        # must not survive compaction of its *own* relation: compaction
        # swaps the backing arrays without a version bump.
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        order = tuple(query.variables)
        key = driver_cache_key(query, order)
        driver = database.peek_compiled_driver(key)
        assert driver is not None
        assert driver.relation_versions == database.relation_versions(
            query.relation_names
        )
        database.insert("E", [(500, 501)])
        database.compact()
        assert database.peek_compiled_driver(key) is None
        # Recompiled driver records the bumped version.
        engine.count(query, algorithm="lftj")
        fresh = database.peek_compiled_driver(key)
        assert fresh is not None and fresh is not driver
        assert fresh.relation_versions == database.relation_versions(
            query.relation_names
        )
        assert fresh.relation_versions != driver.relation_versions


    def test_memory_footprint_sees_the_tables_a_driver_hoists(self, database):
        """What budget rung 2 ("evict compiled drivers") frees is counted:
        the prologue's tables live on the driver, not in a default argument."""
        executor = CompiledTrieJoin(path_query(4), database)  # resolves the tries
        index_only = database.memory_footprint()
        driver = executor.build()
        built = database.memory_footprint()
        assert built > index_only and driver._hoists == {}
        executor.count()
        tables = driver._hoists
        assert sorted(tables) == ["fd1_0", "kr2_0", "w3_0"]
        assert database.memory_footprint() - built >= sum(map(sys.getsizeof, tables.values()))
        assert database.clear_compiled_cache() == 1
        assert database.memory_footprint() == index_only
        # the lollipop's CLFTJ count counts its triangle bag's block over a
        # children table, hoisted on the driver like the rest
        query = parse_query(LOLLIPOP)
        plan = QueryEngine(database).plan(query)
        executor = trie_join_executor(
            query, database, plan.variable_order, None, plan.decomposition,
            plan.policy, plan.make_cache(),
        )
        driver = executor.build()
        built = database.memory_footprint()
        executor.count()
        assert "once@2" in driver.levels["count"]
        tables = driver._hoists
        (children,) = [name for name in tables if name.startswith("ch")]
        assert all(type(run) is frozenset for run in tables[children].values())
        hoisted = sum(map(sys.getsizeof, tables.values()))
        runs = sum(map(sys.getsizeof, tables[children].values()))
        assert database.memory_footprint() - built >= hoisted + runs

    def test_memory_footprint_prices_a_children_table_by_its_values(self):
        """A cycle's children table maps each key to a frozenset: a big dict
        whose values hold most of its bytes.  The estimate walks a sample of
        its items, so the growth tracks the deep size of what was hoisted."""
        rng = random.Random(7)
        rows = sorted({(rng.randrange(600), rng.randrange(600)) for _ in range(3000)})
        database = Database([Relation("E", ("a", "b"), rows)])
        executor = CompiledTrieJoin(parse_query(C4), database)
        driver = executor.build()
        built = database.memory_footprint()
        executor.count()
        tables = driver._hoists
        assert sorted(tables) == ["ch2_0", "kr1_0"] and len(tables["ch2_0"]) > 500

        def deep(obj):
            if isinstance(obj, dict):
                return sys.getsizeof(obj) + sum(deep(k) + deep(v) for k, v in obj.items())
            if isinstance(obj, frozenset):
                return sys.getsizeof(obj) + sum(map(deep, obj))
            return sys.getsizeof(obj)

        hoisted = sum(map(deep, tables.values()))
        growth = database.memory_footprint() - built
        assert abs(growth - hoisted) <= 0.25 * hoisted, (growth, hoisted)


class TestPrepared:
    def test_prepared_holds_and_refreshes_compiled_handle(self, engine, database):
        query = cycle_query(3)
        prepared = engine.prepare(query, algorithm="lftj")
        assert prepared.compiled_driver() is None  # nothing compiled yet
        first = prepared.count()
        assert first.metadata["compiled_builds"] == 1
        driver = prepared.compiled_driver()
        assert driver is not None
        assert driver.matches(database)
        # Version bump: handle sees the invalidation, next run recompiles.
        database.insert("E", [(900, 901)])
        assert prepared.compiled_driver() is None
        database.compact()
        again = prepared.count()
        assert again.metadata["compiled_builds"] == 1
        assert prepared.compiled_driver() is not driver
        assert again.count == engine.count(
            query, algorithm="lftj", compile=False
        ).count

    @pytest.mark.parametrize("algorithm", ["lftj", "clftj"])
    def test_driver_repr_stays_a_log_line(self, engine, algorithm):
        """The captured trie columns and the generated source stay out of
        ``repr`` (a log line, a debugger, a pytest assertion message)."""
        prepared = engine.prepare(path_query(4), algorithm=algorithm)
        prepared.count()
        driver = prepared.compiled_driver()
        text = repr(driver)
        assert len(text) < 1000, len(text)
        for shown in ("key=", "query_name=", "variable_names=", "relation_versions=",
                      f"probed_nodes={driver.probed_nodes!r}"):
            assert shown in text
        assert "def _count" not in text and "array(" not in text

    def test_prepared_compile_false_never_compiles(self, engine, database):
        prepared = engine.prepare(cycle_query(3), algorithm="lftj", compile=False)
        prepared.count()
        assert prepared.compiled_driver() is None
        assert database.compiled_builds == 0


class TestReporting:
    def test_debug_source_exposes_both_modes(self, database):
        executor = CompiledTrieJoin(cycle_query(3), database)
        executor.build()
        count_source = executor.debug_source("count")
        evaluate_source = executor.debug_source("evaluate")
        assert "def _count" in count_source
        assert "def _evaluate" in evaluate_source
        # The evaluate loop returns one list and has no loop over the two
        # deepest runs: a triangle loops over a only, maps its b's to their
        # runs, and the c's of every run found become rows in one batch.
        tree = ast.parse(evaluate_source)
        assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(tree))
        loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
        assert [loop.target.id for loop in loops] == ["i0"]
        assert (
            "_ext(_compress(zip(_repeat(k0), _chain(map(_repeat, ws, ls)), _chain(rs)),"
            " map(sl0.__contains__, _chain(rs))))"
        ) in evaluate_source
        assert evaluate_source.rstrip().endswith("return rows")
        with pytest.raises(ValueError):
            executor.debug_source("nonsense")

    def test_explain_reports_compiled_state_transitions(self, engine):
        query = cycle_query(3)
        cold = engine.explain(query, algorithm="lftj")
        assert "compiled drivers:" in cold
        assert "will compile on first execution" in cold
        engine.count(query, algorithm="lftj")
        warm = engine.explain(query, algorithm="lftj")
        assert "this query: cached" in warm
        disabled = engine.explain(query, algorithm="lftj", compile=False)
        assert "disabled (compile=False" in disabled
        # A single bag probes nothing: clftj resolves to the driver the
        # lftj run above compiled (same order), evaluation included.
        assert _this_query(engine.explain(query, algorithm="clftj")) == "cached"
        multi_bag = path_query(4)
        other = engine.explain(multi_bag, algorithm="clftj")
        assert "will compile on first execution (count mode)" in other
        engine.count(multi_bag, algorithm="clftj")
        other_warm = engine.explain(multi_bag, algorithm="clftj")
        assert "cached (count mode; evaluation runs interpreted)" in other_warm
        interpreted = engine.explain(query, algorithm="ytd")
        assert "not applicable" in interpreted

    def test_explain_says_what_a_cached_driver_is_made_of(self, engine):
        def levels(text, algorithm):
            query = parse_query(text)
            assert "levels:" not in engine.explain(query, algorithm=algorithm)  # nothing cached
            engine.count(query, algorithm=algorithm)
            lines = engine.explain(query, algorithm=algorithm).splitlines()
            (at,) = [i for i, line in enumerate(lines) if line.startswith("compiled drivers:")]
            assert "this query: cached" in lines[at]
            return lines[at + 1]

        def evaluate_levels(text):
            lines = engine.explain(parse_query(text), algorithm="lftj").splitlines()
            (line,) = [line for line in lines if line.startswith("  evaluate levels:")]
            return line

        assert levels(P4, "lftj") == "  levels: merge > walk > walk-run > leaf-run"
        assert levels(C4, "lftj") == "  levels: merge > walk-run > set-leaf-run"
        assert levels("E(a,b), E(b,c), E(c,a)", "lftj") == "  levels: merge > set-leaf-run"
        # beside the count loop, the evaluate loop: a batch of rows per
        # binding above its walk-run
        assert evaluate_levels(P4) == "  evaluate levels: merge > walk > walk > walk-run > leaf-batch"
        assert evaluate_levels(C4) == "  evaluate levels: merge > walk > walk-run > set-leaf-batch"
        # a probe entered at the leaf keeps the loop over the run above it;
        # the line is the loop of the cache's store discipline: the unbounded
        # one here ...
        assert levels(P4, "clftj") == (
            "  levels: merge > walk > probe@1 > block-count > once@2 > probe@2"
            " > walk > probe@3 > fused-leaf"
        )
        # ... a bounded cache's, once a count compiled it: the same words
        # under LRU, every binding probed under reject
        def bounded_levels(**options):
            def line():
                (found,) = [found for found in engine.explain(
                    parse_query(P4), algorithm="clftj", **options
                ).splitlines() if found.startswith("  levels:")]
                return found

            before = line()
            engine.count(parse_query(P4), algorithm="clftj", **options)
            return before, line()

        assert bounded_levels(cache_capacity=100) == (
            "  levels: count-lru compiles on first use",
            "  levels: merge > walk > probe@1 > block-count > once@2 > probe@2"
            " > walk > probe@3 > fused-leaf",
        )
        for rejecting in (AdhesionCache(capacity=100), AdhesionCache(capacity=0, eviction="lru")):
            assert bounded_levels(cache=rejecting)[1] == (
                "  levels: merge > walk > probe@1 > merge > probe@2 > walk > probe@3 > fused-leaf"
            )

    def test_explain_and_execution_name_an_interpreted_cache_alike(self, engine):
        """Another policy, or a cache subclass, over probed nodes runs the
        interpreter: explain() says why (:func:`cache_fallback`) in the words
        of the execution's ``compiled_reason``, before and after it; a
        single bag probes nothing and compiles under any policy."""
        p4 = path_query(4)
        for options, reason in (
            ({"policy": _OddKeysRefused()}, "cache policy _OddKeysRefused runs interpreted"),
            ({"policy": NeverCachePolicy(), "cache_capacity": 100},
             "cache policy NeverCachePolicy runs interpreted"),
            ({"cache": _SubclassedCache()}, "cache class _SubclassedCache runs interpreted"),
        ):
            before = _this_query(engine.explain(p4, algorithm="clftj", **options))
            result = engine.count(p4, algorithm="clftj", **options)
            assert before == f"unavailable ({reason})" == _this_query(
                engine.explain(p4, algorithm="clftj", **options))
            assert result.metadata["compiled"] is False
            assert result.metadata["compiled_reason"] == reason
        assert cache_fallback(AlwaysCachePolicy(), AdhesionCache(capacity=0, eviction="lru")) is None
        single = engine.count(cycle_query(3), algorithm="clftj", policy=_OddKeysRefused())
        assert single.metadata["compiled"] is True
        explained = engine.explain(p4, algorithm="clftj", cache_capacity=100)
        assert "compiled probe" not in explained

    def test_metadata_counters_always_present(self, engine):
        result = engine.count(cycle_query(3), algorithm="pairwise")
        assert result.metadata["compiled_builds"] == 0
        assert result.metadata["compiled_cache_hits"] == 0

    def test_auto_ignores_the_compile_cache_and_runs_the_order_it_priced(
        self, engine, database
    ):
        query = cycle_query(4)
        plan = engine.plan(query)
        assert plan.variable_order != query.variables  # the case under test
        cold = engine.selector.choose(query, plan)
        assert cold.algorithm == "lftj"
        assert "will compile" in _this_query(engine.explain(query, algorithm="auto"))
        for warmed in ("clftj", "lftj"):
            engine.count(query, algorithm=warmed)
            again = engine.selector.choose(query, plan)
            assert (again.algorithm, again.costs) == (cold.algorithm, cold.costs)
        # auto -> lftj runs (and explain reports) the plan's order, a key
        # neither run above populated; the second auto count finds it.
        first = engine.count(query, algorithm="auto")
        assert first.variable_order == plan.variable_order
        assert first.metadata["compiled_builds"] == 1
        assert _this_query(engine.explain(query, algorithm="auto")) == "cached"
        prepared = engine.prepare(query, algorithm="auto")
        for second in (engine.count(query, algorithm="auto"), prepared.count()):
            assert second.variable_order == plan.variable_order
            assert second.metadata["compiled_builds"] == 0
            assert second.count == first.count
        assert prepared.compiled_driver() is not None
        assert first.count == engine.count(query, algorithm="lftj", compile=False).count


class TestValidation:
    def test_compile_rejected_for_non_compiled_algorithms(self, engine):
        for algorithm in ("ytd", "pairwise"):
            assert algorithm not in COMPILED_ALGORITHMS
            with pytest.raises(ValueError, match="compile"):
                engine.count(cycle_query(3), algorithm=algorithm, compile=False)

    def test_auto_rejects_explicit_compile(self, engine):
        with pytest.raises(ValueError):
            engine.count(cycle_query(3), algorithm="auto", compile=False)

    def test_cli_no_compile_runs_interpreted(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "lftj", "--no-compile"])
        assert code == 0
        assert "3-cycle" in capsys.readouterr().out

    def test_cli_no_compile_invalid_combo_exits_2(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "ytd", "--no-compile"])
        assert code == 2
        assert "compile" in capsys.readouterr().err

    def test_cli_no_compile_valid_for_clftj(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "clftj", "--no-compile"])
        assert code == 0

    def test_cli_explain_reports_disabled_state(self, capsys):
        code = main(["explain", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "lftj", "--no-compile"])
        assert code == 0
        assert "disabled (compile=False" in capsys.readouterr().out


# --------------------------------------------------------------------------
# The counter model: loops count visits, the epilogue derives the rest.
# --------------------------------------------------------------------------

P3 = "E(a,b), E(b,c), E(c,d)"
P4 = "E(a,b), E(b,c), E(c,d), E(d,e)"
C4 = "E(a,b), E(b,c), E(c,d), E(d,a)"
LOLLIPOP = "E(a,b), E(a,c), E(b,c), E(c,d), E(d,e)"

class SiteCase(NamedTuple):
    """One query per kind of emission site."""

    name: str
    text: str
    algorithm: str
    #: regexes the generated count source must match ...
    patterns: Tuple[str, ...]
    #: ... and what the driver says it is made of (``CompiledDriver.levels``)
    levels: Tuple[str, ...]
    #: an explicit decomposition as (bags, parents); the planner's otherwise
    bags: Optional[tuple] = None
    #: the count loop the patterns and levels are of
    form: str = "count"

    def options(self):
        if self.bags is None:
            return {}
        return {"decomposition": TreeDecomposition(*self.bags)}


LEAF_RUN = (r"ws = list\(map\(w\d_\d\.get, ", r"n\d+ \+= len\(ws\) - ws\.count\(0\)", r"m = sum\(ws\)")
#: The walk above the leaf run maps its keys to their child runs and chains
#: the runs found: one visit per run found, whose lengths are its spans.
WALK_RUN = (
    r"rs = list\(map\(kr\d_0\.get, .*, _noruns\)\)\n +ls = list\(map\(len, rs\)\)\n"
    r" +n\d+ \+= len\(ls\) - ls\.count\(0\)\n",
    r"kr\d_0 = \{K\d_0\[i\]: K\d_1\[B\d_0\[i\]:E\d_0\[i\]\] for i in ",
    r"_dlt \+= len\(ls\) \+ sum\(ls\)\n",
)
SET_LEAF_RUN = (
    r"cs = list\(map\(ch\d_\d\.get, .*, _empty\)\)\n +ws = list\(map\(len, cs\)\)\n",
    r"n\d+ \+= len\(ws\) - ws\.count\(0\)",
    r"m = sum\(map\(len, map\(sl\d\.intersection, cs\)\)\)",
    r"ch\d_\d = \{K\d_0\[i\]: frozenset\(K\d_1\[B\d_0\[i\]:E\d_0\[i\]\]\) for i in ",
)

#: An evaluation's walk-run keeps its walked keys ``ws`` in order, maps them
#: to their runs, and every run found becomes rows in one batch per binding
#: above it: each walked key repeated by its run's length beside the runs
#: chained, with the row limit checked after the batch.
EVAL_WALK_RUN = (
    r"rs = list\(map\(kr\d_0\.get, ws, _noruns\)\)\n +ls = list\(map\(len, rs\)\)\n"
    r" +n\d+ \+= len\(ls\) - ls\.count\(0\)\n",
    r"kr\d_0 = \{K\d_0\[i\]: K\d_1\[B\d_0\[i\]:E\d_0\[i\]\] for i in ",
    r"_dlt \+= len\(ls\) \+ m\n",
    r"_chain\(map\(_repeat, ws, ls\)\), _chain\(rs\)\)",
    r"c_res \+= m\n +if c_res > _cap:\n +raise _RowLimit\n",
)
#: The walked run as a slice, or filtered in order by a narrowing set.
WALKED_SLICE = (r"ws = K\d_1\[lo\d_1:hi\d_1\]\n",)
WALKED_FILTERED = (r"ws = list\(filter\(fs\d_1\.__contains__, K\d_1\[lo\d_1:hi\d_1\]\)\)\n",)
#: Alone, the runs found are the rows' last column ...
LEAF_BATCH_CHAINED = (r"m = sum\(ls\)\n +c_acc \+= m\n",)
#: ... beside the invariant set, a second chain of them selects the rows.
SET_LEAF_BATCH_CHAINED = (
    r"c_acc \+= sum\(ls\) \+ \(len\(ls\) - ls\.count\(0\)\) \* ",
    r"before = len\(rows\)\n +_ext\(_compress\(zip\(.*, _chain\(rs\)\), "
    r"map\(sl\d\.__contains__, _chain\(rs\)\)\)\)\n +m = len\(rows\) - before\n",
)

#: A miss on node 1 counts its block into ``im1``, then probes node 2 once:
#: the probe's entry record per binding, the other bindings' hits.
ONCE = (
    r"im1 \+= m\n +n\d+ \+= im1\n +if im1:\n +# node 2: adhesion-cache probe\n",
    r"f\d+ = im1 \* cv\d+\n +n(\d+) \+= 1\n +total \+= f\d+\n +n\1 \+= im1 - 1\n",
    r"n\d+ \+= im1 - 1\n +_tab\[ak0\] = im1\n",
)

#: A store into a full table is refused, and the refusals are a trip count:
#: every miss that was not refused inserted an entry.
REJECT = (
    r"if len\(_tab\) < cap:\n +_tab\[ak\d+\] = im\d+\n +else:\n +n\d+ \+= 1\n",
    r"\n    c_rej = n\d+.*\n    counter\.cache_rejections \+= c_rej\n    c_mat -= c_rej\n"
    r"    counter\.cache_insertions \+= c_mat\n",
)

SITE_CASES = [
    SiteCase("interior-merge", "E(a,b), F(a,b), E(b,c)", "lftj",
             (r"ks1, \(.*_run_intersect",), ("merge", "merge", "fused-leaf")),
    SiteCase("leaf-run", P4, "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(kr2_0\.get, K1_1\[lo1_1:hi1_1\], _noruns\)",
                                    r"c_acc \+= sum\(ls\)\n",
                                    r"map\(w3_0\.get, _chain\(rs\), _zeros\)"),
             ("merge", "walk", "walk-run", "leaf-run")),
    # a walk over the run of a root-level filter, reduced with the leaf run
    # below it: the 3-path loses every loop but the top one
    SiteCase("walk-run-3-path", P3, "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(kr1_0\.get, K0_1\[lo0_1:hi0_1\], _noruns\)",
                                    r"map\(w2_0\.get, _chain\(rs\), _zeros\)"),
             ("merge", "walk-run", "leaf-run")),
    # every third b of H has no run and H's runs hold keys E lacks: the
    # walk-run finds fewer runs than it walks, the leaf fewer keys
    SiteCase("walk-run-dangling", "E(a,b), H(b,c), H(c,d)", "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(w2_0\.get, _chain\(rs\), _zeros\)",),
             ("merge", "walk-run", "leaf-run")),
    # a chord onto the chained level narrows the chain, whose keys repeat
    # (one d under many c): a filter keeps every copy
    SiteCase("walk-run-chain-narrowed", P4 + ", F(b,d)", "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(w3_0\.get, filter\(fs4_1\.__contains__, _chain\(rs\)\), _zeros\)",),
             ("merge", "walk", "walk-run", "leaf-run")),
    # every third b of E has no H row: fewer leaf visits than walked keys
    SiteCase("leaf-run-dangling", "E(a,b), H(b,c)", "lftj", LEAF_RUN, ("merge", "leaf-run")),
    # the lollipop's tail, under the walk-run its set filter narrows (a
    # chord onto the walked level)
    SiteCase("leaf-run-under-set-filter", LOLLIPOP, "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(kr3_0\.get, fs1_1\.intersection\(K2_1\[lo2_1:hi2_1\]\), _noruns\)",),
             ("merge", "walk", "walk-run", "leaf-run")),
    # a set filter on the reduced level itself narrows the chained runs first
    SiteCase("leaf-run-narrowed", "E(a,b), E(b,c), F(a,c), E(c,d)", "lftj",
             LEAF_RUN + WALK_RUN + (r"map\(w3_0\.get, filter\(fs2_1\.__contains__, _chain\(rs\)\), _zeros\)",),
             ("merge", "walk-run", "leaf-run")),
    # the last bag owns the last two variables: the reduction runs in a
    # probe's miss branch, once under the bindings of the block before it
    # and once under a hit's factor
    SiteCase("leaf-run-in-miss-branch", "E(a,b), E(b,c), E(a,d), E(d,e)", "clftj",
             LEAF_RUN + (r"c_rec \+= m; total \+= im1 \* m\n +im2 \+= m\n",
                         r"c_rec \+= m; total \+= f\d+ \* m\n +im2 \+= m\n"),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "leaf-run"),
             bags=([["a", "b"], ["b", "c"], ["a", "d", "e"]], [None, 0, 0])),
    SiteCase("leaf-of-2", "E(a,b), F(a,b)", "lftj",
             (r"fused leaf", r"m = _pair_count\("), ("merge", "fused-leaf")),
    SiteCase("leaf-of-3", "E(a,b), F(a,b), G(a,b)", "lftj",
             (r"fused leaf", r"m = _run_count\("), ("merge", "fused-leaf")),
    # two runs vary under the walk: the set-leaf keeps its loop
    SiteCase("leaf-invariant-set", "E(a,b), E(b,c), F(b,c), E(c,a)", "lftj",
             (r"m = len\(sl0\.intersection\(_run_keys\(",), ("merge", "walk", "set-leaf")),
    SiteCase("set-leaf-run", C4, "lftj",
             SET_LEAF_RUN + WALK_RUN + (r"map\(ch2_0\.get, _chain\(rs\), _empty\)",
                                        r"c_acc \+= sum\(ws\) \+ \(len\(ws\) - ws\.count\(0\)\) \* \(hi3_1 - lo3_1\)\n"),
             ("merge", "walk-run", "set-leaf-run")),
    # the 5-cycle keeps one walk above its walk-run
    SiteCase("walk-run-5-cycle", "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)", "lftj",
             SET_LEAF_RUN + WALK_RUN + (r"map\(kr2_0\.get, K1_1\[lo1_1:hi1_1\], _noruns\)",
                                        r"map\(ch3_0\.get, _chain\(rs\), _empty\)"),
             ("merge", "walk", "walk-run", "set-leaf-run")),
    # the chained run found at each key is a cycle's closing run: dangling
    # H keys on both sides of it
    SiteCase("walk-run-4-cycle-dangling", "E(a,b), H(b,c), H(c,d), E(d,a)", "lftj",
             SET_LEAF_RUN + WALK_RUN, ("merge", "walk-run", "set-leaf-run")),
    # every third b of E has no H row: fewer leaf visits than walked keys
    SiteCase("set-leaf-run-dangling", "E(a,b), H(b,c), E(c,a)", "lftj", SET_LEAF_RUN,
             ("merge", "set-leaf-run")),
    # a set filter on the reduced level itself narrows the run first
    SiteCase("set-leaf-run-narrowed", "E(a,b), E(b,c), F(a,c), E(c,d), E(d,a)", "lftj",
             SET_LEAF_RUN + WALK_RUN + (r"map\(ch3_0\.get, filter\(fs2_1\.__contains__, _chain\(rs\)\), _empty\)",),
             ("merge", "walk-run", "set-leaf-run")),
    # two invariant runs: a chained set, and two spans per key found
    SiteCase("set-leaf-run-clique", "E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)", "lftj",
             SET_LEAF_RUN + (r"sl1 = sl0\.intersection\(", r"map\(sl1\.intersection, cs\)",
                             r"\* \(\(hi\d_1 - lo\d_1\) \+ \(hi\d_1 - lo\d_1\)\)\n"),
             ("merge", "walk", "set-leaf-run")),
    SiteCase("set-leaf-run-chorded-cycle", C4 + ", F(b,d)", "lftj",
             SET_LEAF_RUN + (r"sl1 = sl0\.intersection\(", r"map\(sl1\.intersection, cs\)"),
             ("merge", "walk", "set-leaf-run")),
    # a path ending in a triangle: the last bag closes it in a probe's miss
    # branch, once under the bindings of the block before it and once under
    # a hit's factor
    SiteCase("set-leaf-run-in-miss-branch", "E(a,b), E(b,c), E(c,d), E(d,e), E(c,e)", "clftj",
             SET_LEAF_RUN + (r"c_rec \+= m; total \+= im1 \* m\n +im2 \+= m\n",
                             r"c_rec \+= m; total \+= f\d+ \* m\n +im2 \+= m\n"),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "set-leaf-run"),
             bags=([["b", "c"], ["a", "b"], ["c", "d", "e"]], [None, 0, 0])),
    SiteCase("leaf-unfused", "E(a,b), U(b)", "lftj",
             (r"leaf count \(unfused\)",), ("merge", "unfused-leaf")),
    # The loop of a rejecting cache (a capacity of 0 under either eviction
    # too) probes every binding: hit and miss continuations, a hit that lands
    # on the base case, and a store refused by a full table; the probe
    # entered at the leaf keeps the walk above it a loop
    SiteCase("probe-path", P4, "clftj",
             REJECT + (r"adhesion-cache probe", r"else:\n.*\n.*\n +n\d+ \+= 1\n +total \+= f\d+\n",
                       r"for i3 in range\(lo2_1, hi2_1\):"),
             ("merge", "walk", "probe@1", "merge", "probe@2", "walk", "probe@3", "fused-leaf"),
             form="count-reject"),
    SiteCase("probe-two-variable-adhesion", C4, "clftj",
             REJECT + (r"ak\d+ = \(\d+, \(k\d, k\d\)\)",),
             ("merge", "walk", "walk", "probe@1", "set-leaf"), form="count-reject"),
    SiteCase("probe-under-walk", LOLLIPOP, "clftj",
             REJECT + (r"adhesion-cache probe", r"fs2_1"),
             ("merge", "walk", "probe@1", "walk", "walk", "probe@2", "fused-leaf"),
             form="count-reject"),
    # Where every miss stores, the count loop counts a childless bag's block
    # without its continuation and probes the next bag once for all of its
    # bindings: one run's bindings are its length ...
    SiteCase("once-3-path", P3, "clftj",
             ONCE + (r"# depth 2: node 1's bindings\n +st = .*\n +c_acc \+= .*\n"
                     r" +m = hi0_1 - lo0_1\n +if _dl_at is not None:\n +_dlt \+= m\n",
                     r"c_rec \+= m; total \+= im1 \* m\n"),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "fused-leaf")),
    # ... the factor reaches the probes nested in the once-probed bag's miss
    SiteCase("once-4-path", P4, "clftj",
             ONCE + (r"m = hi0_1 - lo0_1\n", r"f\d+ = im1 \* cv\d+\n",
                     r"c_rec \+= m; total \+= im1 \* m\n"),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "walk",
              "probe@3", "fused-leaf")),
    # ... a walk over a run beside an invariant set is a set-leaf run over a
    # children table (the lollipop's triangle) ...
    SiteCase("once-lollipop", LOLLIPOP, "clftj",
             ONCE + SET_LEAF_RUN + (r"# depth 3: node 1's bindings, whole run at once\n",
                                    r"ch0_0 = \{K0_0\[i\]: frozenset"),
             ("merge", "walk", "probe@1", "set-leaf-run", "once@2", "probe@2", "fused-leaf")),
    SiteCase("once-3-star", "E(a,b), E(a,c), E(a,d)", "clftj",
             ONCE + (r"m = hi1_1 - lo1_1\n",),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "fused-leaf")),
    # ... two runs meet in the block, and often do not: a block with no
    # bindings probes nothing after it
    SiteCase("once-dangling", "E(a,b), E(b,c), H(b,c), E(a,d)", "clftj",
             ONCE + (r"m = _pair_count\(K1_1, lo1_1, hi1_1, K2_1, lo2_1, hi2_1\)",),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "fused-leaf"),
             bags=([["a", "b"], ["b", "c"], ["a", "d"]], [None, 0, 0])),
    # ... and the once-probed bag's key is the outer variable: a miss below
    # a new b finds the entry an earlier b under the same a stored
    SiteCase("once-first-arrival-hits", "E(a,b), E(b,c), E(a,d)", "clftj",
             ONCE + (r"ak\d+ = \(2, \(k0,\)\)",),
             ("merge", "walk", "probe@1", "block-count", "once@2", "probe@2", "fused-leaf"),
             bags=([["a", "b"], ["b", "c"], ["a", "d"]], [None, 0, 0])),
    # The evaluate loop's walk-run: the 2-path loses every loop but the top
    # one ...
    SiteCase("eval-walk-run-2-path", "E(a,b), E(b,c)", "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + LEAF_BATCH_CHAINED,
             ("merge", "walk-run", "leaf-batch"), form="evaluate"),
    # ... longer paths and the lollipop's tail keep the walks above it ...
    SiteCase("eval-walk-run-3-path", P3, "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk-run", "leaf-batch"), form="evaluate"),
    SiteCase("eval-walk-run-4-path", P4, "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk", "walk-run", "leaf-batch"), form="evaluate"),
    SiteCase("eval-walk-run-lollipop", LOLLIPOP, "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk", "walk-run", "leaf-batch"), form="evaluate"),
    # ... a cycle's closing run is chained beside its invariant set ...
    SiteCase("eval-walk-run-4-cycle", C4, "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + SET_LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk-run", "set-leaf-batch"), form="evaluate"),
    SiteCase("eval-walk-run-5-cycle", "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)", "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + SET_LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk", "walk-run", "set-leaf-batch"), form="evaluate"),
    SiteCase("eval-walk-run-triangle", "E(a,b), E(b,c), E(c,a)", "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + SET_LEAF_BATCH_CHAINED,
             ("merge", "walk-run", "set-leaf-batch"), form="evaluate"),
    # ... every third b and c of H has no run, so the run table misses keys
    # on both levels ...
    SiteCase("eval-walk-run-dangling", "E(a,b), H(b,c), H(c,d)", "lftj",
             EVAL_WALK_RUN + WALKED_SLICE + LEAF_BATCH_CHAINED,
             ("merge", "walk", "walk-run", "leaf-batch"), form="evaluate"),
    # ... chords onto the walked level narrow the walked run in its order ...
    SiteCase("eval-walk-run-chord-narrowed", "E(a,b), E(b,c), F(a,c), G(a,c), E(c,d)", "lftj",
             EVAL_WALK_RUN + LEAF_BATCH_CHAINED
             + (r"ws = list\(filter\(fs\d_1\.__contains__, filter\(fs\d_1\.__contains__, "
                r"K1_1\[lo1_1:hi1_1\]\)\)\)\n",),
             ("merge", "walk", "walk-run", "leaf-batch"), form="evaluate"),
    # ... and a set-leaf batch over two invariant runs under a narrowed
    # walk-run (the 4-clique): keys repeat across the chained runs, and the
    # selector keeps every copy
    SiteCase("eval-set-leaf-batch-under-walk-run",
             "E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)", "lftj",
             EVAL_WALK_RUN + WALKED_FILTERED + SET_LEAF_BATCH_CHAINED
             + (r"\* \(\(hi\d_1 - lo\d_1\) \+ \(hi\d_1 - lo\d_1\)\)\n", r"map\(sl1\.__contains__, "),
             ("merge", "walk", "walk-run", "set-leaf-batch"), form="evaluate"),
]
SITE_IDS = [case.name for case in SITE_CASES]
PROBE_CASES = [case for case in SITE_CASES if case.algorithm == "clftj"]


class _OddKeysRefused(AlwaysCachePolicy):
    """An exact-type check must see through this: it overrides the decision."""

    def should_cache(self, node, adhesion, adhesion_values, intermediate):
        return sum(adhesion_values) % 2 == 0


class _SubclassedCache(AdhesionCache):
    """A cache subclass may override ``get`` / ``put``: the compiled probe,
    which reads and writes the table itself, must not run over it."""


#: Every policy a CLFTJ count may run under, built per (database, query):
#: ``always`` compiles, the others run interpreted (:func:`cache_fallback`).
PROBE_POLICIES = {
    "always": lambda database, query: AlwaysCachePolicy(),
    "always-subclass": lambda database, query: _OddKeysRefused(),
    "never": lambda database, query: NeverCachePolicy(),
    "support-2": lambda database, query: SupportThresholdPolicy(database, query, threshold=2),
    "bounded-3": lambda database, query: BoundedCachePolicy(3),
    "frequency-2": lambda database, query: FrequencyAdmissionPolicy(2),
    "composite": lambda database, query: CompositePolicy(
        [SupportThresholdPolicy(database, query, threshold=1), BoundedCachePolicy(5)]
    ),
}


#: Every cache a compiled count must agree with the interpreter over: each
#: store discipline at a capacity of none, 0, 4 (filled before the first
#: count) and 100.
PROBE_CACHES = {
    "unbounded": lambda: AdhesionCache(),
    "lru-None": lambda: AdhesionCache(eviction="lru"),
    "lru-0": lambda: AdhesionCache(capacity=0, eviction="lru"),
    "lru-4": lambda: AdhesionCache(capacity=4, eviction="lru"),
    "lru-100": lambda: AdhesionCache(capacity=100, eviction="lru"),
    "reject-0": lambda: AdhesionCache(capacity=0),
    "reject-4": lambda: AdhesionCache(capacity=4),
    "reject-100": lambda: AdhesionCache(capacity=100),
}


def _reading_f_last(case):
    """The case's query with its last atom over F: an update of F
    (:func:`_update_f`) leaves some cache entries warm."""
    head, _, tail = case.text.rpartition("E(")
    return parse_query(f"{head}F({tail}")


def _update_f(database):
    database.insert("F", [(1, 29), (29, 3), (4, 28)])
    database.delete("F", database.relation("F").tuples[:4])


def _site_database(empty=False, nodes=30, count=160):
    def rows(seed):
        return [] if empty else _edges(seed=seed, nodes=nodes, count=count)

    unary = [] if empty else [(value,) for value in range(0, nodes, 2)]
    return Database([
        Relation("E", ("a", "b"), rows(1)),
        Relation("F", ("a", "b"), rows(2)),
        Relation("G", ("a", "b"), rows(3)),
        Relation("H", ("a", "b"), [row for row in rows(4) if row[0] % 3]),
        Relation("U", ("a",), unary),
    ])


def _capacities(algorithm):
    return (None, 0, 100) if algorithm == "clftj" else (None,)


def _count_source(engine, case):
    """Count once, then the driver's generated count loop and its levels."""
    prepared = engine.prepare(
        parse_query(case.text), algorithm=case.algorithm, **case.options()
    )
    prepared.count()
    driver = prepared.compiled_driver()
    return driver.debug_source(case.form), driver.levels[case.form]


def _sharded(database, query, algorithm, capacity, compile, rows=False, **planned):
    """Run three ``[lo, hi)`` code ranges through one executor (and one
    adhesion cache), the way a pool worker runs its morsels: the summed
    count — or, with ``rows``, the concatenated coded rows — and counters."""
    plan = QueryEngine(database).plan(query, cache_capacity=capacity, **planned)
    executor = make_range_executor(
        query, database, plan.variable_order, algorithm, compile,
        decomposition=plan.decomposition, policy=plan.policy, cache=plan.make_cache(),
    )
    codes = len(database.dictionary)
    cuts = (None, codes // 3, 2 * codes // 3, None)
    values, merged = [], OperationCounter()
    for lo, hi in zip(cuts, cuts[1:]):
        counter = OperationCounter()
        if rows:
            values.extend(executor.evaluate_coded(lo, hi, counter))
        else:
            values.append(executor.count(lo, hi, counter))
        merged.merge(counter)
    return (values if rows else sum(values)), merged.as_dict()


class TestCounterModel:
    @pytest.mark.parametrize("case", SITE_CASES, ids=SITE_IDS)
    def test_every_site_kind_charges_what_the_interpreter_charges(self, case):
        name, algorithm = case.name, case.algorithm
        query = parse_query(case.text)
        database = _site_database()
        engine = QueryEngine(database)
        source, levels = _count_source(engine, case)
        assert levels == case.levels
        for pattern in case.patterns:
            assert re.search(pattern, source), f"{name}: no {pattern!r} in\n{source}"
        for capacity in _capacities(algorithm):
            options = case.options()
            if capacity is not None:
                options["cache_capacity"] = capacity

            def run(compile, **extra):
                result = engine.count(
                    query, algorithm=algorithm, compile=compile, **options, **extra
                )
                assert result.metadata.get("compiled", False) is (compile is None)
                return result.count, result.counter.as_dict()

            whole = run(None)
            assert whole == run(False), (name, capacity)
            assert whole[0] > 0 and whole[1]["recursive_calls"] > 1
            # a deadline that never fires changes no counter
            assert run(None, timeout=3600.0) == whole == run(False, timeout=3600.0)
            # three shards, summed: a worker's morsels over one executor
            sharded = _sharded(database, query, algorithm, capacity, None, **case.options())
            assert sharded == _sharded(
                database, query, algorithm, capacity, False, **case.options()
            )
            assert sharded[0] == whole[0]
        if algorithm == "lftj":
            # evaluate mode: the interpreter's rows in its order and every
            # counter, with and without a deadline that never fires ...
            def evaluate(compile, **extra):
                result = engine.evaluate(query, algorithm=algorithm, compile=compile, **extra)
                assert result.metadata.get("compiled", False) is (compile is None)
                return result.rows, result.counter.as_dict()

            evaluated = evaluate(None)
            assert evaluated == evaluate(False) == evaluate(None, timeout=3600.0), name
            assert len(evaluated[0]) == whole[0]
            # ... and the same interior charges per range
            coded = _sharded(database, query, algorithm, None, None, rows=True)
            assert coded == _sharded(database, query, algorithm, None, False, rows=True)
            assert len(coded[0]) == whole[0]

    @pytest.mark.parametrize("case", SITE_CASES, ids=SITE_IDS)
    def test_parity_over_empty_relations(self, case):
        query = parse_query(case.text)
        engine = QueryEngine(_site_database(empty=True))
        compiled = engine.count(query, algorithm=case.algorithm, **case.options())
        interpreted = engine.count(
            query, algorithm=case.algorithm, compile=False, **case.options()
        )
        assert compiled.metadata["compiled"] is True
        assert compiled.count == interpreted.count == 0
        assert compiled.counter.as_dict() == interpreted.counter.as_dict()
        if case.algorithm == "lftj":
            compiled = engine.evaluate(query, algorithm="lftj")
            interpreted = engine.evaluate(query, algorithm="lftj", compile=False)
            assert compiled.metadata["compiled"] is True
            assert compiled.rows == interpreted.rows == []
            assert compiled.counter.as_dict() == interpreted.counter.as_dict()

    @pytest.mark.parametrize("case", SITE_CASES, ids=SITE_IDS)
    def test_no_loop_keeps_derivable_counters(self, case):
        """Seeks, opens and emitted results are functions of the trip counts
        and ``total`` (an evaluation's rows, ``c_res``, are measured): no
        ``for`` body may keep them by hand again."""
        name, algorithm = case.name, case.algorithm
        source, _levels = _count_source(QueryEngine(_site_database()), case)
        loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
        assert loops
        derivable = {"c_seek", "c_open"} | ({"c_res"} if case.form != "evaluate" else set())
        for loop in loops:
            targets = {
                node.target.id
                for node in ast.walk(loop)
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
            }
            assert not targets & derivable, (name, targets)
        if algorithm == "lftj":
            # One generator serves LFTJ and CLFTJ; nothing of a probe may
            # leak into a plan that has none.
            mode = case.form
            assert source.startswith(
                f"def _{mode}(columns, _hoist, counter, lo=None, hi=None, deadline=None,"
            )
            assert not re.search(r"cache|policy|c_rec|c_mat|_cget|\bim\d", source), source

    @pytest.mark.parametrize("case", SITE_CASES, ids=SITE_IDS)
    def test_equal_named_hoists_are_equal_across_loops(self, case):
        """A driver keeps one table per name for all of its loops, so every
        loop must build a name's table alike: run alone over an empty dict,
        each loop (count and evaluate, or the three store disciplines'
        count loops) hoists every name it shares with another as an equal
        table."""
        engine = QueryEngine(_site_database())
        for algorithm in sorted({"lftj", case.algorithm}):
            options = case.options() if algorithm == "clftj" else {}
            prepared = engine.prepare(parse_query(case.text), algorithm=algorithm, **options)
            prepared.count()
            driver = prepared.compiled_driver()
            if driver.probed_nodes:
                caches = {"count": AdhesionCache(), "count-reject": AdhesionCache(capacity=100),
                          "count-lru": AdhesionCache(capacity=100, eviction="lru")}
                loops = {
                    name: partial(driver.count, OperationCounter(), cache=cache)
                    for name, cache in caches.items()
                }
            else:
                loops = {"count": lambda: driver.count(OperationCounter()),
                         "evaluate": lambda: driver.evaluate(OperationCounter())}
            tables = {}
            for name, run in loops.items():
                driver._hoists = {}
                run()
                tables[name] = driver._hoists
            for one, other in itertools.combinations(tables.values(), 2):
                for shared in one.keys() & other.keys():
                    assert one[shared] == other[shared], (case.name, algorithm, shared)

    def test_path_inner_loop_keeps_three_accumulators(self):
        """README's example, the 4-path LFTJ count: five variables, two
        loops — none over the two deepest walked runs — and the innermost
        one left keeps the same three accumulators the reduced loops kept."""
        query = parse_query(P4)
        engine = QueryEngine(_site_database())
        engine.count(query, algorithm="lftj")
        source = engine.prepare(query, algorithm="lftj").compiled_driver().debug_source("count")
        loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
        assert [loop.target.id for loop in loops] == ["i0", "i1"]
        assert "range(lo1_1, hi1_1)" not in source and "range(lo2_1, hi2_1)" not in source
        innermost = loops[-1]
        assert not any(isinstance(node, ast.For) for node in ast.walk(innermost) if node is not innermost)
        targets = {
            re.sub(r"^n\d+$", "n<site>", node.target.id)
            for node in ast.walk(innermost)
            if isinstance(node, ast.AugAssign) and node.target.id != "_dlt"
        }
        assert targets == {"c_acc", "n<site>", "total"}

    def test_leaf_run_visits_the_leaf_once_per_key_found(self):
        """``leaf-run-dangling``: the walk passes keys the weight table does
        not hold, so the leaf's trips are the found keys, not the run."""
        database = _site_database()
        walked = [b for _a, b in database.relation("E").tuples]
        held = {b for b, _c in database.relation("H").tuples}
        found = sum(b in held for b in walked)
        assert 0 < found < len(walked)
        query = parse_query("E(a,b), H(b,c)")
        result = QueryEngine(database).count(query, algorithm="lftj")
        oracle = QueryEngine(database).count(query, algorithm="lftj", compile=False)
        assert result.metadata["compiled"] is True
        assert result.counter.as_dict() == oracle.counter.as_dict()
        # one call per execution, per a, per (a, b) found in H, per match
        firsts = len({a for a, _b in database.relation("E").tuples})
        assert result.counter.recursive_calls == 1 + firsts + found + result.count

    @pytest.mark.parametrize("seed", range(12))
    def test_random_leaf_run_shapes_match_the_oracle(self, seed):
        """Chains over mixed relations (``H`` leaves keys dangling), some with
        a chord or a unary atom that narrows the reduced run first."""
        rng = random.Random(seed)
        length = rng.randint(2, 4)
        names = "abcde"[: length + 1]
        walked = names[-2]
        atoms = [f"{rng.choice('EFGH')}({x},{y})" for x, y in zip(names, names[1:])]
        if length >= 3 and rng.random() < 0.5:
            atoms.append(f"{rng.choice('EFG')}({rng.choice(names[:-3])},{walked})")
        if rng.random() < 0.3:
            atoms.append(f"U({walked})")
        query = parse_query(", ".join(atoms))
        database = _site_database()
        engine = QueryEngine(database)
        prepared = engine.prepare(query, algorithm="lftj")
        compiled = prepared.count()
        assert prepared.compiled_driver().levels["count"][-1] == "leaf-run", atoms
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert compiled.count == oracle.count > 0
        assert compiled.counter.as_dict() == oracle.counter.as_dict(), atoms
        assert _sharded(database, query, "lftj", None, None) == _sharded(
            database, query, "lftj", None, False
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_set_leaf_run_shapes_match_the_oracle(self, seed):
        """Cycles over mixed relations (``H`` leaves keys dangling) under the
        written order, some with a chord into the closing variable (chained
        invariant sets), a chord onto the walked one (a narrowing filter) or
        a unary atom on the closing variable (a constant span)."""
        rng = random.Random(seed)
        extra = ("none", "unary", "closing", "walked")[seed % 4]
        length = rng.randint(3 if extra in ("none", "unary") else 4, 5)
        names = "abcde"[:length]
        closing, walked = names[-1], names[-2]
        pairs = list(zip(names, names[1:])) + [(closing, names[0])]
        atoms = [f"{rng.choice('EFGH')}({x},{y})" for x, y in pairs]
        if extra == "closing":
            atoms.append(f"{rng.choice('EFG')}({rng.choice(names[1:-2])},{closing})")
        elif extra == "walked":
            atoms.append(f"{rng.choice('EFG')}({rng.choice(names[:-3])},{walked})")
        elif extra == "unary":
            atoms.append(f"U({closing})")
        query = parse_query(", ".join(atoms))
        order = query.variables
        database = _site_database()
        engine = QueryEngine(database)
        compiled = engine.count(query, algorithm="lftj", variable_order=order)
        driver = engine.prepare(query, algorithm="lftj", variable_order=order).compiled_driver()
        assert driver.levels["count"][-1] == "set-leaf-run", atoms
        oracle = engine.count(query, algorithm="lftj", variable_order=order, compile=False)
        assert compiled.count == oracle.count > 0, atoms
        assert compiled.counter.as_dict() == oracle.counter.as_dict(), atoms
        for algorithm in ("lftj", "clftj"):
            assert _sharded(database, query, algorithm, None, None) == _sharded(
                database, query, algorithm, None, False
            ), (algorithm, atoms)

    @pytest.mark.parametrize("cache_name", sorted(PROBE_CACHES))
    @pytest.mark.parametrize("case", PROBE_CASES, ids=[case.name for case in PROBE_CASES])
    def test_every_store_discipline_matches_the_interpreter(self, case, cache_name):
        """Per cache — unbounded, LRU or rejecting, at a capacity of none,
        0, 4 or 100 — a cold run, a warm prepared run and a run after an
        update that invalidates part of the cache: counts, counters
        (evictions and rejections too) and the cache's entries, order and
        byte figure all equal the interpreter's, and the compiled count
        reads the table without a call.  Capacity 4 is a full cache: it
        starts full of entries no plan node reads, whose big ints weigh
        more than what replaces them; under LRU every count evicts at a
        constant length, under reject every store is refused."""
        database = _site_database()
        query = _reading_f_last(case)
        engine = QueryEngine(database)
        handles, caches = {}, {}
        for compile in (None, False):
            caches[compile] = PROBE_CACHES[cache_name]()
            handles[compile] = engine.prepare(
                query, algorithm="clftj", compile=compile, cache=caches[compile],
                **case.options(),
            )
        if caches[None].capacity == 4:
            for filled in caches.values():
                for big in range(2**70, 2**70 + 4):
                    filled.put(99, (big,), big)
        cache = caches[None]
        loop, _capacity = store_loop(cache)
        consults = []  # the interpreter reads the cache through get()
        cache.get = lambda *key, get=cache.get: consults.append(key) or get(*key)
        for step in ("cold", "warm", "updated"):
            held = len(cache)
            if step == "updated":
                _update_f(database)
            runs = {}
            for compile, prepared in handles.items():
                result = prepared.count()
                assert result.metadata.get("compiled", False) is (compile is None)
                runs[compile] = (
                    result.count, result.counter.as_dict(), list(caches[compile].table.items()),
                    caches[compile].memory_estimate(),
                    result.metadata.get("prepared_cache_invalidations", 0),
                )
            assert runs[None] == runs[False], (step, loop)
            _count, counters, entries, estimate, dropped = runs[None]
            assert estimate == sys.getsizeof(cache.table) + sum(
                entry_bytes(key, value) for key, value in entries
            )
            assert counters["cache_hits"] + counters["cache_misses"] > 0 and not consults, step
            if step == "cold":
                cold = counters
            if step == "updated" and cache_name == "unbounded":
                # selective: with a second probed node, entries stay warm
                assert 0 < dropped <= held
                assert (dropped < held) is (len(handles[None].compiled_driver().probed_nodes) > 1)
        assert loop in handles[None].compiled_driver().levels
        refusing = cache.capacity == 0 or cache_name == "reject-4"
        assert (cold["cache_insertions"] == 0 < cold["cache_rejections"]) is refusing
        assert loop == "count-reject" or counters["cache_hits"] > 0
        # the full cache evicted, and the compiled count derived it (parity above)
        assert cache_name != "lru-4" or cold["cache_evictions"] > 0

    @pytest.mark.parametrize("capacity", [None, 0, 4, 100], ids=lambda c: f"capacity-{c}")
    @pytest.mark.parametrize("policy_name", sorted(set(PROBE_POLICIES) - {"always"}))
    @pytest.mark.parametrize("case", PROBE_CASES, ids=[case.name for case in PROBE_CASES])
    def test_other_policies_run_interpreted(self, case, policy_name, capacity):
        """Any policy but exactly AlwaysCachePolicy decides per entry: a
        compiled executor's probing count runs the interpreter — the oracle
        — and names the policy in ``compiled_reason`` and in explain(), cold,
        warm and after an update, with the oracle's counts, counters and
        cache."""
        database = _site_database()
        query = _reading_f_last(case)
        engine = QueryEngine(database)
        handles, caches = {}, {}
        for compile in (None, False):
            caches[compile] = (AdhesionCache() if capacity is None
                               else AdhesionCache(capacity=capacity, eviction="lru"))
            policy = PROBE_POLICIES[policy_name](database, query)
            handles[compile] = engine.prepare(
                query, algorithm="clftj", compile=compile, cache=caches[compile],
                policy=policy, **case.options(),
            )
        reason = f"cache policy {type(policy).__name__} runs interpreted"
        assert _this_query(handles[None].explain()) == f"unavailable ({reason})"
        for step in ("cold", "warm", "updated"):
            if step == "updated":
                _update_f(database)
            runs = {}
            for compile, prepared in handles.items():
                result = prepared.count()
                assert result.metadata.get("compiled", False) is False
                assert result.metadata.get("compiled_reason") == (reason if compile is None else None)
                runs[compile] = (
                    result.count, result.counter.as_dict(), list(caches[compile].table.items()),
                    caches[compile].memory_estimate(),
                )
            assert runs[None] == runs[False], step

    def test_deadline_fires_inside_a_leaf_run(self):
        """The reduced level advances the deadline gate by the run it stands
        for: a 4-path count times out about as promptly as its loop did."""
        rng = random.Random(5)
        rows = sorted({(rng.randrange(400), rng.randrange(400)) for _ in range(6000)})
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query(P4)
        prepared = engine.prepare(query, algorithm="lftj")
        timeout = 0.02
        assert prepared.count().elapsed_seconds > 2 * timeout  # there is a middle to stop in
        assert prepared.compiled_driver().levels["count"][-1] == "leaf-run"
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="lftj", timeout=timeout)
        assert time.perf_counter() - started < 2 * timeout + 0.05

    def test_deadline_fires_inside_a_set_leaf_run(self):
        """The same for a cycle's reduced closing pair: the 4-cycle count's
        gate advances by each walked run."""
        rng = random.Random(5)
        rows = sorted({(rng.randrange(400), rng.randrange(400)) for _ in range(8000)})
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query(C4)
        prepared = engine.prepare(query, algorithm="lftj")
        timeout = 0.02
        assert prepared.count().elapsed_seconds > 2 * timeout
        assert prepared.compiled_driver().levels["count"][-1] == "set-leaf-run"
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="lftj", timeout=timeout)
        assert time.perf_counter() - started < 2 * timeout + 0.05

    def test_deadline_fires_inside_a_walk_run(self):
        """The 3-path's one loop is over ``a``; each ``a`` walks 100 ``b``s
        whose 200 ``c``s each are chained into one leaf run.  Fewer ``a``s
        than a gate stride, so only the walk-run's advance (its walked keys
        plus the chained run) lets the deadline fire before the end."""
        outer, middle, inner = range(100), range(100, 200), range(200, 400)
        rows = ([(a, b) for a in outer for b in middle]
                + [(b, c) for b in middle for c in inner]
                + [(c, 400 + c % 7) for c in inner])
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query(P3)
        order = query.variables
        prepared = engine.prepare(query, algorithm="lftj", variable_order=order)
        timeout = 0.02
        assert prepared.count().elapsed_seconds > 2 * timeout
        assert prepared.compiled_driver().levels["count"] == ("merge", "walk-run", "leaf-run")
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="lftj", variable_order=order, timeout=timeout)
        assert time.perf_counter() - started < 2 * timeout + 0.05


    @pytest.mark.parametrize("case", PROBE_CASES, ids=[case.name for case in PROBE_CASES])
    def test_once_probes_store_what_the_interpreter_stores(self, case):
        """A fresh and a warm count over one cache each: the compiled cache
        ends with the interpreter's entries in the interpreter's order,
        whichever form the case pins."""
        engine = QueryEngine(_site_database())
        query = parse_query(case.text)
        caches = {compile: AdhesionCache() for compile in (None, False)}
        for _run in ("fresh", "warm"):
            runs = {
                compile: engine.count(query, algorithm="clftj", compile=compile,
                                      cache=cache, **case.options())
                for compile, cache in caches.items()
            }
            assert runs[None].metadata["compiled"] is True
            assert runs[None].count == runs[False].count > 0
            assert runs[None].counter.as_dict() == runs[False].counter.as_dict()
            assert list(caches[None].table.items()) == list(caches[False].table.items())

    def test_a_block_counted_without_its_continuation_has_no_loop(self):
        """The 3-path's miss on its first probed bag: a rejecting cache's
        loop walks the bag's run and probes the next bag per key; where
        every miss stores, the loop counts the run and probes once."""
        engine = QueryEngine(_site_database())
        prepared = engine.prepare(parse_query(P3), algorithm="clftj")
        prepared.count()
        driver = prepared.compiled_driver()

        def loops(form):
            source = driver.debug_source(form)
            return [node.target.id for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.For)]

        assert loops("count-reject") == ["i0", "i1", "i2"]
        assert loops("count") == loops("count-lru") == ["i0", "i1"]
        # node 2's consult: in the miss on node 1 and in the hit on it
        assert driver.debug_source("count").count("# node 2: adhesion-cache probe") == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_random_once_shapes_match_the_oracle(self, seed):
        """Paths, stars and lollipops over mixed relations (``H`` leaves keys
        dangling): counts, counters and the cache's entries in order, fresh
        and warm, and three ``[lo, hi)`` shards summed."""
        rng = random.Random(seed)
        shape = ("path", "star", "lollipop")[seed % 3]
        if shape == "path":
            names = "abcdef"[: rng.randint(4, 6)]
            pairs = list(zip(names, names[1:]))
        elif shape == "star":
            pairs = [("a", ray) for ray in "bcde"[: rng.randint(3, 4)]]
        else:
            pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]
        query = parse_query(", ".join(f"{rng.choice('EFGH')}({x},{y})" for x, y in pairs))
        database = _site_database()
        engine = QueryEngine(database)
        prepared = engine.prepare(query, algorithm="clftj")
        prepared.count()
        assert any(word.startswith("once@")
                   for word in prepared.compiled_driver().levels["count"]), query
        caches = {compile: AdhesionCache() for compile in (None, False)}
        for _run in ("fresh", "warm"):
            runs = {
                compile: engine.count(query, algorithm="clftj", compile=compile, cache=cache)
                for compile, cache in caches.items()
            }
            assert runs[None].metadata["compiled"] is True
            assert runs[None].count == runs[False].count, query
            assert runs[None].counter.as_dict() == runs[False].counter.as_dict(), query
            assert list(caches[None].table.items()) == list(caches[False].table.items())
        assert _sharded(database, query, "clftj", None, None) == _sharded(
            database, query, "clftj", None, False
        )

    def test_deadline_fires_inside_a_counted_block(self):
        """A count whose blocks are counted without their continuation
        (each advancing the deadline gate by its bindings, pinned by
        ``once-3-path``) still stops well before it would finish."""
        rng = random.Random(5)
        rows = sorted({(rng.randrange(2000), rng.randrange(2000)) for _ in range(40000)})
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query(LOLLIPOP)
        prepared = engine.prepare(query, algorithm="clftj")
        prepared.count()  # compiles the driver and hoists its tables
        assert "once@2" in prepared.compiled_driver().levels["count"]
        whole = engine.count(query, algorithm="clftj").elapsed_seconds  # a fresh cache
        assert whole > 0.04  # there is a middle to stop in
        timeout = whole / 4
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.count(query, algorithm="clftj", timeout=timeout)
        assert time.perf_counter() - started < timeout + whole / 2


@pytest.fixture(scope="class")
def site_engine():
    """One engine over a smaller ``_site_database()`` for a class, so its
    ``parallel=2`` runs share one worker pool (every site case still has
    rows)."""
    database = _site_database(nodes=20, count=80)
    yield QueryEngine(database)
    database.close_pools()


class TestRowLimit:
    """``evaluate(limit=N)`` keeps the first ``N`` rows and the exact count
    on every path; a compiled driver with no probed node stops its evaluate
    loop past ``N`` rows, every other execution evaluates in full."""

    @pytest.mark.parametrize("case", SITE_CASES, ids=SITE_IDS)
    def test_rows_and_count_under_a_limit(self, case, site_engine):
        query = parse_query(case.text)
        for algorithm in ("lftj", "clftj"):
            options = case.options() if algorithm == "clftj" else {}
            oracle = site_engine.evaluate(query, algorithm=algorithm, compile=False, **options)
            full = site_engine.evaluate(query, algorithm=algorithm, **options)
            # without a limit: the same rows, and every counter
            assert full.rows == oracle.rows
            assert full.counter.as_dict() == oracle.counter.as_dict(), (algorithm, case.name)
            count = oracle.count
            for compile in (None, False):
                for parallel in (None, 2):
                    for limit in sorted({0, 1, max(count - 1, 0), count, count + 1}):
                        result = site_engine.evaluate(
                            query, algorithm=algorithm, compile=compile,
                            parallel=parallel, limit=limit, **options,
                        )
                        assert (result.count, result.rows) == (count, oracle.rows[:limit]), (
                            algorithm, compile, parallel, limit
                        )

    def test_the_evaluate_loop_stops_past_the_limit(self):
        engine = QueryEngine(_site_database())
        prepared = engine.prepare(parse_query(P3), algorithm="lftj")
        full = prepared.evaluate()
        driver = prepared.compiled_driver()
        whole, cut = OperationCounter(), OperationCounter()
        everything = driver.evaluate(whole)
        head = driver.evaluate(cut, limit=10)
        # past the limit by less than one leaf's batch, and the work of it
        assert 10 < len(head) < len(everything) == full.count
        assert head == everything[: len(head)]
        assert cut.memory_accesses < whole.memory_accesses
        # a limit the result does not pass is the whole result
        assert driver.evaluate(OperationCounter(), limit=full.count) == everything
        # the engine keeps the prefix and takes the count from the count
        # loop: the counter holds both loops' work
        limited = prepared.evaluate(limit=10)
        assert (limited.count, limited.rows) == (full.count, full.rows[:10])
        assert limited.counter.results_emitted == len(head) + full.count

    @pytest.mark.parametrize("text", ["E(a,b), E(b,c)", "E(a,b), E(b,c), E(c,a)"],
                             ids=["leaf-batch", "set-leaf-batch"])
    def test_a_limit_inside_one_bindings_chained_batch(self, text):
        """Under a walk-run a batch is every row of one binding above it:
        a limit inside the first ``a``'s rows keeps that whole batch and
        stops, and the engine still keeps ``limit`` rows and the count."""
        engine = QueryEngine(_site_database())
        prepared = engine.prepare(parse_query(text), algorithm="lftj")
        full = prepared.evaluate()
        driver = prepared.compiled_driver()
        assert driver.levels["evaluate"][-2] == "walk-run"
        everything = driver.evaluate(OperationCounter())
        first = [row for row in everything if row[0] == everything[0][0]]
        assert len(first) >= 3
        limit = len(first) // 2
        head = driver.evaluate(OperationCounter(), limit=limit)
        assert head == first and len(head) < len(everything)
        limited = prepared.evaluate(limit=limit)
        assert (limited.count, limited.rows) == (full.count, full.rows[:limit])

    @pytest.mark.parametrize("limit", [-1, 1.0, True, "3"])
    def test_a_limit_is_a_non_negative_int(self, engine, limit):
        with pytest.raises(ValueError, match="limit must be a non-negative integer"):
            engine.evaluate(path_query(2), algorithm="lftj", limit=limit)
        with pytest.raises(ValueError, match="limit must be a non-negative integer"):
            engine.prepare(path_query(2), algorithm="lftj").evaluate(limit=limit)

    def test_deadline_fires_inside_a_leaf_heavy_evaluation(self):
        """Every ``a`` is one batch of 2000 rows, which advances the deadline
        gate by its rows: an evaluation of 4M rows stops soon after its
        deadline, long before it has materialised them."""
        hub = 0
        edges = [(a, hub) for a in range(1, 2001)] + [(hub, c) for c in range(2001, 4001)]
        engine = QueryEngine(Database([Relation("E", ("a", "b"), edges)]))
        query = parse_query("E(a,b), E(b,c)")
        prepared = engine.prepare(query, algorithm="lftj")
        assert prepared.count().count == 2000 * 2000
        assert prepared.compiled_driver().levels["evaluate"] == ("merge", "walk-run", "leaf-batch")
        timeout = 0.01
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.evaluate(query, algorithm="lftj", timeout=timeout)
        assert time.perf_counter() - started < timeout + 0.25
        # the engine is reusable, and a limit stops at the first leaf
        head = prepared.evaluate(limit=5)
        assert (head.count, head.rows) == (2000 * 2000, [(1, hub, c) for c in range(2001, 2006)])

    def test_deadline_fires_inside_an_evaluate_walk_run(self):
        """The evaluate twin of ``test_deadline_fires_inside_a_walk_run``:
        the 3-path's evaluate loop walks 100 ``b``s under each of 100
        ``a``s, and each ``(a, b)`` maps 200 ``c``s to their runs at once,
        of which only 4 hold a ``d``.  The walk-run advances the deadline
        gate by its walked keys and its rows, so an evaluation that walks
        2M keys into 40 000 rows stops soon after its deadline."""
        outer, middle, inner = range(100), range(100, 200), range(200, 400)
        rows = ([(a, b) for a in outer for b in middle]
                + [(b, c) for b in middle for c in inner]
                + [(c, 400 + c % 7) for c in inner if c % 50 == 0])
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query(P3)
        order = query.variables
        prepared = engine.prepare(query, algorithm="lftj", variable_order=order)
        timeout = 0.02
        assert prepared.evaluate().elapsed_seconds > 2 * timeout
        levels = prepared.compiled_driver().levels["evaluate"]
        assert levels == ("merge", "walk", "walk-run", "leaf-batch")
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.evaluate(query, algorithm="lftj", variable_order=order, timeout=timeout)
        assert time.perf_counter() - started < 2 * timeout + 0.05

    def test_an_evaluate_walk_run_advances_the_gate_by_its_walked_keys(self):
        """Ten ``a``s walk 500 ``b``s each, and one ``b`` in 100 has a run:
        50 rows in all, so only the walked keys carry the gate past a
        stride.  A clock that never reaches the deadline counts its reads:
        the prologue's, and one per third ``a`` — each brings 506 trips (its
        own, 500 walked keys, 5 rows), and a read restarts the gate."""
        rows = ([(a, b) for a in range(10) for b in range(100, 600)]
                + [(b, 1000 + b) for b in range(100, 600, 100)])
        engine = QueryEngine(Database([Relation("E", ("a", "b"), rows)]))
        query = parse_query("E(a,b), E(b,c)")
        prepared = engine.prepare(query, algorithm="lftj", variable_order=query.variables)
        assert prepared.evaluate().count == 50
        driver = prepared.compiled_driver()
        assert driver.levels["evaluate"] == ("merge", "walk-run", "leaf-batch")
        namespace = driver._functions["evaluate"].__globals__
        reads = []
        clock = namespace["_monotonic"]
        namespace["_monotonic"] = lambda: reads.append(1) or 0.0
        try:
            deadline = SimpleNamespace(at=1.0, timeout=1.0)
            assert len(driver.evaluate(OperationCounter(), deadline=deadline)) == 50
        finally:
            namespace["_monotonic"] = clock
        assert len(reads) == 1 + 10 // 3

    def test_a_warm_clftj_handle_evaluates_alike_after_a_truncated_evaluation(self):
        """A limit never leaves a half-filled adhesion cache behind: probed
        CLFTJ evaluates in full, a single bag stores nothing."""
        for text in (P4, LOLLIPOP, "E(a,b), E(b,c), E(c,a)"):
            query = parse_query(text)
            truncated = QueryEngine(_site_database()).prepare(query, algorithm="clftj")
            untouched = QueryEngine(_site_database()).prepare(query, algorithm="clftj")
            first, reference = truncated.evaluate(limit=3), untouched.evaluate()
            assert (first.count, first.rows) == (reference.count, reference.rows[:3])
            again, warm = truncated.evaluate(), untouched.evaluate()
            assert (again.count, again.rows) == (warm.count, warm.rows) == (
                reference.count, reference.rows
            )
            assert again.counter.as_dict() == warm.counter.as_dict(), text
            assert truncated.count().count == reference.count


#: sha256 prefixes of generated sources over ``_site_database()``: the LFTJ
#: loops must not move with a change that only reshapes the CLFTJ probe.  A
#: change that means to move one says so and updates its digest.  (The
#: ``evaluate`` entries moved when the evaluate loop started emitting one
#: batch of rows per leaf into the one list it returns, and again when the
#: walk above that batch became a ``walk-run``; the LFTJ ``count`` entries
#: of the paths, the lollipop and the 4-/5-cycles when the walk above a leaf
#: run became a ``walk-run``.  Every entry, and every CLFTJ entry below,
#: moved when a run became ``(keys, lo, hi)``: each source is the one the
#: build without numpy generated before, less its ``V<atom>_<level>`` view
#: names and the ``_np=_np, `` default.  The CLFTJ count loops are pinned
#: below.)
PINNED_SOURCES = {
    ("3-path", "count"): "7133b54d71703caa",
    ("3-path", "evaluate"): "ef344f887f6f8135",
    ("4-path", "count"): "7bdaf6f5c745df53",
    ("4-path", "evaluate"): "e2dcecb10ac5c8ae",
    ("3-star", "count"): "f8ee21733b614c98",
    ("3-star", "evaluate"): "0f4b2535eb87867b",
    ("lollipop", "count"): "6ec69940e48ad028",
    ("lollipop", "evaluate"): "c59ed2d3652d210b",
    ("triangle", "count"): "a019bbbbae14bd17",
    ("triangle", "evaluate"): "55ee3c2de2f0d0b8",
    ("4-cycle", "count"): "c7b978a4f0965075",
    ("4-cycle", "evaluate"): "f2f4913a67acbda6",
    ("5-cycle", "count"): "ef0ab7377b81a5b2",
    ("5-cycle", "evaluate"): "16a39851025cfd6f",
}
PINNED_SHAPES = {
    "3-path": P3,
    "4-path": P4,
    "3-star": "E(a,b), E(a,c), E(a,d)",
    "lollipop": LOLLIPOP,
    "triangle": "E(a,b), E(b,c), E(c,a)",
    "4-cycle": C4,
    "5-cycle": "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
}


@pytest.mark.parametrize("shape, form", sorted(PINNED_SOURCES), ids="-".join)
def test_lftj_sources_are_pinned(shape, form):
    engine = QueryEngine(_site_database())
    prepared = engine.prepare(parse_query(PINNED_SHAPES[shape]), algorithm="lftj")
    prepared.count()
    source = prepared.compiled_driver().debug_source(form)
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    assert digest == PINNED_SOURCES[shape, form], source


#: The same for the CLFTJ count loops of every store discipline: with
#: ``PINNED_SOURCES``' count entries, every count loop a change to the
#: evaluate loop must leave byte-identical.
PINNED_PROBING_SOURCES = {
    ("3-path", "count"): "3cf804d31d166a4d",
    ("3-path", "count-lru"): "1516512a14bfe772",
    ("3-path", "count-reject"): "240b9f866935b2f1",
    ("4-path", "count"): "edc6fa992925d179",
    ("4-path", "count-lru"): "6cd6ad59863b74e6",
    ("4-path", "count-reject"): "4e28759963b28ccc",
    ("3-star", "count"): "933b9b1af4a7bc78",
    ("3-star", "count-lru"): "b876aee01e635450",
    ("3-star", "count-reject"): "69db7fbb7c32cce0",
    ("lollipop", "count"): "09b65e91dacff5de",
    ("lollipop", "count-lru"): "f0614ae54c0b6e13",
    ("lollipop", "count-reject"): "14c4a5ccfe4afa5d",
    ("4-cycle", "count"): "cacb55b6a6c2a8ba",
    ("4-cycle", "count-lru"): "8b3890b660322d9d",
    ("4-cycle", "count-reject"): "36414e80071e5856",
    ("5-cycle", "count"): "38535df6d406a4af",
    ("5-cycle", "count-lru"): "192103629331381e",
    ("5-cycle", "count-reject"): "1c8e472c06af5615",
}


@pytest.mark.parametrize("shape, form", sorted(PINNED_PROBING_SOURCES),
                         ids=[f"{shape}-{form}" for shape, form in sorted(PINNED_PROBING_SOURCES)])
def test_probing_count_sources_are_pinned(shape, form):
    engine = QueryEngine(_site_database())
    prepared = engine.prepare(parse_query(PINNED_SHAPES[shape]), algorithm="clftj")
    prepared.count()
    source = prepared.compiled_driver().debug_source(form)
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    assert digest == PINNED_PROBING_SOURCES[shape, form], source


class TestClftjCompiled:
    """The CLFTJ codegen tier: probe inlining, parity, invalidation."""

    def test_driver_emits_inlined_cache_probes(self, engine, database):
        query = path_query(4)  # multi-bag: probed nodes exist
        result = engine.count(query, algorithm="clftj")
        assert result.metadata["compiled"] is True
        prepared = engine.prepare(query, algorithm="clftj")
        driver = prepared.compiled_driver()
        assert driver is not None
        assert driver.probed_nodes  # at least one adhesion-cache probe
        source = driver.debug_source("count")
        assert "adhesion-cache probe" in source
        # No generic dispatch survives specialization: the adhesion keys are
        # straight-line tuple constructions over bound depth locals.
        assert "_adhesion_depths" not in source
        # The loop consults the cache's own table; no loop calls a method of
        # the cache or a policy, or keeps a cache counter.
        assert source.startswith("def _count(columns, _hoist, counter, _tab, lo=None,")
        assert re.search(r"ak\d+ = \(\d+, \(k\d,\)\)\n +cv\d+ = _tget\(ak\d+\)", source)
        assert re.search(r"_tab\[ak\d+\] = im\d+", source)
        assert not re.search(r"cache\.|policy|_should|_AV\d", source)
        loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
        assert loops and not any(
            isinstance(node, ast.Name) and node.id in ("counter", "c_mat")
            for loop in loops for node in ast.walk(loop)
        )
        for name in ("cache_hits", "cache_misses", "cache_insertions", "tuples_materialized"):
            assert f"\n    counter.{name} += " in source
        # the variants of the bounded disciplines are compiled by the first
        # count that needs one (or asked for here): an unbounded count never
        # pays for them
        assert set(driver.levels) == set(driver._sources) == {"count"}
        engine.count(query, algorithm="clftj", cache_capacity=4)
        assert set(driver._sources) == {"count", "count-lru"}
        lru = driver.debug_source("count-lru")
        assert lru.startswith("def _count(columns, _hoist, counter, _tab, cap, lo=None,")
        assert driver.levels["count-lru"] == driver.levels["count"]
        # a hit moves its entry to the end; a store into a full table first
        # evicts the oldest, counted by a trip counter
        assert re.search(r"else:\n +_tmove\(ak\d+\)\n", lru)
        assert re.search(r"if len\(_tab\) >= cap:\n +n\d+ \+= 1\n +_tpop\(False\)\n"
                         r" +_tab\[ak\d+\] = im\d+", lru)
        assert "\n    counter.cache_evictions += n" in lru
        assert not re.search(r"cache\.|policy|rejections", lru)
        assert lru.replace("_tab, cap, ", "_tab, ") != source
        # a rejecting cache refuses a store into a full table, counted by a
        # trip counter, and probes every binding (no once@)
        engine.count(query, algorithm="clftj", cache=AdhesionCache(capacity=4))
        assert set(driver._sources) == {"count", "count-lru", "count-reject"}
        reject = driver.debug_source("count-reject")
        assert reject.startswith("def _count(columns, _hoist, counter, _tab, cap, lo=None,")
        assert re.search(REJECT[0], reject) and re.search(REJECT[1], reject)
        assert not any(word.startswith("once@") for word in driver.levels["count-reject"])
        assert not re.search(r"cache\.|policy|_tmove|_tpop|evictions", reject)
        # every loop reads one table per name
        assert sorted(driver._hoists) == ["fd2_0", "fd3_0"]
        database.close_pools()

    @pytest.mark.parametrize("loop", ["count-lru", "count-reject"])
    def test_a_failed_variant_compile_runs_interpreted(self, engine, loop):
        """A bounded discipline's loop compiles on first use; a failed
        compilation there degrades like a failed build — the interpreter
        counts, with ``compile failed: ...`` as the reason and the oracle's
        counters — and the next bounded count compiles it."""
        query = path_query(4)
        engine.count(query, algorithm="clftj")
        driver = engine.prepare(query, algorithm="clftj").compiled_driver()

        def options():
            if loop == "count-lru":
                return {"cache_capacity": 4}
            return {"cache": AdhesionCache(capacity=4)}

        with inject_faults({"compiler.exec": {"action": "raise", "times": 1}}):
            bounded = engine.count(query, algorithm="clftj", **options())
        assert bounded.metadata["compiled"] is False
        assert bounded.metadata["compiled_reason"].startswith("compile failed: ")
        assert loop not in driver._sources
        oracle = engine.count(query, algorithm="clftj", compile=False, **options())
        assert (bounded.count, bounded.counter.as_dict()) == (
            oracle.count, oracle.counter.as_dict()
        )
        assert oracle.counter.cache_evictions + oracle.counter.cache_rejections > 0
        again = engine.count(query, algorithm="clftj", **options())
        assert again.metadata["compiled"] is True and "compiled_reason" not in again.metadata
        assert loop in driver._sources

    def test_count_counters_and_cache_hits_match_interpreted(self, engine):
        for query in (path_query(4), clique_query(4), cycle_query(3)):
            compiled = engine.count(query, algorithm="clftj")
            interpreted = engine.count(query, algorithm="clftj", compile=False)
            assert compiled.count == interpreted.count
            assert compiled.counter.as_dict() == interpreted.counter.as_dict()
            assert compiled.counter.cache_hits == interpreted.counter.cache_hits

    def test_mutation_invalidates_clftj_driver(self, engine, database):
        query = path_query(4)
        engine.count(query, algorithm="clftj")
        assert database.compiled_cache_size() == 1
        database.add_relation(
            Relation("E", ("a", "b"), _edges(seed=99)), replace=True
        )
        assert database.compiled_cache_size() == 0
        rebuilt = engine.count(query, algorithm="clftj")
        assert rebuilt.metadata["compiled_builds"] == 1
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert rebuilt.count == oracle.count

    def test_delta_pending_falls_back_interpreted_then_recompiles(self):
        database = Database(
            [Relation("E", ("a", "b"), _edges())],
            compaction_floor=0,
            compaction_threshold=1000.0,
        )
        engine = QueryEngine(database)
        query = path_query(4)
        first = engine.count(query, algorithm="clftj")
        assert first.metadata["compiled"] is True
        database.insert("E", [(997, 998), (998, 999), (999, 997)])
        assert database.compiled_cache_size() == 0
        pending = engine.count(query, algorithm="clftj")
        assert pending.metadata["compiled"] is False
        assert "delta" in pending.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert pending.count == oracle.count
        database.compact("E")
        recompiled = engine.count(query, algorithm="clftj")
        assert recompiled.metadata["compiled"] is True
        assert recompiled.count == oracle.count

    def test_unroll_ceiling_falls_back_interpreted(self, engine, monkeypatch):
        import repro.engine.compiler as compiler_module

        monkeypatch.setattr(compiler_module, "MAX_UNROLLED_CACHE_NODES", 0)
        query = path_query(4)
        result = engine.count(query, algorithm="clftj")
        assert result.metadata["compiled"] is False
        assert "unroll ceiling" in result.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert result.count == oracle.count

    def test_evaluation_runs_interpreted_with_warm_compiled_count(self, engine):
        query = path_query(4)
        engine.count(query, algorithm="clftj")
        result = engine.evaluate(query, algorithm="clftj")
        assert result.metadata["compiled"] is False
        assert "factorized" in result.metadata["compiled_reason"]
        oracle = engine.evaluate(query, algorithm="clftj", compile=False)
        assert result.rows == oracle.rows


#: Every way an execution ends up interpreted, per algorithm it applies to.
FALLBACKS = [
    ("pending-deltas", "lftj"),
    ("pending-deltas", "clftj"),
    ("unroll-ceiling", "clftj"),
    ("cache-policy", "clftj"),
    ("compile-fault", "lftj"),
    ("compile-fault", "clftj"),
    ("evaluate-over-probes", "clftj"),
    ("compile-false", "lftj"),
    ("compile-false", "clftj"),
]


class TestOneTier:
    """LFTJ and CLFTJ share one build(): same fallbacks, same words in
    ``compiled_reason`` and in explain(); zero probes is LFTJ's driver."""

    @pytest.mark.parametrize("case,algorithm", FALLBACKS)
    def test_fallbacks_match_the_oracle_and_explain(self, case, algorithm, monkeypatch):
        database = Database(
            [Relation("E", ("a", "b"), _edges())],
            compaction_floor=0,
            compaction_threshold=1000.0,
        )
        engine = QueryEngine(database)
        query = cycle_query(3) if algorithm == "lftj" else path_query(4)
        run, options, faults = engine.count, {}, {}
        if case == "pending-deltas":
            engine.count(query, algorithm=algorithm)  # the tries are cached...
            database.insert("E", [(997, 998), (998, 999), (999, 997)])  # ...and patched
            reason = "unmerged deltas pending on an atom trie"
            explained = f"unavailable ({reason}; interpreted until the next compaction)"
        elif case == "unroll-ceiling":
            monkeypatch.setattr(compiler_module, "MAX_UNROLLED_CACHE_NODES", 0)
            reason = "decomposition has 3 probed nodes (unroll ceiling is 0)"
            explained = f"unavailable ({reason})"
        elif case == "cache-policy":
            options = {"policy": NeverCachePolicy()}
            reason = "cache policy NeverCachePolicy runs interpreted"
            explained = f"unavailable ({reason})"
        elif case == "compile-fault":
            faults = {"compiler.exec": {"action": "raise", "times": 8}}
            reason = "compile failed: "
            # explain cannot foresee the fault: nothing is cached, it will try
            explained = "will compile on first execution"
        elif case == "evaluate-over-probes":
            run = engine.evaluate
            engine.count(query, algorithm=algorithm)
            reason = "evaluation runs interpreted"
            explained = "cached (count mode; evaluation runs interpreted)"
        else:
            options = {"compile": False}
            reason = None
            explained = "disabled (compile=False; interpreted oracle path)"
        oracle = run(query, algorithm=algorithm, **dict(options, compile=False))
        builds = database.index_builds, database.compiled_builds, database.compiled_cache_hits
        before = _this_query(engine.explain(query, algorithm=algorithm, **options))
        assert builds == (
            database.index_builds, database.compiled_builds, database.compiled_cache_hits
        )  # explain only peeks
        with inject_faults(faults):
            result = run(query, algorithm=algorithm, **options)
        assert before.startswith(explained), before
        assert result.count == oracle.count
        assert result.rows == oracle.rows
        assert result.counter.as_dict() == oracle.counter.as_dict()
        if reason is None:
            assert "compiled" not in result.metadata
        else:
            assert result.metadata["compiled"] is False
            assert result.metadata["compiled_reason"].startswith(reason)
        if case in ("pending-deltas", "unroll-ceiling", "cache-policy"):
            # one string: explain quotes the reason the execution records
            assert result.metadata["compiled_reason"] in before
            after = _this_query(engine.explain(query, algorithm=algorithm, **options))
            assert after == before

    @pytest.mark.parametrize("query", [cycle_query(3), clique_query(4)], ids=lambda q: q.name)
    def test_zero_probe_clftj_is_the_lftj_driver(self, engine, database, query):
        plan = engine.plan(query)
        assert plan.decomposition.num_nodes == 1
        order = plan.variable_order
        cached = trie_join_executor(
            query, database, order, None, decomposition=plan.decomposition
        )
        plain = trie_join_executor(query, database, order, None)
        for mode in ("count", "evaluate"):
            assert cached.debug_source(mode) == plain.debug_source(mode)
        assert cached.build() is plain.build()
        database.clear_compiled_cache()
        first = engine.count(query, algorithm="lftj", variable_order=order)
        second = engine.count(query, algorithm="clftj")
        assert (first.metadata["compiled_builds"], second.metadata["compiled_builds"]) == (1, 0)
        assert database.compiled_cache_size() == 1
        assert second.metadata["compiled"] is True
        for run in (engine.count, engine.evaluate):
            compiled = run(query, algorithm="clftj")
            interpreted = run(query, algorithm="clftj", compile=False)
            assert compiled.metadata["compiled"] is True
            assert "compiled_reason" not in compiled.metadata
            assert compiled.count == interpreted.count > 0
            assert compiled.rows == interpreted.rows
            assert compiled.counter.as_dict() == interpreted.counter.as_dict()
