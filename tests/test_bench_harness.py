"""Tests for the benchmark harness and reporting utilities."""

import pytest

from repro.bench.harness import (
    BenchmarkCell,
    consistency_check,
    run_cell,
    run_grid,
    run_parallel_benchmark,
    run_update_benchmark,
    speedup_table,
)
from repro.bench.workloads import update_stream_workload
from repro.bench.reporting import format_records, format_results, print_records, results_to_records
from repro.engine.results import ExecutionResult
from repro.core.instrumentation import OperationCounter
from repro.query.patterns import cycle_query, path_query

from tests.conftest import random_edge_database


@pytest.fixture
def databases():
    return {
        "g1": random_edge_database(seed=1, num_edges=40),
        "g2": random_edge_database(seed=2, num_edges=40),
    }


class TestRunCell:
    def test_count_cell(self, databases):
        cell = BenchmarkCell("g1", databases["g1"], path_query(3), "clftj")
        result = run_cell(cell)
        assert result.metadata["dataset"] == "g1"
        assert result.metadata["mode"] == "count"
        assert result.count >= 0

    def test_evaluate_cell(self, databases):
        cell = BenchmarkCell("g1", databases["g1"], path_query(2), "lftj", mode="evaluate")
        result = run_cell(cell)
        assert result.rows is not None

    def test_invalid_mode_rejected(self, databases):
        cell = BenchmarkCell("g1", databases["g1"], path_query(2), "lftj", mode="explain")
        with pytest.raises(ValueError):
            run_cell(cell)


class TestEngineReuse:
    def test_run_cell_accepts_an_engine(self, databases):
        from repro.engine.engine import QueryEngine

        engine = QueryEngine(databases["g1"])
        cell = BenchmarkCell("g1", databases["g1"], cycle_query(4), "clftj")
        first = run_cell(cell, engine=engine)
        second = run_cell(cell, engine=engine)
        assert first.count == second.count
        assert second.metadata["plan_cache_hits"] >= 1
        assert second.metadata["index_builds"] == 0

    def test_grid_reuses_one_engine_per_database(self, databases):
        # The same query runs with two algorithms per dataset: the second
        # cell must find the plan and every index already cached.
        results = run_grid(databases, [cycle_query(4)], ["clftj", "ytd"])
        for result in results:
            assert "plan_cache_hits" in result.metadata
            assert "index_builds" in result.metadata
        ytd_runs = [r for r in results if r.algorithm == "ytd"]
        assert all(r.metadata["plan_cache_hits"] >= 1 for r in ytd_runs)
        assert all(r.metadata["plan_builds"] == 0 for r in ytd_runs)

    def test_grid_accepts_prebuilt_engines(self, databases):
        from repro.engine.engine import QueryEngine

        engines = {name: QueryEngine(db) for name, db in databases.items()}
        warmup = run_grid(databases, [cycle_query(4)], ["clftj"], engines=engines)
        rerun = run_grid(databases, [cycle_query(4)], ["clftj"], engines=engines)
        assert all(r.metadata["plan_cache_hits"] >= 1 for r in rerun)
        assert all(r.metadata["index_builds"] == 0 for r in rerun)
        assert [r.count for r in warmup] == [r.count for r in rerun]

    def test_grid_records_auto_choice(self, databases):
        results = run_grid(databases, [cycle_query(4)], ["auto"])
        for result in results:
            assert result.algorithm == "auto"
            assert result.metadata["selected_algorithm"] in ("lftj", "clftj", "ytd")
            assert result.as_record()["selected_algorithm"] == result.metadata["selected_algorithm"]


class TestRunGrid:
    def test_grid_covers_all_combinations(self, databases):
        results = run_grid(databases, [path_query(2), cycle_query(3)], ["lftj", "clftj"])
        assert len(results) == 2 * 2 * 2

    def test_grid_counts_agree_across_algorithms(self, databases):
        results = run_grid(databases, [cycle_query(4)], ["lftj", "clftj", "ytd"])
        consistency_check(results)

    def test_consistency_check_detects_mismatch(self):
        counter = OperationCounter()
        good = ExecutionResult("lftj", "q", 5, 0.1, counter, metadata={"dataset": "d"})
        bad = ExecutionResult("clftj", "q", 6, 0.1, counter, metadata={"dataset": "d"})
        with pytest.raises(AssertionError):
            consistency_check([good, bad])


class TestSpeedupTable:
    def test_speedups_relative_to_baseline(self, databases):
        results = run_grid(databases, [path_query(3)], ["lftj", "clftj"])
        rows = speedup_table(results, baseline="lftj")
        assert len(rows) == len(databases)
        assert all("speedup_clftj" in row for row in rows)
        assert all(row["speedup_clftj"] > 0 for row in rows)

    def test_memory_metric(self, databases):
        results = run_grid(databases, [path_query(3)], ["lftj", "clftj"])
        rows = speedup_table(results, baseline="lftj", metric="memory_accesses")
        assert all(row["speedup_clftj"] > 0 for row in rows)

    def test_unknown_metric_rejected(self, databases):
        results = run_grid(databases, [path_query(2)], ["lftj", "clftj"])
        with pytest.raises(ValueError):
            speedup_table(results, metric="joules")

    def test_missing_baseline_rows_skipped(self, databases):
        results = run_grid(databases, [path_query(2)], ["clftj"])
        assert speedup_table(results, baseline="lftj") == []


class TestUpdateBenchmark:
    def test_delta_strategy_avoids_rebuilds_and_agrees(self):
        workload = update_stream_workload(scale=0.25, num_batches=3, batch_size=6)
        report = run_update_benchmark(workload)
        delta = report["strategies"]["delta"]
        rebuild = report["strategies"]["rebuild"]
        assert delta["index_builds"] == 0
        assert delta["index_patches"] > 0
        assert delta["plan_builds"] == 0
        assert rebuild["index_builds"] > 0
        assert rebuild["plan_builds"] > 0
        assert len(report["final_counts"]) == len(workload.queries)

    def test_parallel_benchmark_cross_checks_counts(self, databases):
        report = run_parallel_benchmark(
            databases,
            [cycle_query(3)],
            backend="threads",
            workers=3,
            rounds=1,
        )
        assert report["workers"] == 3
        assert len(report["cells"]) == len(databases)
        for cell in report["cells"]:
            assert cell["workers"] == 3
            assert cell["morsels"] >= 1
            assert sum(cell["shard_results"]) == cell["count"]
            assert "partition_skew_static" not in cell
            assert cell["partition_skew_morsel"] >= 1.0
            assert cell["task_seconds_p95"] >= cell["task_seconds_p50"] >= 0.0
            assert cell["worker_busy_max"] >= cell["worker_busy_mean"] >= 0.0
            assert cell["serial_seconds"] > 0
            assert cell["parallel_seconds"] > 0

    def test_parallel_benchmark_speedup_bar_fails_loudly(self, databases):
        # A tiny workload cannot beat an absurd bar; the harness must raise
        # rather than record a silently-failed cell.
        with pytest.raises(AssertionError, match="speedup below"):
            run_parallel_benchmark(
                {"g1": databases["g1"]},
                [cycle_query(3)],
                backend="threads",
                workers=2,
                rounds=1,
                assert_speedup=1000.0,
            )

    def test_unknown_strategy_fails_loudly(self):
        workload = update_stream_workload(scale=0.25, num_batches=2, batch_size=4)
        with pytest.raises(ValueError):
            run_update_benchmark(workload, strategies=("delta", "nonsense"))


class TestReporting:
    def test_format_records_aligns_columns(self):
        table = format_records([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_records_empty(self):
        assert format_records([]) == "(no records)"

    def test_format_records_explicit_columns(self):
        table = format_records([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_float_formatting(self):
        table = format_records([{"v": 0.000012345}, {"v": 123456.0}])
        assert "e-05" in table or "1.234e-05" in table

    def test_results_to_records_and_format(self, databases):
        results = run_grid(databases, [path_query(2)], ["lftj"])
        records = results_to_records(results)
        assert all("dataset" in record for record in records)
        assert "lftj" in format_results(results)

    def test_print_records(self, capsys, databases):
        results = run_grid(databases, [path_query(2)], ["lftj"])
        print_records(results_to_records(results), title="demo")
        captured = capsys.readouterr().out
        assert "demo" in captured
        assert "lftj" in captured


class TestBenchJson:
    def test_write_bench_json_merges_sections(self, tmp_path):
        from repro.bench.reporting import write_bench_json

        path = str(tmp_path / "BENCH.json")
        write_bench_json(path, "alpha", {"quick": False, "value": 1})
        document = write_bench_json(path, "beta", {"quick": False, "value": 2})
        assert set(document) == {"alpha", "beta"}

    def test_quick_runs_never_clobber_full_scale_sections(self, tmp_path):
        from repro.bench.reporting import write_bench_json

        path = str(tmp_path / "BENCH.json")
        write_bench_json(path, "alpha", {"quick": False, "value": "full"})
        document = write_bench_json(path, "alpha", {"quick": True, "value": "noise"})
        assert document["alpha"]["value"] == "full"
        # A full-scale rerun still updates the section.
        document = write_bench_json(path, "alpha", {"quick": False, "value": "fresh"})
        assert document["alpha"]["value"] == "fresh"
