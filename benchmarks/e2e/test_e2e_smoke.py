"""Smoke test: ``--tiny`` runs print exactly what ``BENCHMARK.json`` promises.

All five workloads, traced and untraced, in well under 15 s together.  The
runs are subprocesses, as the driver makes them, so nothing of the benchmark
is imported into the test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the answer oracle's sparse products

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_benchmark(root: Path, *arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *arguments]
    return subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=root)


def test_contract_names_the_workloads_and_metrics():
    assert WORKLOADS == ["count_warm", "eval_rows", "update_stream", "count_parallel",
                         "serve_closed"]
    assert {metric["name"] for metric in CONTRACT["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    assert all(0 < metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])
    assert len(CONTRACT["per_layer"]) <= 128


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_contract_schema(workload, trace):
    completed = run_benchmark(ROOT, "--workload", workload, "--seed", "7", "--tiny",
                              "--trace", trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}
    assert all(type(metric["value"]) in (int, float) for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    completed = run_benchmark(tmp_path, "--workload", "count_warm", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert not completed.stdout.strip()
