"""Every file a CI step names exists: a deleted script takes its step along."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``benchmarks/…py``, ``scripts/…sh``, ``tests/…py``, ``examples/…py`` as a
#: step spells them, shell globs (``bench_fig*.py``) included.
_NAMED_PATH = re.compile(r"\b(?:benchmarks|scripts|tests|examples)/[\w./*-]*\.(?:py|sh)\b")


def test_every_path_the_workflow_names_exists():
    named = sorted(set(_NAMED_PATH.findall(WORKFLOW.read_text(encoding="utf-8"))))
    assert "benchmarks/e2e/run.py" in named, named  # the pattern still finds paths
    missing = [path for path in named if not any(ROOT.glob(path))]
    assert not missing, f"ci.yml names files that do not exist: {missing}"


def test_a_two_bag_ytd_join_is_compared_outside_pytest():
    """The 3-cycle smoke is one bag; the 5-cycle step makes YTD join two
    bags, and ``compare`` exits 1 on any count disagreement."""
    assert (
        "python -m repro compare --dataset ca-GrQc --query 5-cycle "
        "--algorithms lftj clftj ytd"
    ) in WORKFLOW.read_text(encoding="utf-8")


def test_the_leaf_run_step_compares_both_reduced_forms_with_the_oracle():
    """Paths (``leaf-run``) and cycles / cliques (``set-leaf-run``), and the
    shapes whose clftj count probes a bag once after a counted block (the
    3-path, the lollipop, the 3-star), each under lftj and clftj; the lftj
    5-cycle (``walk > walk-run``); clftj counts over an LRU cache of 100
    entries (the ``count-lru`` loop) and of 0 entries (the ``count-reject``
    loop); and lftj evaluations of the
    3-, 4- and 5-cycle, the 4-clique, the 3-path, the lollipop and the
    3-star (``walk-run > leaf-batch`` / ``set-leaf-batch``, and a batch
    with no walk above it): compiled and ``--no-compile`` must print the
    same count, memory accesses and cache hits."""
    text = WORKFLOW.read_text(encoding="utf-8")
    (step,) = re.findall(
        r"- name: Leaf-run reduction against the interpreted oracle.*?\n(?=      - name: )",
        text,
        re.S,
    )
    assert "for query in 4-path 4-cycle 4-clique 3-path lollipop 3-star; do" in step
    assert "for algorithm in lftj clftj; do" in step
    assert 'print $at["count"], $at["memory_accesses"], $at["cache_hits"]' in step
    assert '--algorithm "$algorithm" --no-compile)' in step
    assert 'test -n "$compiled" && test "$compiled" = "$interpreted"' in step
    assert 'interpreted=$(columns "$@" --no-compile)' in step
    assert "compare --query 5-cycle --algorithm lftj\n" in step
    assert "for query in 4-path 4-cycle lollipop; do" in step
    assert 'compare --query "$query" --algorithm clftj --cache-capacity 100\n' in step
    assert 'compare --query "$query" --algorithm clftj --cache-capacity 0\n' in step
    # lftj evaluation, one batch of rows per binding above a walk-run,
    # against the same oracle
    assert "for query in 4-cycle 3-path lollipop 3-cycle 5-cycle 4-clique 3-star; do" in step
    assert "`walk-run > leaf-batch`" in step
    assert "--algorithm lftj --mode evaluate --no-compile)" in step


def test_explain_and_run_name_the_same_schedule():
    """The interpreted-oracle smoke step greps the worker count off the
    ``parallel:`` line ``repro run`` prints and finds it in ``repro
    explain``'s: one schedule resolver, one transport (no backend name)."""
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "ran=$(grep -o '^parallel: workers=[0-9]*' run.out)" in text
    assert "grep '^parallel:' explain.out | grep -F \"$ran\"" in text
    assert "backend=" not in text


def _jobs():
    """Each job's block of ``ci.yml``, keyed by its id."""
    text = WORKFLOW.read_text(encoding="utf-8")
    jobs = text.split("\njobs:\n", 1)[1]
    return dict(re.findall(r"^  ([\w-]+):\n(.*?)(?=^  [\w-]+:\n|\Z)", jobs, re.M | re.S))


def test_no_job_runs_a_numpy_matrix():
    """The library imports no numpy (``tests/test_no_numpy.py``), so a
    with-numpy / without-numpy axis would run the same code twice."""
    jobs = _jobs()
    assert {"tier1", "smoke"} <= set(jobs), sorted(jobs)
    for name, block in jobs.items():
        assert "matrix.numpy" not in block, name
        assert not re.search(r"^\s+numpy:", block, re.M), name


def test_tier1_installs_the_benchmark_oracles_numpy():
    """``benchmarks/e2e/test_e2e_smoke.py`` skips without numpy, the oracle's
    one dependency: tier-1 installs it, in every cell, so that smoke runs."""
    steps = _jobs()["tier1"].split("\n      - ")
    installs = [step for step in steps if re.search(r"pip install .*\bnumpy\b", step)]
    assert installs, steps
    assert not any(re.search(r"^\s+if:", step, re.M) for step in installs), installs


def test_every_benchmark_workload_runs_full_size():
    """Each workload ``BENCHMARK.json`` declares runs at full size (no
    ``--tiny``) in a step that checks the run's exit status and its
    ``"correct"`` flag — literally after ``--workload``, or through the
    step's ``for workload in ...`` loop."""
    declared = {
        workload["name"]
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "workloads"
        ]
    }
    covered = set()
    for block in _jobs().values():
        for step in block.split("\n      - "):
            if "result['correct']" not in step or 'test "$status" -eq 0' not in step:
                continue
            for line in step.splitlines():
                run = re.search(r"benchmarks/e2e/run\.py --workload (\S+)", line)
                if run is None or "--tiny" in line:
                    continue
                name = run.group(1).strip('"')
                if name == "$workload":
                    covered.update(re.search(r"for workload in ([\w ]+); do", step).group(1).split())
                else:
                    covered.add(name)
    assert declared <= covered, sorted(declared - covered)
