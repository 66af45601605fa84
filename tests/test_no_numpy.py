"""The library imports no numpy: one intersection kernel, over ``(keys, lo, hi)``
runs of ``array('q')`` columns.  numpy is the benchmark oracle's dependency
(``benchmarks/e2e``), never ``repro``'s."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )


#: With ``sys.modules["numpy"] = None`` any ``import numpy`` raises
#: ``ImportError``: every entry point imports, and compiled and interpreted
#: counts and evaluations run, and the footprint is priced.
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import repro, repro.cli, repro.server.http
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.storage.database import Database
from repro.storage.relation import Relation

rows = [(a, b) for a in range(40) for b in range(40) if (a * 7 + b) % 4 == 0]
database = Database([Relation("E", ("src", "dst"), rows)])
engine = QueryEngine(database)
out = {}
for name, text in (("p3", "E(a,b), E(b,c), E(c,d)"), ("tri", "E(a,b), E(b,c), E(c,a)")):
    query = parse_query(text)
    for algorithm in ("lftj", "clftj"):
        for mode in ("count", "evaluate"):
            runs = [getattr(engine, mode)(query, algorithm=algorithm, compile=compile)
                    for compile in (None, False)]
            out[f"{name}.{algorithm}.{mode}"] = [
                [run.count, run.metadata.get("compiled", False), run.counter.as_dict()] for run in runs
            ]
out["footprint"] = database.memory_footprint()
print(json.dumps(out))
"""


def test_the_library_runs_with_numpy_unimportable():
    run = _python(_WITHOUT_NUMPY)
    assert run.returncode == 0
    out = json.loads(run.stdout)
    assert out.pop("footprint") > 0
    compiled_runs = 0
    for label, (compiled, interpreted) in out.items():
        assert compiled[0] == interpreted[0] > 0, label
        assert interpreted[1] is False, label
        compiled_runs += compiled[1]
        if compiled[1]:
            assert compiled[2] == interpreted[2], label  # instrumentation parity
    assert out["p3.lftj.count"][0][1] and out["tri.lftj.evaluate"][0][1]
    assert compiled_runs >= 4


def test_importing_the_package_loads_no_numpy():
    run = _python("import sys, repro, repro.cli, repro.server.http; print('numpy' in sys.modules)")
    assert run.returncode == 0
    assert run.stdout.strip() == "False"
