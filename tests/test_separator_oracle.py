"""The planner's plan table, and what planning promises beyond it.

``tests/plan_table.json`` is the committed ``(order, bags, parents)`` of
every corpus query and every end-to-end benchmark query at adhesion bounds
1-3, with the selector's ``[lftj, clftj, ytd]`` prices of that plan; the
planner and the cost walk must reproduce it exactly (prices as JSON floats,
which round-trip), so any change that moves a plan or a price shows here
row by row.  Independently of the table: a plan does not depend
on ``PYTHONHASHSEED``, and importing the package loads no graph library.

After a deliberate plan change, rewrite the table and review its diff:

    PYTHONPATH=src python -m tests.test_separator_oracle
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.decomposition.cost import select_decomposition
from repro.engine.planner import ExecutionPlan
from repro.engine.selector import CostBasedSelector
from repro.query.parser import parse_query
from repro.query.patterns import (
    clique_query,
    cycle_query,
    lollipop_query,
    path_query,
    random_pattern_query,
    star_query,
)
from repro.storage.database import Database
from repro.storage.relation import Relation

ROOT = Path(__file__).resolve().parent.parent
PLAN_TABLE = Path(__file__).resolve().parent / "plan_table.json"

#: The end-to-end benchmark's queries (``benchmarks/e2e/oracle.py``).
E2E_QUERIES = {
    "tri": "E(a,b), E(b,c), E(c,a)",
    "c4": "E(a,b), E(b,c), E(c,d), E(d,a)",
    "c5": "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
    "p2": "E(a,b), E(b,c)",
    "p3": "E(a,b), E(b,c), E(c,d)",
    "p4": "E(a,b), E(b,c), E(c,d), E(d,e)",
    "lol": "E(a,b), E(a,c), E(b,c), E(c,d), E(d,e)",
}


def corpus():
    """(label, query) of the pattern corpus: paths and cycles 3-8, cliques 3-5,
    lollipops, stars, and 40 random queries labelled by their seed."""
    queries = [path_query(n) for n in range(3, 9)]
    queries += [cycle_query(n) for n in range(3, 9)]
    queries += [clique_query(n) for n in range(3, 6)]
    queries += [lollipop_query(a, b) for a in (3, 4) for b in (1, 2, 3)]
    queries += [star_query(n) for n in range(2, 6)]
    labelled = [(query.name, query) for query in queries]
    for seed in range(40):
        query = random_pattern_query(5 + seed % 3, (0.35, 0.5, 0.65)[seed // 3 % 3], seed=seed)
        labelled.append((f"{query.name} seed {seed}", query))
    return labelled


def plans(labelled=None):
    """(order, bags, parents, [lftj, clftj, ytd] prices) of every query
    (default: the corpus) at adhesion bounds 1-3."""
    rng = random.Random(5)
    edges = sorted({(rng.randrange(40), rng.randrange(40)) for _ in range(160)})
    database = Database([Relation("E", ("src", "dst"), edges)])
    selector = CostBasedSelector(database)
    planned = []
    for _, query in corpus() if labelled is None else labelled:
        for adhesion in (1, 2, 3):
            choice = select_decomposition(query, database, max_adhesion_size=adhesion)
            decomposition = choice.decomposition
            plan = ExecutionPlan(query, decomposition, choice.order)
            costs = selector.choose(query, plan).costs
            planned.append((
                [variable.name for variable in choice.order],
                [sorted(variable.name for variable in bag) for bag in decomposition.bags],
                [decomposition.parent(node) for node in range(decomposition.num_nodes)],
                [costs[name] for name in ("lftj", "clftj", "ytd")],
            ))
    return planned


def plan_table():
    """One row per query and adhesion bound: label, adhesion, order, bags,
    parents, prices."""
    labelled = corpus() + [(key, parse_query(text, name=key)) for key, text in E2E_QUERIES.items()]
    planned = iter(plans(labelled))
    return [[label, adhesion, *next(planned)] for label, _ in labelled for adhesion in (1, 2, 3)]


def test_the_plan_table_is_reproduced_exactly():
    expected = json.loads(PLAN_TABLE.read_text())
    actual = json.loads(json.dumps(plan_table()))
    assert len(actual) == len(expected) == 3 * (len(corpus()) + len(E2E_QUERIES))
    moved = [(row, plan) for row, plan in zip(expected, actual) if row != plan]
    assert not moved, moved


def _python(code, **env):
    return subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
        stdout=subprocess.PIPE,
        text=True,
    )


def test_plans_do_not_depend_on_the_hash_seed():
    """The 8-path alone was planned two ways across seeds when subgraphs
    iterated a hash-ordered set; seeds 0 and 4 were one of each."""
    script = "import json; from tests.test_separator_oracle import plans; print(json.dumps(plans()))"
    runs = [_python(script, PYTHONHASHSEED=seed) for seed in ("0", "4")]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(output) for output in outputs)
    assert len(first) == 3 * len(corpus())
    assert first == second


#: Run in a fresh interpreter: a ``sys.meta_path`` finder first in line
#: records (and refuses) every attempt to import networkx, so the check holds
#: whether or not networkx is installed; the last import proves the finder
#: sees an attempt.
_NO_NETWORKX = """
import json, sys

attempts = []

class RecordNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            attempts.append(name)
            raise ModuleNotFoundError(f"import of {name} recorded and refused")
        return None

sys.meta_path.insert(0, RecordNetworkx())
import repro, repro.cli, repro.server.http
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.storage.database import Database
from repro.storage.relation import Relation

database = Database([Relation("E", ("src", "dst"), [(1, 2), (2, 3), (3, 4), (4, 1)])])
QueryEngine(database).plan(parse_query("E(a,b), E(b,c), E(c,d), E(d,e)"))
seen = list(attempts)
try:
    import networkx
except ImportError:
    pass
print(json.dumps([seen, attempts]))
"""


def test_importing_the_package_loads_no_networkx():
    run = _python(_NO_NETWORKX)
    output = run.communicate(timeout=120)[0]
    assert run.returncode == 0
    seen, attempts = json.loads(output)
    assert seen == []
    assert attempts == ["networkx"]


if __name__ == "__main__":
    rows = plan_table()
    PLAN_TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {PLAN_TABLE}")
