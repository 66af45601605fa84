"""Randomized differential testing: every algorithm must agree, always.

A seeded generator produces random conjunctive queries over random small
relations with mixed str/int column domains, then asserts that all five
registered serial algorithms *and* the pool-backed parallel configurations
produce exactly the brute-force oracle's result set, and optionally again
after a random insert/delete stream.

The compiled-driver configurations (lftj/clftj with ``compile=True``,
serial and ``parallel=``) are additionally checked *ordered and
byte-identical* against their interpreted twins (``compile=False``), and the
serial pair must report identical instrumentation counters.

A separate seeded corpus re-runs the parallel configurations under
deterministic fault injection (SIGKILLed fork workers, injected morsel
exceptions) and asserts the recovered runs still match their serial twins
*ordered and byte-identical* — worker failure must be invisible to results.

One fixed case rides beside the random corpus: a join between an int column
and a str column, which every algorithm must answer with zero rows.

Tier-1 runs a small deterministic corpus (seeds ``0..15``); set the
``REPRO_FUZZ_ITERS`` environment variable to fuzz deeper locally::

    REPRO_FUZZ_ITERS=200 PYTHONPATH=src python -m pytest tests/test_fuzz_differential.py -q
"""

import os
import random

import pytest

from repro.engine import QueryEngine, inject_faults
from repro.engine.compiler import COMPILED_ALGORITHMS
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import brute_force_evaluate

#: All serial algorithms under differential test.
SERIAL_ALGORITHMS = ("lftj", "clftj", "ytd", "pairwise")

#: Compiled configurations per instance: (algorithm, extra engine kwargs).
#: Each runs twice — compiled and interpreted — and must agree byte for
#: byte (after an update stream the compiled executor may itself fall back
#: to the interpreted loop over unmerged deltas; the comparison still holds).
COMPILED_CONFIGS = (
    ("lftj", {}),
    ("lftj", {"parallel": 3}),
    ("lftj", {"parallel": 2}),
    ("clftj", {}),
    ("clftj", {"parallel": 2}),
    ("clftj", {"parallel": 4}),
)

#: Pool-backed parallel configurations exercised per instance:
#: (algorithm, workers).
PARALLEL_CONFIGS = (
    ("lftj", 2),
    ("lftj", 5),
    ("lftj", 3),
    ("lftj", 4),
    ("clftj", 1),
    ("clftj", 2),
    ("clftj", 4),
)

#: Fault-injected parallel configurations: (algorithm — its serial run is
#: the oracle —, armed faults).  Killed workers are re-forked and injected
#: exceptions are absorbed by the per-morsel retry budget.  Bounded
#: ``times`` keeps every fault within the recovery budget, so each run must
#: still equal its serial twin ordered and byte-identical.
FAULT_CONFIGS = (
    ("lftj", {"pool.before_morsel": {"action": "kill", "after": 1, "times": 1}}),
    ("clftj", {"pool.before_morsel": {"action": "kill", "after": 2, "times": 2}}),
    ("clftj", {"pool.before_morsel": {"action": "raise", "after": 1, "times": 2}}),
)

#: Seeds for the fault-injection corpus (kept small: each config pays fork
#: and heartbeat latency for the killed workers).
FAULT_SEEDS = tuple(range(4))

#: Deterministic tier-1 corpus size; REPRO_FUZZ_ITERS extends it locally.
BASE_ITERATIONS = 16
FUZZ_ITERATIONS = max(int(os.environ.get("REPRO_FUZZ_ITERS", "0")), BASE_ITERATIONS)

#: Column domain classes.  Per-column domains stay homogeneous (the tuples
#: of a relation have to sort); different relations mix them per column.
INT_DOMAIN = tuple(range(9))
STR_DOMAIN = tuple(f"v{index:02d}" for index in range(11))
DOMAINS = {"int": INT_DOMAIN, "str": STR_DOMAIN}


def _random_relations(rng):
    """Two or three random relations with random per-column domain classes."""
    relations = []
    schemas = []
    for index in range(rng.randint(2, 3)):
        arity = rng.randint(1, 3)
        classes = tuple(rng.choice(("int", "str")) for _ in range(arity))
        rows = set()
        for _ in range(rng.randint(5, 28)):
            rows.add(tuple(rng.choice(DOMAINS[cls]) for cls in classes))
        name = f"R{index}"
        relations.append(
            Relation(name, tuple(f"c{i}" for i in range(arity)), rows)
        )
        schemas.append((name, classes))
    return relations, schemas


def _random_query(rng, schemas):
    """A connected random conjunctive query over the generated schemas.

    Variables are typed by domain class, so a random join never pairs an int
    column with a str column (``test_cross_type_join_is_empty_everywhere``
    pins that case).  Each atom after
    the first reuses at least one existing variable of a matching class when
    any column admits one, keeping the query connected.  Constants and
    repeated variables appear with small probability.
    """
    variables_by_class = {"int": [], "str": []}
    counter = [0]

    def fresh_variable(cls):
        counter[0] += 1
        variable = Variable(f"x{counter[0]}")
        variables_by_class[cls].append(variable)
        return variable

    def pick_variable(cls, prefer_existing):
        pool = variables_by_class[cls]
        if pool and (prefer_existing or rng.random() < 0.6):
            return rng.choice(pool)
        return fresh_variable(cls)

    atoms = []
    for atom_index in range(rng.randint(1, 3)):
        name, classes = rng.choice(schemas)
        connect_at = None
        if atom_index > 0:
            candidates = [
                position
                for position, cls in enumerate(classes)
                if variables_by_class[cls]
            ]
            if candidates:
                connect_at = rng.choice(candidates)
        terms = []
        for position, cls in enumerate(classes):
            if position == connect_at:
                terms.append(rng.choice(variables_by_class[cls]))
            elif rng.random() < 0.12:
                terms.append(Constant(rng.choice(DOMAINS[cls])))
            else:
                terms.append(pick_variable(cls, prefer_existing=False))
        if not any(isinstance(term, Variable) for term in terms):
            # Ground atoms are unsupported; force one variable in.
            terms[0] = pick_variable(classes[0], prefer_existing=True)
        atoms.append(Atom(name, terms))
    return ConjunctiveQuery(atoms, name=f"fuzz")


def _rows_in_query_order(result, query):
    by_name = {variable: index for index, variable in enumerate(result.variable_order)}
    positions = [by_name[variable] for variable in query.variables]
    return {tuple(row[p] for p in positions) for row in result.rows}


def _check_all_agree(query, database, expected):
    """Assert every serial algorithm and parallel configuration matches."""
    engine = QueryEngine(database)
    for algorithm in SERIAL_ALGORITHMS:
        result = engine.evaluate(query, algorithm=algorithm)
        rows = _rows_in_query_order(result, query)
        assert rows == expected, (
            f"{algorithm} disagrees with brute force on {query.name!r} "
            f"over {database.name!r}: {len(rows)} vs {len(expected)} rows"
        )
        assert result.count == len(result.rows)
    for algorithm, workers in PARALLEL_CONFIGS:
        result = engine.evaluate(query, algorithm=algorithm, parallel=workers)
        rows = _rows_in_query_order(result, query)
        assert rows == expected, (
            f"parallel {algorithm} x{workers} disagrees on "
            f"{query.name!r} over {database.name!r}"
        )
        if result.metadata["parallel"]:
            assert result.metadata["workers"] == workers
            assert result.metadata["morsels"] >= 2
        else:  # one worker asked for, or a domain too small to cut
            assert result.metadata["parallel_reason"]
            assert "partition_source" not in result.metadata


def _check_compiled_agrees(query, database, expected):
    """Compiled executions must equal their interpreted twins byte for byte."""
    engine = QueryEngine(database)
    for algorithm, options in COMPILED_CONFIGS:
        compiled = engine.evaluate(
            query, algorithm=algorithm, compile=True, **options
        )
        interpreted = engine.evaluate(
            query, algorithm=algorithm, compile=False, **options
        )
        assert compiled.rows == interpreted.rows, (
            f"compiled {algorithm} {options} row stream diverges from the "
            f"interpreted oracle on {query.name!r} over {database.name!r}"
        )
        assert compiled.count == interpreted.count == len(compiled.rows)
        rows = _rows_in_query_order(compiled, query)
        assert rows == expected, (
            f"compiled {algorithm} {options} disagrees with brute force on "
            f"{query.name!r} over {database.name!r}"
        )
        if not options:
            assert compiled.counter.as_dict() == interpreted.counter.as_dict(), (
                f"compiled {algorithm} instrumentation diverges on "
                f"{query.name!r} over {database.name!r}"
            )
            # The count loop is generated separately (its last levels may be
            # a set leaf or a reduced leaf run): same oracle, same contract.
            counted = engine.count(query, algorithm=algorithm, compile=True)
            oracle = engine.count(query, algorithm=algorithm, compile=False)
            assert counted.count == oracle.count == len(expected)
            assert counted.counter.as_dict() == oracle.counter.as_dict(), (
                f"compiled {algorithm} count instrumentation diverges on "
                f"{query.name!r} over {database.name!r}"
            )


def _random_update_stream(rng, database, schemas):
    """Apply 1-2 random insert/delete batches to one relation."""
    name, classes = rng.choice(schemas)
    for _ in range(rng.randint(1, 2)):
        inserts = [
            tuple(rng.choice(DOMAINS[cls]) for cls in classes)
            for _ in range(rng.randint(1, 6))
        ]
        existing = list(database.relation(name).tuples)
        deletes = rng.sample(existing, min(len(existing), rng.randint(0, 3)))
        database.insert(name, inserts)
        database.delete(name, deletes)


def _fuzz_one(seed):
    rng = random.Random(seed)
    relations, schemas = _random_relations(rng)
    query = _random_query(rng, schemas)
    database = Database(relations, name=f"fuzz-{seed}")
    try:
        expected = brute_force_evaluate(query, database)
        _check_all_agree(query, database, expected)
        _check_compiled_agrees(query, database, expected)
        if rng.random() < 0.5:
            _random_update_stream(rng, database, schemas)
            updated = brute_force_evaluate(query, database)
            _check_all_agree(query, database, updated)
            _check_compiled_agrees(query, database, updated)
    finally:
        database.close_pools()


@pytest.mark.parametrize("seed", range(FUZZ_ITERATIONS))
def test_random_queries_all_algorithms_agree(seed):
    _fuzz_one(seed)


def test_cross_type_join_is_empty_everywhere():
    """``E`` over ints joined to ``F`` over strs on ``y``: no int equals a
    str, so the answer is empty — and no algorithm may try to *order* the
    two (codes of one shared dictionary always compare)."""
    database = Database(
        [
            Relation("E", ("a", "b"), [(1, 2), (2, 3), (3, 1)]),
            Relation("F", ("b", "c"), [("2", "p"), ("3", "q"), ("x", "r")]),
        ],
        name="cross-type",
    )
    y, x, z = Variable("y"), Variable("x"), Variable("z")
    query = ConjunctiveQuery([Atom("E", [x, y]), Atom("F", [y, z])], name="cross")
    assert brute_force_evaluate(query, database) == set()
    engine = QueryEngine(database)
    try:
        configurations = [(name, {}) for name in SERIAL_ALGORITHMS + ("auto",)]
        configurations += [("lftj", {"parallel": 2}), ("clftj", {"parallel": True})]
        for algorithm, schedule in configurations:
            compiles = (None, False) if algorithm in COMPILED_ALGORITHMS else (None,)
            for compile in compiles:
                options = dict(schedule) if compile is None else {"compile": compile, **schedule}
                assert engine.count(query, algorithm=algorithm, **options).count == 0
                result = engine.evaluate(query, algorithm=algorithm, **options)
                assert result.rows == [] and result.count == 0, (algorithm, options)
    finally:
        database.close_pools()


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_fault_injected_parallel_matches_serial_oracle(seed):
    """Killed/raising workers must be invisible: counts AND ordered rows."""
    rng = random.Random(1000 + seed)
    relations, schemas = _random_relations(rng)
    query = _random_query(rng, schemas)
    database = Database(
        [Relation(rel.name, rel.attributes, rel.tuples) for rel in relations],
        name=f"fuzz-fault-{seed}",
    )
    try:
        engine = QueryEngine(database)
        expected = brute_force_evaluate(query, database)
        for algorithm, faults in FAULT_CONFIGS:
            serial = engine.evaluate(query, algorithm=algorithm)
            assert _rows_in_query_order(serial, query) == expected
            # Kill faults must be armed before the pool forks so the worker
            # processes inherit the armed registry.
            database.close_pools()
            with inject_faults(faults):
                result = engine.evaluate(query, algorithm=algorithm, parallel=2)
            assert result.rows == serial.rows, (
                f"fault-injected parallel {algorithm} ({faults}) row stream "
                f"diverges from its serial run on {query.name!r} (seed {seed})"
            )
            assert result.count == serial.count == len(serial.rows)
    finally:
        database.close_pools()


def test_fuzz_corpus_is_deterministic():
    """The same seed must generate the same instance (regression anchors)."""
    rng_a, rng_b = random.Random(5), random.Random(5)
    relations_a, schemas_a = _random_relations(rng_a)
    relations_b, schemas_b = _random_relations(rng_b)
    assert schemas_a == schemas_b
    assert [rel.tuples for rel in relations_a] == [rel.tuples for rel in relations_b]
    query_a = _random_query(rng_a, schemas_a)
    query_b = _random_query(rng_b, schemas_b)
    assert str(query_a) == str(query_b)
