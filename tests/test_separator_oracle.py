"""The planner against its networkx oracle, and what planning without networkx promises.

``tests/nx_separators.py`` is Section 4.2 written against networkx (an
``nx.DiGraph`` and ``nx.minimum_cut`` per vertex cut).  The planner's own
unit-capacity augmenting-path cut must return exactly its separators, so
every plan is the same.  Independently of the oracle: a plan does not depend
on ``PYTHONHASHSEED``, and importing the package does not import networkx.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.decomposition import separators
from repro.decomposition.cost import select_decomposition
from repro.query.gaifman import Graph
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
from tests import nx_separators as oracle

ROOT = Path(__file__).resolve().parent.parent

CONSTRAINTS = ((), (0,), (0, 1))


def both(nodes, edges):
    """One graph as the planner's type and as the oracle's, nodes in the same order."""
    nx_graph = oracle.NxGraph()
    nx_graph.add_nodes_from(nodes)
    nx_graph.add_edges_from(edges)
    return Graph(nodes, edges), nx_graph


def labelled_graphs(size):
    """Every graph on the nodes ``0 .. size - 1``."""
    pairs = list(itertools.combinations(range(size), 2))
    for mask in range(1 << len(pairs)):
        yield list(range(size)), [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]


def random_graphs(count, seed=0):
    """Seeded random graphs on 6 or 7 nodes, inserted in a shuffled node order."""
    rng = random.Random(seed)
    for _ in range(count):
        nodes = list(range(rng.choice((6, 7))))
        rng.shuffle(nodes)
        density = rng.uniform(0.25, 0.7)
        yield nodes, [pair for pair in itertools.combinations(nodes, 2) if rng.random() < density]


def assert_minimum_agrees(ours, theirs, constraint, include=(), exclude=()):
    separator = separators.minimum_constrained_separator(
        ours, constraint, include=include, exclude=exclude
    )
    expected = oracle.minimum_constrained_separator(
        theirs, constraint, include=include, exclude=exclude
    )
    case = (list(ours.nodes), ours.edges, constraint, include, exclude)
    assert separator == expected, case
    if separator is not None:
        side = separators.component_side(ours, separator, constraint)
        assert side == oracle.component_side(theirs, separator, constraint), case


def assert_enumeration_agrees(ours, theirs, constraint):
    found = list(separators.enumerate_constrained_separators(ours, constraint, max_results=8))
    expected = list(oracle.enumerate_constrained_separators(theirs, constraint, max_results=8))
    assert found == expected, (list(ours.nodes), ours.edges, constraint)
    for separator in found:
        assert separators.component_side(ours, separator, constraint) == oracle.component_side(
            theirs, separator, constraint
        )


class TestSeparatorsAgainstNetworkx:
    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_every_labelled_graph(self, size):
        """Minimum separator + side under every constraint, then, in turn, the
        last node included, the last node excluded, or the ranked enumeration."""
        for index, (nodes, edges) in enumerate(labelled_graphs(size)):
            ours, theirs = both(nodes, edges)
            for constraint in CONSTRAINTS:
                assert_minimum_agrees(ours, theirs, constraint)
            constraint = CONSTRAINTS[index // 3 % 3]
            if index % 3 == 0:
                assert_minimum_agrees(ours, theirs, constraint, include=(size - 1,))
            elif index % 3 == 1:
                assert_minimum_agrees(ours, theirs, constraint, exclude=(size - 1,))
            else:
                assert_enumeration_agrees(ours, theirs, constraint)

    def test_random_graphs_of_six_and_seven_nodes(self):
        for index, (nodes, edges) in enumerate(random_graphs(1000)):
            ours, theirs = both(nodes, edges)
            constraint = CONSTRAINTS[index % 3]
            node = (nodes[-1],)
            membership = ({}, {"include": node}, {"exclude": node})[index // 3 % 3]
            assert_minimum_agrees(ours, theirs, constraint, **membership)
            if index % 8 == 0:
                assert_enumeration_agrees(ours, theirs, constraint)

    def test_a_path_of_uncuttable_nodes_has_no_finite_cut(self):
        # 0 - 1 - 2 with 1 excluded: the only path is uncuttable.
        ours, theirs = both([0, 1, 2], [(0, 1), (1, 2)])
        assert separators._vertex_cut(ours, {0}, 2, {1}) is None
        assert oracle._vertex_cut(theirs, {0}, 2, {1}) is None
        assert separators._vertex_cut(ours, {0}, 2, set()) == frozenset({1})

    def test_constraint_naming_a_node_outside_the_graph(self):
        ours, theirs = both(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        for constraint in ((9,), (0, 9)):
            assert_minimum_agrees(ours, theirs, constraint)
            assert_enumeration_agrees(ours, theirs, constraint)


def corpus():
    """The pattern corpus: paths and cycles 3-8, cliques 3-5, lollipops, stars, 40 random."""
    queries = [path_query(n) for n in range(3, 9)]
    queries += [cycle_query(n) for n in range(3, 9)]
    queries += [clique_query(n) for n in range(3, 6)]
    queries += [lollipop_query(a, b) for a in (3, 4) for b in (1, 2, 3)]
    queries += [star_query(n) for n in range(2, 6)]
    queries += [
        random_pattern_query(5 + seed % 3, (0.35, 0.5, 0.65)[seed // 3 % 3], seed=seed)
        for seed in range(40)
    ]
    return queries


def plans():
    """(order, bags, parents) of every corpus query at adhesion bounds 1-3."""
    rng = random.Random(5)
    edges = sorted({(rng.randrange(40), rng.randrange(40)) for _ in range(160)})
    database = Database([Relation("E", ("src", "dst"), edges)])
    planned = []
    for query in corpus():
        for adhesion in (1, 2, 3):
            choice = select_decomposition(query, database, max_adhesion_size=adhesion)
            decomposition = choice.decomposition
            planned.append((
                [variable.name for variable in choice.order],
                [sorted(variable.name for variable in bag) for bag in decomposition.bags],
                [decomposition.parent(node) for node in range(decomposition.num_nodes)],
            ))
    return planned


def test_select_decomposition_matches_the_oracle_planner():
    ours = plans()
    with oracle.planned_with_oracle():
        theirs = plans()
    assert ours == theirs


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


def test_importing_the_package_loads_no_networkx():
    run = _python(
        "import sys, repro, repro.cli, repro.server.http; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'networkx'))"
    )
    output = run.communicate(timeout=120)[0]
    assert run.returncode == 0
    assert output.strip() == "[]"
