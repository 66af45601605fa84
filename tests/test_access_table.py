"""The paper's E0 measure as an exact, committed table.

Section 1 of the paper counts the memory accesses of one 5-cycle count on
SNAP ca-GrQc: LFTJ ~45e9 > YTD ~16e9 > CLFTJ ~1.4e9.  This table pins, to the
unit, what the counted model says on the ca-GrQc stand-in at two scales for
three query families and the paper's three algorithms: ``count``,
``memory_accesses`` and ``cache_hits``.  A plan, cache, codegen or cost-model
change that moves any cell has to say so by editing the table.  The
wiki-Vote stand-in (a directed graph; the triangle too) has its own table,
and so has the p2p-Gnutella04 stand-in (flat degrees) at scale 1.  The
3-path and the {3,2}-lollipop are the shapes whose CLFTJ count probes a bag
once for all the bindings of the childless bag before it.

LFTJ and CLFTJ are run both compiled and interpreted (``compile=False``);
instrumentation parity means both give the same numbers.  YTD joins each bag
with LFTJ over the same shared tries, so its bag joins are counted in the
same trie accesses.
"""

import pytest

from repro.datasets.snap import ca_grqc, p2p_gnutella04, wiki_vote
from repro.engine.engine import QueryEngine
from repro.query.patterns import cycle_query, lollipop_query, path_query

QUERIES = {
    "3-cycle": cycle_query(3),
    "4-cycle": cycle_query(4),
    "5-cycle": cycle_query(5),
    "3-path": path_query(3),
    "4-path": path_query(4),
    "lollipop": lollipop_query(3, 2),
}

#: (scale, query) -> count, then (memory_accesses, cache_hits) per algorithm.
TABLE = {
    (0.3, "4-cycle"): (1712, {"lftj": (16990, 0), "clftj": (14266, 170), "ytd": (8171, 0)}),
    (0.3, "5-cycle"): (4220, {"lftj": (100140, 0), "clftj": (51849, 2721), "ytd": (71618, 0)}),
    (0.3, "4-path"): (22706, {"lftj": (69874, 0), "clftj": (3326, 296), "ytd": (2355, 0)}),
    (1, "4-cycle"): (6892, {"lftj": (109270, 0), "clftj": (96966, 544), "ytd": (39909, 0)}),
    (1, "5-cycle"): (14410, {"lftj": (835724, 0), "clftj": (531045, 13269), "ytd": (742502, 0)}),
    (1, "4-path"): (159498, {"lftj": (634994, 0), "clftj": (25718, 1016), "ytd": (7719, 0)}),
    (0.3, "3-path"): (3762, {"lftj": (11636, 0), "clftj": (1892, 222), "ytd": (1677, 0)}),
    (0.3, "lollipop"): (3636, {"lftj": (16786, 0), "clftj": (5140, 204), "ytd": (4828, 0)}),
    (1, "3-path"): (20562, {"lftj": (82076, 0), "clftj": (13592, 762), "ytd": (5493, 0)}),
    (1, "lollipop"): (14284, {"lftj": (100412, 0), "clftj": (33112, 582), "ytd": (24245, 0)}),
}

#: The same cells on the wiki-Vote stand-in.
WIKI_VOTE_TABLE = {
    (0.3, "3-cycle"): (147, {"lftj": (3355, 0), "clftj": (3355, 0), "ytd": (3503, 0)}),
    (0.3, "4-cycle"): (902, {"lftj": (18261, 0), "clftj": (14015, 288), "ytd": (8593, 0)}),
    (0.3, "5-cycle"): (4540, {"lftj": (99457, 0), "clftj": (49167, 3344), "ytd": (83004, 0)}),
    (0.3, "4-path"): (23354, {"lftj": (69617, 0), "clftj": (2942, 430), "ytd": (2891, 0)}),
    (1, "3-cycle"): (531, {"lftj": (20072, 0), "clftj": (20072, 0), "ytd": (20604, 0)}),
    (1, "4-cycle"): (4322, {"lftj": (140148, 0), "clftj": (111677, 1179), "ytd": (51137, 0)}),
    (1, "5-cycle"): (34600, {"lftj": (1136139, 0), "clftj": (622670, 24679), "ytd": (979759, 0)}),
    (1, "4-path"): (273707, {"lftj": (828435, 0), "clftj": (21735, 1431), "ytd": (9498, 0)}),
    (0.3, "3-path"): (4308, {"lftj": (12757, 0), "clftj": (1720, 323), "ytd": (2058, 0)}),
    (0.3, "lollipop"): (6024, {"lftj": (24025, 0), "clftj": (5311, 361), "ytd": (5749, 0)}),
    (1, "3-path"): (33647, {"lftj": (101966, 0), "clftj": (11671, 1074), "ytd": (6766, 0)}),
    (1, "lollipop"): (61171, {"lftj": (209416, 0), "clftj": (32873, 1179), "ytd": (29116, 0)}),
}

#: The p2p-Gnutella04 stand-in, scale 1 only.
P2P_TABLE = {
    (1, "3-path"): (2874, {"lftj": (87741, 0), "clftj": (21928, 749), "ytd": (6518, 0)}),
    (1, "lollipop"): (139, {"lftj": (89076, 0), "clftj": (45820, 386), "ytd": (29856, 0)}),
    (1, "4-path"): (7472, {"lftj": (253891, 0), "clftj": (41831, 984), "ytd": (9108, 0)}),
    (1, "4-cycle"): (46, {"lftj": (85831, 0), "clftj": (84689, 28), "ytd": (31079, 0)}),
    (1, "5-cycle"): (125, {"lftj": (246142, 0), "clftj": (241027, 289), "ytd": (58957, 0)}),
}


@pytest.fixture(scope="module", params=[0.3, 1], ids=["scale-0.3", "scale-1"])
def engine(request):
    return request.param, QueryEngine(ca_grqc(scale=request.param))


@pytest.fixture(scope="module", params=[0.3, 1], ids=["scale-0.3", "scale-1"])
def wiki_vote_engine(request):
    return request.param, QueryEngine(wiki_vote(scale=request.param))


def _assert_cells(engine, table, query_name):
    scale, engine = engine
    count, cells = table[(scale, query_name)]
    query = QUERIES[query_name]
    for algorithm, expected in cells.items():
        runs = [engine.count(query, algorithm=algorithm)]
        if algorithm != "ytd":
            runs.append(engine.count(query, algorithm=algorithm, compile=False))
            assert [run.metadata.get("compiled", False) for run in runs] == [True, False]
        for run in runs:
            cell = (scale, query_name, algorithm, run.metadata.get("compiled", False))
            assert run.count == count, cell
            assert (run.counter.memory_accesses, run.counter.cache_hits) == expected, cell


@pytest.mark.parametrize("query_name", ["4-cycle", "4-path", "5-cycle", "3-path", "lollipop"])
def test_e0_cells_are_exact(engine, query_name):
    _assert_cells(engine, TABLE, query_name)


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_wiki_vote_cells_are_exact(wiki_vote_engine, query_name):
    _assert_cells(wiki_vote_engine, WIKI_VOTE_TABLE, query_name)


@pytest.fixture(scope="module")
def p2p_engine():
    return 1, QueryEngine(p2p_gnutella04(scale=1))


@pytest.mark.parametrize("query_name", ["3-path", "lollipop", "4-path", "4-cycle", "5-cycle"])
def test_p2p_cells_are_exact(p2p_engine, query_name):
    _assert_cells(p2p_engine, P2P_TABLE, query_name)


def test_e0_keeps_the_paper_order_on_the_stand_in():
    """The paper's E0 order, LFTJ > YTD > CLFTJ, holds for the 5-cycle rows."""
    for scale in (0.3, 1):
        _, cells = TABLE[(scale, "5-cycle")]
        lftj, clftj, ytd = (cells[name][0] for name in ("lftj", "clftj", "ytd"))
        assert lftj > ytd > clftj, scale
