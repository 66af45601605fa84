"""The paper's E0 measure as an exact, committed table.

Section 1 of the paper counts the memory accesses of one 5-cycle count on
SNAP ca-GrQc: LFTJ ~45e9 > YTD ~16e9 > CLFTJ ~1.4e9.  This table pins, to the
unit, what the counted model says on the ca-GrQc stand-in at two scales for
three query families and the paper's three algorithms: ``count``,
``memory_accesses`` and ``cache_hits``.  A plan, cache, codegen or cost-model
change that moves any cell has to say so by editing the table.

LFTJ and CLFTJ are run both compiled and interpreted (``compile=False``);
instrumentation parity means both give the same numbers.  YTD joins each bag
with LFTJ over the same shared tries, so its bag joins are counted in the
same trie accesses.
"""

import pytest

from repro.datasets.snap import ca_grqc
from repro.engine.engine import QueryEngine
from repro.query.patterns import cycle_query, path_query

QUERIES = {"4-cycle": cycle_query(4), "5-cycle": cycle_query(5), "4-path": path_query(4)}

#: (scale, query) -> count, then (memory_accesses, cache_hits) per algorithm.
TABLE = {
    (0.3, "4-cycle"): (1712, {"lftj": (16990, 0), "clftj": (14266, 170), "ytd": (8171, 0)}),
    (0.3, "5-cycle"): (4220, {"lftj": (100140, 0), "clftj": (51849, 2721), "ytd": (71618, 0)}),
    (0.3, "4-path"): (22706, {"lftj": (69874, 0), "clftj": (3326, 296), "ytd": (2355, 0)}),
    (1, "4-cycle"): (6892, {"lftj": (109270, 0), "clftj": (96966, 544), "ytd": (39909, 0)}),
    (1, "5-cycle"): (14410, {"lftj": (835724, 0), "clftj": (531045, 13269), "ytd": (742502, 0)}),
    (1, "4-path"): (159498, {"lftj": (634994, 0), "clftj": (25718, 1016), "ytd": (7719, 0)}),
}


@pytest.fixture(scope="module", params=[0.3, 1], ids=["scale-0.3", "scale-1"])
def engine(request):
    return request.param, QueryEngine(ca_grqc(scale=request.param))


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_e0_cells_are_exact(engine, query_name):
    scale, engine = engine
    count, cells = TABLE[(scale, query_name)]
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


def test_e0_keeps_the_paper_order_on_the_stand_in():
    """The paper's E0 order, LFTJ > YTD > CLFTJ, holds for the 5-cycle rows."""
    for scale in (0.3, 1):
        _, cells = TABLE[(scale, "5-cycle")]
        lftj, clftj, ytd = (cells[name][0] for name in ("lftj", "clftj", "ytd"))
        assert lftj > ytd > clftj, scale
