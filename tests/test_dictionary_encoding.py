"""Integer dictionary encoding: unit, differential and zero-decode tests.

Joins run in dictionary-code space and must be observationally equivalent
to a join over the values — same counts, same decoded row sets — across
every algorithm and every storage regime (fresh builds, shared caches, the
delta/LSM path).  The oracle throughout is ``conftest.brute_force_evaluate``,
a nested loop over the relations' value tuples that shares no code with the
engine.
"""

import random
import re
from itertools import islice

import pytest

from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import generic_decompose
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.dictionary import STREAM_CHUNK, ValueDictionary, ValueEncodingError
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex

from tests.conftest import brute_force_count, brute_force_evaluate


# ---------------------------------------------------------------------------
# ValueDictionary unit behaviour
# ---------------------------------------------------------------------------


class TestValueDictionary:
    def test_codes_are_dense_and_stable(self):
        dictionary = ValueDictionary()
        first = dictionary.encode("a")
        second = dictionary.encode("b")
        assert (first, second) == (0, 1)
        # Append-only: re-encoding returns the original code forever.
        assert dictionary.encode("a") == first
        assert dictionary.encode("c") == 2
        assert len(dictionary) == 3

    def test_decode_round_trip_and_counting(self):
        dictionary = ValueDictionary()
        row = ("x", 7, "y")
        coded = dictionary.encode_row(row)
        assert dictionary.decodes == 0
        assert dictionary.decode_row(coded) == row
        assert dictionary.decodes == 3
        assert dictionary.decode(coded[1]) == 7
        assert dictionary.decodes == 4

    def test_code_of_never_appends(self):
        dictionary = ValueDictionary()
        assert dictionary.code_of("missing") is None
        assert len(dictionary) == 0
        dictionary.encode("present")
        assert dictionary.code_of("present") == 0

    def test_try_encode_row_rejects_unseen_values(self):
        dictionary = ValueDictionary()
        dictionary.encode_row((1, 2))
        assert dictionary.try_encode_row((1, 2)) == (0, 1)
        assert dictionary.try_encode_row((1, 99)) is None
        assert len(dictionary) == 2  # the miss appended nothing

    def test_unhashable_value_raises_encoding_error(self):
        dictionary = ValueDictionary()
        with pytest.raises(ValueEncodingError):
            dictionary.encode([1, 2])

    def test_unknown_code_raises(self):
        dictionary = ValueDictionary()
        with pytest.raises(ValueError):
            dictionary.decode(5)


#: Values of every kind a relation may hold, so a decoded row mixes them.
MIXED_VALUES = [7, "seven", ("nested", 7), None, -3, "", (), 2.5, "x" * 40]


def _mixed_dictionary():
    dictionary = ValueDictionary()
    for value in MIXED_VALUES:
        dictionary.encode(value)
    return dictionary


def _coded_rows(width, count, seed=0):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(len(MIXED_VALUES)) for _ in range(width))
        for _ in range(count)
    ]


class TestBatchDecode:
    """``decode_rows`` is the per-row decode, done a batch at a time."""

    @pytest.mark.parametrize("width", range(9))
    def test_batch_equals_row_by_row(self, width):
        dictionary = _mixed_dictionary()
        rows = _coded_rows(width, 37, seed=width)
        expected = [dictionary.decode_row(row) for row in rows]
        assert all(type(row) is tuple and len(row) == width for row in expected)
        for given in (rows, (row for row in rows), tuple(rows)):
            before = dictionary.decodes
            assert dictionary.decode_rows(given) == expected
            assert dictionary.decodes - before == width * len(rows)
        before = dictionary.decodes
        assert dictionary.decode_rows([]) == []
        assert dictionary.decode_rows(iter(())) == []
        assert dictionary.decodes == before

    @pytest.mark.parametrize("code", [-1, -len(MIXED_VALUES), len(MIXED_VALUES), None, "0", 1.0])
    def test_scalar_decodes_refuse_what_is_not_a_code(self, code):
        """One contract: ``ValueError`` naming the code, never a wrapped
        negative index (``decode(-1)`` returned the *last* value) nor a bare
        ``IndexError`` (``decode_row((5,))`` did)."""
        dictionary = _mixed_dictionary()
        message = re.escape(f"unknown dictionary code {code!r}")
        with pytest.raises(ValueError, match=message):
            dictionary.decode(code)
        with pytest.raises(ValueError, match=message):
            dictionary.decode_row((0, code, 1))
        assert dictionary.decodes == 0

    def test_batch_names_the_first_unknown_code_and_counts_nothing(self):
        dictionary = _mixed_dictionary()
        rows = _coded_rows(3, 20) + [(0, 99, 1), (0, 1, 77)] + _coded_rows(3, 5)
        for given in (rows, iter(rows)):
            with pytest.raises(ValueError, match="unknown dictionary code 99"):
                dictionary.decode_rows(given)
        with pytest.raises(ValueError, match="unknown dictionary code 99"):
            list(dictionary.decode_stream(rows))
        assert dictionary.decodes == 0

    def test_ragged_batch_is_decoded_row_by_row_or_refused(self):
        dictionary = _mixed_dictionary()
        ragged = [(0, 1), (2,), (3, 4, 5), ()]
        assert dictionary.decode_rows(ragged) == [
            (7, "seven"), (("nested", 7),), (None, -3, ""), (),
        ]
        assert dictionary.decodes == 6
        with pytest.raises(ValueError, match="unknown dictionary code 42"):
            dictionary.decode_rows(ragged + [(1, 42, 1)])
        with pytest.raises(ValueError, match="unknown dictionary code -2"):
            dictionary.decode_rows([(0, 1), (-2,)])
        assert dictionary.decodes == 6

    def test_stream_decodes_at_most_one_chunk_ahead(self):
        dictionary = _mixed_dictionary()
        rows = _coded_rows(2, 2 * STREAM_CHUNK + 10)
        expected = [tuple(MIXED_VALUES[code] for code in row) for row in rows]
        pulled = []

        def source():
            for row in rows:
                pulled.append(row)
                yield row

        stream = dictionary.decode_stream(source())
        assert (len(pulled), dictionary.decodes) == (0, 0)  # nothing until read
        assert next(stream) == expected[0]
        assert (len(pulled), dictionary.decodes) == (STREAM_CHUNK, 2 * STREAM_CHUNK)
        assert list(islice(stream, STREAM_CHUNK)) == expected[1 : STREAM_CHUNK + 1]
        assert (len(pulled), dictionary.decodes) == (2 * STREAM_CHUNK, 4 * STREAM_CHUNK)
        assert list(stream) == expected[STREAM_CHUNK + 1 :]
        assert (len(pulled), dictionary.decodes) == (len(rows), 2 * len(rows))


# ---------------------------------------------------------------------------
# Storage-layer behaviour of encoded indexes
# ---------------------------------------------------------------------------


def _edge_db(edges, name="g"):
    return Database([Relation("E", ("src", "dst"), edges)], name=name)


def _value_rows(result, query):
    """Decoded result rows re-projected into ``query.variables`` order."""
    position = {variable: index for index, variable in enumerate(result.variable_order)}
    columns = [position[variable] for variable in query.variables]
    return {tuple(row[column] for column in columns) for row in result.rows}


class TestEncodedStorage:
    def test_database_tries_are_encoded_by_default(self):
        db = _edge_db([("a", "b"), ("b", "c")])
        trie = db.trie_index("E", (0, 1))
        assert trie.dictionary is db.dictionary
        assert trie.main.encoded
        # The public row/membership surface stays in value space.
        assert sorted(trie.iter_rows()) == [("a", "b"), ("b", "c")]
        assert trie.contains(("a", "b"))
        assert not trie.contains(("a", "zzz"))

    def test_encoded_key_columns_are_int_arrays(self):
        db = _edge_db([(10, 20), (10, 30)])
        trie = db.trie_index("E", (0, 1))
        for level in trie.main._keys:
            assert level.typecode == "q"

    def test_encode_is_not_an_option(self):
        """One storage representation: there is no raw mode to ask for."""
        with pytest.raises(TypeError, match="encode"):
            Database([Relation("E", ("src", "dst"), [(1, 2)])], encode=False)

    def test_lftj_clftj_recursion_counters_agree_with_unary_leaf_atom(self):
        """Regression: the inlined leaf fusion double-counted recursive calls
        when a participant (here a unary atom on the last variable) cannot
        expose a child run and the real recursion has to run instead.

        The fused kernels are held against the generic per-key
        ``LeapfrogJoin`` loop, which the same query takes over a resident
        LSM delta level: impure merged levels expose no run."""
        from repro.core.instrumentation import OperationCounter

        rng = random.Random(23)
        relations = [
            Relation("R", ("a", "b"), _random_graph_edges(rng, list(range(10)), 30)),
            Relation("S", ("b", "c"), _random_graph_edges(rng, list(range(10)), 30)),
            Relation("U", ("c",), [(value,) for value in range(0, 10, 2)]),
        ]
        query = parse_query("R(x, y), S(y, z), U(z)", name="unary-leaf")
        fused_db = Database(relations, name="fused")
        # Same contents, but two rows in three arrive as an unmerged delta.
        delta_db = Database(
            [Relation(r.name, r.attributes, r.tuples[::3]) for r in relations],
            name="delta", compaction_floor=0, compaction_threshold=100.0,
        )
        LeapfrogTrieJoin(query, delta_db)  # build the tries the inserts patch
        for relation in relations:
            delta_db.insert(relation.name, relation.tuples)
        fused_counter, delta_counter = OperationCounter(), OperationCounter()
        fused = LeapfrogTrieJoin(query, fused_db, counter=fused_counter).count()
        joiner = LeapfrogTrieJoin(query, delta_db, counter=delta_counter)
        assert joiner.execution_metadata()["delta_tries"] == 3
        assert fused == joiner.count() == brute_force_count(query, fused_db)
        assert fused_counter.recursive_calls == delta_counter.recursive_calls
        assert fused_counter.results_emitted == delta_counter.results_emitted

    def test_delta_updates_append_codes_never_recode(self):
        db = _edge_db([("a", "b"), ("b", "c")])
        db.trie_index("E", (0, 1))  # populate the cache
        code_a = db.dictionary.code_of("a")
        db.insert("E", [("c", "zebra")])
        assert db.dictionary.code_of("a") == code_a
        assert db.dictionary.code_of("zebra") is not None
        trie = db.trie_index("E", (0, 1))
        assert sorted(trie.iter_rows()) == [
            ("a", "b"), ("b", "c"), ("c", "zebra"),
        ]


class TestGallopingSeek:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_seek_matches_bisect_oracle(self, seed):
        rng = random.Random(seed)
        values = sorted(rng.sample(range(0, 5000), 400))
        trie = TrieIndex.from_tuples([(value,) for value in values])
        iterator = trie.iterator()
        iterator.open()
        position = 0
        for _ in range(100):
            target = rng.randrange(0, 5200)
            if iterator.at_end():
                break
            current = iterator.key()
            if target < current:
                target = current  # seeks never move backwards
            iterator.seek(target)
            import bisect
            expected = bisect.bisect_left(values, target, position)
            position = expected
            if expected >= len(values):
                assert iterator.at_end()
                break
            assert iterator.key() == values[expected]


# ---------------------------------------------------------------------------
# Differential: code-space joins vs the value-space brute force, across
# algorithms, domains and updates
# ---------------------------------------------------------------------------

ALGORITHMS = ("lftj", "clftj", "ytd", "pairwise")


def _random_graph_edges(rng, nodes, num_edges):
    edges = set()
    while len(edges) < num_edges:
        src, dst = rng.choice(nodes), rng.choice(nodes)
        if src != dst:
            edges.add((src, dst))
    return sorted(edges)


def _mixed_database(seed):
    """A database over mixed str/int domains.

    ``E`` is a graph over string node ids (so its trie level order by code
    differs wildly from value order); ``R``/``S`` join a string column
    between an int column on either side.
    """
    rng = random.Random(seed)
    str_nodes = [f"v{index:02d}" for index in range(14)]
    rng.shuffle(str_nodes)  # first-encounter order != sorted order
    edges = _random_graph_edges(rng, str_nodes, 60)
    r_rows = [
        (rng.randrange(0, 9), rng.choice(str_nodes)) for _ in range(40)
    ]
    s_rows = [
        (rng.choice(str_nodes), rng.randrange(0, 9)) for _ in range(40)
    ]
    return Database(
        [
            Relation("E", ("src", "dst"), edges),
            Relation("R", ("a", "b"), r_rows),
            Relation("S", ("b", "c"), s_rows),
        ],
        name=f"mixed-{seed}",
    )


def _queries():
    return [
        cycle_query(3),
        path_query(3),
        parse_query("R(x, y), S(y, z)", name="mixed-join"),
        parse_query("E(x, y), E(y, x)", name="sym"),
        parse_query("E(x, x)", name="loops"),
    ]


class TestDifferentialEncodedVsRaw:
    """Code-space execution against the brute-force oracle over the values
    (the class name dates from when a raw-storage twin was the oracle)."""

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_counts_and_rows_agree_for_every_algorithm(self, seed):
        database = _mixed_database(seed)
        engine = QueryEngine(database)
        for query in _queries():
            expected = brute_force_evaluate(query, database)
            for algorithm in ALGORITHMS:
                result = engine.evaluate(query, algorithm=algorithm)
                assert result.count == len(expected), (query.name, algorithm)
                # Decoded tuple sets must match exactly (order may differ:
                # the join streams in code order).
                assert _value_rows(result, query) == expected, (query.name, algorithm)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_agreement_survives_seeded_update_streams(self, seed):
        database = _mixed_database(seed)
        engine = QueryEngine(database)
        query = cycle_query(3)
        engine.count(query)  # warm every cache
        rng = random.Random(seed * 31)
        nodes = [f"v{index:02d}" for index in range(14)] + [f"w{index}" for index in range(4)]
        for _ in range(6):
            inserts = _random_graph_edges(rng, nodes, 5)
            existing = list(database.relation("E").tuples)
            deletes = [rng.choice(existing)] if existing else []
            database.insert("E", inserts)
            database.delete("E", deletes)
            expected = brute_force_count(query, database)
            for algorithm in ("lftj", "clftj", "ytd"):
                assert engine.count(query, algorithm=algorithm).count == expected, algorithm
            # A freshly built database over the mutated contents agrees too.
            rebuilt = Database(
                [Relation("E", ("src", "dst"), database.relation("E").tuples)],
                name="rebuilt",
            )
            assert LeapfrogTrieJoin(query, rebuilt).count() == expected


# ---------------------------------------------------------------------------
# The zero-decode guarantee and the lazy result boundary
# ---------------------------------------------------------------------------


class TestZeroDecodeGuarantee:
    def test_count_queries_never_decode(self):
        database = _mixed_database(3)
        engine = QueryEngine(database)
        query = cycle_query(3)
        for algorithm in ("lftj", "clftj"):
            result = engine.count(query, algorithm=algorithm)
            assert "encoded" not in result.metadata  # a key that could only say True
            assert result.metadata["decodes"] == 0
        prepared = engine.prepare(query, algorithm="clftj")
        for _ in range(3):
            assert prepared.count().metadata["decodes"] == 0
        assert database.dictionary.decodes == 0

    def test_evaluation_decodes_lazily_at_the_result_boundary(self):
        database = _mixed_database(4)
        engine = QueryEngine(database)
        query = parse_query("R(x, y), S(y, z)", name="mixed-join")
        result = engine.evaluate(query, algorithm="lftj")
        # Rows not touched yet: nothing has been decoded.
        assert database.dictionary.decodes == 0
        assert result.metadata["decodes"] == 0
        rows = result.rows
        assert len(rows) == result.count
        expected_decodes = result.count * 3  # arity = |variables|
        assert database.dictionary.decodes == expected_decodes
        assert result.metadata["decodes"] == expected_decodes
        # Second access reuses the decoded list.
        assert result.rows is rows
        assert database.dictionary.decodes == expected_decodes

    def test_head_decodes_only_the_rows_it_returns(self):
        database = _mixed_database(4)
        engine = QueryEngine(database)
        dictionary = database.dictionary
        query = parse_query("R(x, y), S(y, z)", name="mixed-join")
        oracle = engine.evaluate(query, algorithm="lftj", compile=False).rows
        result = engine.evaluate(query, algorithm="lftj")
        metadata, start = result.metadata, dictionary.decodes
        assert len(oracle) > 4 and metadata["decode_seconds"] == 0.0
        assert result.head(4) == oracle[:4]
        assert dictionary.decodes - start == metadata["decodes"] == 4 * 3
        head_seconds = metadata["decode_seconds"]
        assert head_seconds > 0.0
        assert result.head(0) == [] and metadata["decodes"] == 4 * 3
        # head() keeps nothing: .rows is still the whole result, and the
        # metadata is the work actually done (the prefix, then everything).
        assert result.rows == oracle
        done = (4 + len(oracle)) * 3
        assert dictionary.decodes - start == metadata["decodes"] == done
        assert metadata["decode_seconds"] > head_seconds
        # Once decoded, a prefix is a slice of the kept rows.
        assert result.head(2) == oracle[:2] and result.head(10 ** 9) == oracle
        assert metadata["decodes"] == done
        # Rows that never were codes are sliced; a count has no rows.
        assert len(engine.evaluate(query, algorithm="pairwise").head(3)) == 3
        assert engine.count(query, algorithm="lftj").head(3) is None

    def test_direct_executor_evaluate_returns_values(self):
        database = _mixed_database(6)
        query = cycle_query(3)
        joiner = LeapfrogTrieJoin(query, database)
        assert joiner.variable_order == query.variables
        rows = set(joiner.evaluate())
        assert rows == brute_force_evaluate(query, database)
        for row in rows:
            assert all(isinstance(value, str) for value in row)


class TestEncodedAggregates:
    def test_weighted_aggregates_decode_only_for_weights(self):
        from repro.core.aggregates import (
            CachedAggregateTrieJoin,
            SumProductSemiring,
            relation_weight_function,
        )

        database = _mixed_database(8)
        query = cycle_query(3)
        decomposition = generic_decompose(query)
        table = {
            row: 1.0 + (index % 3)
            for index, row in enumerate(database.relation("E").tuples)
        }
        aggregate = CachedAggregateTrieJoin(
            query, database, decomposition, SumProductSemiring(),
            weight=relation_weight_function(database, {"E": table}),
        ).aggregate()
        # Sum over the brute-force results of the product of atom weights.
        expected = 0.0
        for row in brute_force_evaluate(query, database):
            assignment = dict(zip(query.variables, row))
            product = 1.0
            for atom in query.atoms:
                product *= table[tuple(assignment[term] for term in atom.terms)]
            expected += product
        assert aggregate == pytest.approx(expected)
        assert database.dictionary.decodes > 0  # weights are looked up by value

    def test_uniform_counting_aggregate_stays_zero_decode(self):
        from repro.core.aggregates import aggregate_count

        database = _mixed_database(8)
        query = cycle_query(3)
        decomposition = generic_decompose(query)
        expected = LeapfrogTrieJoin(query, database).count()
        assert aggregate_count(query, database, decomposition) == expected
        assert database.dictionary.decodes == 0
