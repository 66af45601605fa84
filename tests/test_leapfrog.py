"""Tests for the unary leapfrog intersection and the batched run kernels."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leapfrog import (
    LeapfrogJoin,
    _fast_child_run,
    leapfrog_intersection,
    run_count,
    run_intersect,
    run_keys,
)
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex


def _open_iterator(values):
    trie = TrieIndex.from_tuples([(value,) for value in values])
    iterator = trie.iterator()
    iterator.open()
    return iterator


class TestLeapfrogJoin:
    def test_two_way_intersection(self):
        left = _open_iterator([1, 3, 5, 7])
        right = _open_iterator([2, 3, 5, 8])
        assert list(LeapfrogJoin([left, right])) == [3, 5]

    def test_three_way_intersection(self):
        iterators = [
            _open_iterator([1, 2, 3, 4, 5]),
            _open_iterator([2, 3, 5, 9]),
            _open_iterator([3, 5, 7]),
        ]
        assert list(LeapfrogJoin(iterators)) == [3, 5]

    def test_single_iterator_passthrough(self):
        iterator = _open_iterator([4, 6, 8])
        assert list(LeapfrogJoin([iterator])) == [4, 6, 8]

    def test_empty_intersection(self):
        join = LeapfrogJoin([_open_iterator([1, 2]), _open_iterator([3, 4])])
        assert join.at_end

    def test_empty_iterator_short_circuits(self):
        trie = TrieIndex.from_tuples([(1,)])
        iterator = trie.iterator()
        iterator.open()
        iterator.seek(10)  # exhaust it
        join = LeapfrogJoin([iterator, _open_iterator([1, 2, 3])])
        assert join.at_end

    def test_key_raises_at_end(self):
        join = LeapfrogJoin([_open_iterator([1]), _open_iterator([2])])
        with pytest.raises(RuntimeError):
            join.key()

    def test_next_raises_at_end(self):
        join = LeapfrogJoin([_open_iterator([1]), _open_iterator([2])])
        with pytest.raises(RuntimeError):
            join.next()

    def test_seek_skips_forward(self):
        join = LeapfrogJoin([_open_iterator([1, 4, 6, 9]), _open_iterator([1, 4, 6, 9])])
        join.seek(5)
        assert join.key() == 6

    def test_no_iterators_rejected(self):
        with pytest.raises(ValueError):
            LeapfrogJoin([])

    def test_helper_function(self):
        assert leapfrog_intersection(
            [_open_iterator([1, 2, 3]), _open_iterator([2, 3, 4])]
        ) == [2, 3]


@given(
    st.lists(st.sets(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
             min_size=1, max_size=4)
)
@settings(max_examples=80, deadline=None)
def test_leapfrog_matches_set_intersection(value_sets):
    iterators = [_open_iterator(sorted(values)) for values in value_sets]
    expected = sorted(set.intersection(*[set(values) for values in value_sets]))
    assert list(LeapfrogJoin(iterators)) == expected


def _run(values, pad):
    """``values`` as a ``(keys, lo, hi)`` run inside a column padded on both
    sides, so the kernels have to respect ``lo`` and ``hi``."""
    keys = array("q", [-1] * pad + sorted(values) + [10**6] * pad)
    return keys, pad, pad + len(values)


@given(
    st.lists(st.sets(st.integers(min_value=0, max_value=300), max_size=120),
             min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_run_kernels_match_set_intersection(value_sets, pad):
    """``run_count`` / ``run_keys`` / ``run_intersect``, the galloping merge
    every join and every compiled driver intersects with, on 1-4 runs."""
    runs = [_run(values, pad) for values in value_sets]
    expected = sorted(set.intersection(*map(set, value_sets)))
    assert run_count(runs) == len(expected)
    assert run_keys(runs) == expected
    need = [index % 2 == 0 for index in range(len(runs))]
    keys, positions = run_intersect(runs, need)
    assert keys == expected
    for (column, lo, hi), needed, found in zip(runs, need, positions):
        if not needed:
            assert found is None
            continue
        assert all(lo <= position < hi for position in found)
        assert [column[position] for position in found] == expected
    # a self-join over one shared slice: the intersection is the slice
    column, lo, hi = runs[0]
    assert run_intersect([runs[0], runs[0]], (True, False)) == (
        sorted(value_sets[0]), [list(range(lo, hi)), None]
    )


def _child_runs_agree(iterator):
    """``_fast_child_run`` against ``child_run`` here, then at every position
    of every level below, ended levels included."""
    assert _fast_child_run(iterator) == iterator.child_run()
    if iterator.depth == iterator.max_depth:
        return 1
    checked = 1
    iterator.open()
    while True:
        fast, slow = _fast_child_run(iterator), iterator.child_run()
        assert fast == slow
        if fast is not None:
            assert fast[0] is slow[0] and len(fast) == 3
        if iterator.at_end():
            break
        if iterator.depth < iterator.max_depth:
            checked += _child_runs_agree(iterator)
        iterator.next()
    iterator.up()
    return checked + 1


def test_the_flat_child_run_agrees_with_the_method():
    """``_fast_child_run`` flattens ``TrieIterator.child_run`` for the
    two-iterator count kernel; the two must agree at every depth and
    position: ``None`` above the first level, on an ended level and at the
    deepest level, the same ``(keys, lo, hi)`` run everywhere else."""
    rows = [(a, b, c) for a in range(6) for b in range(a, 6) for c in range(b % 3 + 1)]
    database = Database([Relation("T", ("a", "b", "c"), rows)])
    iterator = database.trie_index("T", (0, 1, 2)).main.iterator()
    assert _child_runs_agree(iterator) > len(rows)
    # a trie without a dictionary exposes no runs, on either path
    plain = TrieIndex.from_tuples(rows).iterator()
    plain.open()
    assert _fast_child_run(plain) is None and plain.child_run() is None
