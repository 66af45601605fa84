"""Reference trie: the original pointer-chasing object graph (tests only).

One node object per distinct prefix, children held in Python lists.  It
implements the same index/iterator contract and the same abstract counter
model as the columnar :class:`repro.storage.trie.TrieIndex` with none of its
layout, which makes it the oracle of
``tests/test_trie_backend.py::TestColumnarMatchesNodeBackend`` (identical
keys, end states and full ``OperationCounter`` totals for any operation
sequence).  No engine code can construct one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.storage.relation import Relation
from repro.storage.trie import _sorted_rows

class _TrieNode:
    """One internal node: sorted child keys and the corresponding subtries."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: List[object], children: Optional[List["_TrieNode"]]) -> None:
        self.keys = keys
        self.children = children

    def __len__(self) -> int:
        return len(self.keys)


def _build_node(rows: Sequence[Tuple[object, ...]], level: int, depth: int) -> _TrieNode:
    """Recursively build a trie node from sorted rows, grouping on ``level``."""
    keys: List[object] = []
    children: Optional[List[_TrieNode]] = [] if level + 1 < depth else None
    start = 0
    total = len(rows)
    while start < total:
        value = rows[start][level]
        end = start
        while end < total and rows[end][level] == value:
            end += 1
        keys.append(value)
        if children is not None:
            children.append(_build_node(rows[start:end], level + 1, depth))
        start = end
    return _TrieNode(keys, children)


class NodeTrieIndex:
    """The original node-per-prefix trie backend (reference implementation)."""

    def __init__(self, root: _TrieNode, depth: int, relation_name: str,
                 attribute_order: Tuple[int, ...]) -> None:
        self._root = root
        self.depth = depth
        self.relation_name = relation_name
        self.attribute_order = attribute_order

    @classmethod
    def build(cls, relation: Relation, attribute_order: Sequence[int]) -> "NodeTrieIndex":
        """Build a node trie for ``relation`` in the given column order."""
        order, permuted = _sorted_rows(relation, attribute_order)
        root = _build_node(permuted, 0, relation.arity) if permuted else _TrieNode([], [] if relation.arity > 1 else None)
        return cls(root, relation.arity, relation.name, order)

    @classmethod
    def from_tuples(cls, rows: Sequence[Sequence[object]], name: str = "anon") -> "NodeTrieIndex":
        """Build a node trie directly from already-ordered tuples."""
        rows = [tuple(row) for row in rows]
        if not rows:
            raise ValueError("cannot build a trie from an empty tuple list")
        depth = len(rows[0])
        if any(len(row) != depth for row in rows):
            raise ValueError("all tuples must have the same arity")
        root = _build_node(sorted(set(rows)), 0, depth)
        return cls(root, depth, name, tuple(range(depth)))

    def iterator(self, counter: Optional[object] = None) -> "NodeTrieIterator":
        """Create a fresh linear iterator over this trie."""
        return NodeTrieIterator(self, counter)

    def __len__(self) -> int:
        """Number of root-level keys (distinct values of the first column)."""
        return len(self._root.keys)

    def tuple_count(self) -> int:
        """Total number of tuples stored (root-to-leaf paths)."""

        def count(node: _TrieNode) -> int:
            if node.children is None:
                return len(node.keys)
            return sum(count(child) for child in node.children)

        return count(self._root)

    def __repr__(self) -> str:
        return (
            f"NodeTrieIndex({self.relation_name!r}, depth={self.depth}, "
            f"order={self.attribute_order!r})"
        )


class NodeTrieIterator:
    """A stateful cursor over a :class:`NodeTrieIndex` (reference backend)."""

    __slots__ = ("_index", "_counter", "_nodes", "_positions", "_ended")

    def __init__(self, index: NodeTrieIndex, counter: Optional[object] = None) -> None:
        self._index = index
        self._counter = counter
        self._nodes: List[_TrieNode] = []
        self._positions: List[int] = []
        self._ended: List[bool] = []

    # ---------------------------------------------------------------- depth
    @property
    def depth(self) -> int:
        """Number of currently open levels."""
        return len(self._nodes)

    @property
    def max_depth(self) -> int:
        """Depth of the underlying trie."""
        return self._index.depth

    def _current_node(self) -> _TrieNode:
        if not self._nodes:
            raise RuntimeError("iterator is not positioned at any level; call open() first")
        return self._nodes[-1]

    def _record(self, accesses: int, seeks: int = 0, nexts: int = 0, opens: int = 0) -> None:
        if self._counter is not None:
            self._counter.record_trie(accesses=accesses, seeks=seeks, nexts=nexts, opens=opens)

    # ------------------------------------------------------------ navigation
    def open(self) -> None:
        """Descend to the first key of the child collection of the current key."""
        if not self._nodes:
            child = self._index._root
        else:
            node = self._current_node()
            if self._ended[-1]:
                raise RuntimeError("cannot open: current level is at end")
            if node.children is None:
                raise RuntimeError("cannot open past the last trie level")
            child = node.children[self._positions[-1]]
        self._nodes.append(child)
        self._positions.append(0)
        self._ended.append(len(child.keys) == 0)
        self._record(accesses=1, opens=1)

    def up(self) -> None:
        """Return to the parent level."""
        if not self._nodes:
            raise RuntimeError("cannot go up: iterator is at the root")
        self._nodes.pop()
        self._positions.pop()
        self._ended.pop()
        self._record(accesses=1)

    def key(self) -> object:
        """The key currently pointed at in the open level."""
        if self.at_end():
            raise RuntimeError("iterator is at end; no current key")
        return self._current_node().keys[self._positions[-1]]

    def at_end(self) -> bool:
        """True when the current sibling list is exhausted."""
        if not self._nodes:
            raise RuntimeError("iterator is not positioned at any level")
        return self._ended[-1]

    def next(self) -> None:
        """Advance to the next sibling key (possibly reaching the end)."""
        node = self._current_node()
        if self._ended[-1]:
            raise RuntimeError("cannot advance: iterator already at end")
        self._positions[-1] += 1
        if self._positions[-1] >= len(node.keys):
            self._ended[-1] = True
        self._record(accesses=1, nexts=1)

    def seek(self, value: object) -> None:
        """Advance to the least sibling key ``>= value`` (never moves backwards).

        Gallops exactly like the columnar iterator (exponential probe from
        the current position, then a bisect inside the bracketing window),
        so reference-vs-columnar performance comparisons measure the storage
        layout, not a seek-strategy gap.  The recorded cost keeps the
        abstract ``~log2(span)`` model shared by both backends.
        """
        node = self._current_node()
        if self._ended[-1]:
            raise RuntimeError("cannot seek: iterator already at end")
        position = self._positions[-1]
        keys = node.keys
        hi = len(keys)
        if keys[position] >= value:
            new_position = position
        else:
            low = position
            step = 1
            high = position + 1
            while high < hi and keys[high] < value:
                low = high
                step <<= 1
                high = low + step
            if high > hi:
                high = hi
            new_position = bisect_left(keys, value, low + 1, high)
        self._positions[-1] = new_position
        if new_position >= hi:
            self._ended[-1] = True
        # A binary search over the remaining siblings costs ~log2(n) probes.
        span = max(hi - position, 1)
        self._record(accesses=max(span.bit_length(), 1), seeks=1)

    # -------------------------------------------------------------- utilities
    def current_prefix(self) -> Tuple[object, ...]:
        """The sequence of keys selected on the path from the root."""
        return tuple(
            node.keys[pos]
            for node, pos, ended in zip(self._nodes, self._positions, self._ended)
            if not ended
        )

    def reset(self) -> None:
        """Close all levels, returning the iterator to the root."""
        self._nodes.clear()
        self._positions.clear()
        self._ended.clear()

    def __repr__(self) -> str:
        return (
            f"NodeTrieIterator({self._index.relation_name!r}, depth={self.depth}, "
            f"prefix={self.current_prefix()!r})"
        )
