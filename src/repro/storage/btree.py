"""A B+tree secondary index.

Maps column keys to :class:`~repro.storage.heap.RecordId` lists (a key
may be duplicated).  Leaves are chained for range scans.  The root
node's separator keys double as the coarse data-distribution info that
XPRS's range partitioning consults ("we try to find a balanced range
partition with data distribution information in the system catalog or
in the root node of an index").

An *unclustered* index on ``a`` is the paper's vehicle for IO-bound
tasks: each match costs one (random) heap page io.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from ..errors import BTreeError
from .heap import RecordId

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list[list[RecordId]] = []
        self.next: "_Leaf | None" = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BTreeIndex:
    """A B+tree from keys to lists of record ids.

    Args:
        order: maximum number of keys per node (fan-out - 1).
    """

    def __init__(self, *, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise BTreeError("B+tree order must be >= 3")
        self.order = order
        self._root: _Node = _Leaf()
        self._n_entries = 0

    # -- public stats -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of (key, record-id) entries."""
        return self._n_entries

    def root_separators(self) -> tuple:
        """The root's separator keys — coarse distribution info.

        For a leaf root this is its key list; range partitioning uses
        these to cut balanced intervals without a full scan.
        """
        return tuple(self._root.keys)

    # -- insertion ------------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> None:
        """Add one entry; duplicates of ``key`` accumulate."""
        if key is None:
            raise BTreeError("cannot index NULL keys")
        split = self._insert(self._root, key, rid)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: _Node, key: Any, rid: RecordId):
        if isinstance(node, _Leaf):
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].append(rid)
                self._n_entries += 1
                return None
            node.keys.insert(i, key)
            node.values.insert(i, [rid])
            self._n_entries += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Internal)
        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, rid)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- lookup ---------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        assert isinstance(node, _Leaf)
        return node

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, RecordId]]:
        """Yield ``(key, rid)`` in key order over [low, high].

        Either bound may be None (open).
        """
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            i = 0
        else:
            leaf = self._find_leaf(low)
            if low_inclusive:
                i = bisect.bisect_left(leaf.keys, low)
            else:
                i = bisect.bisect_right(leaf.keys, low)
        while leaf is not None:
            while i < len(leaf.keys):
                key = leaf.keys[i]
                if high is not None:
                    if high_inclusive and key > high:
                        return
                    if not high_inclusive and key >= high:
                        return
                for rid in leaf.values[i]:
                    yield key, rid
                i += 1
            leaf = leaf.next
            i = 0

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        return node

    def keys(self) -> Iterator[Any]:
        """All distinct keys in ascending order."""
        leaf: _Leaf | None = self._leftmost_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    def check_invariants(self) -> None:
        """Verify structural invariants; raises BTreeError on violation.

        Used by property-based tests: key ordering within and across
        leaves, node occupancy bounds, and uniform leaf depth.
        """
        depths: set[int] = set()
        self._check(self._root, None, None, 1, depths, is_root=True)
        if len(depths) != 1:
            raise BTreeError(f"leaves at mixed depths: {sorted(depths)}")
        flat = list(self.keys())
        if flat != sorted(flat):
            raise BTreeError("leaf chain is not globally sorted")

    def _check(self, node, low, high, depth, depths, *, is_root):
        if node.keys != sorted(node.keys):
            raise BTreeError("node keys out of order")
        if not is_root and len(node.keys) > self.order:
            raise BTreeError("node overflow")
        for key in node.keys:
            if low is not None and key < low:
                raise BTreeError("key below subtree lower bound")
            if high is not None and key >= high:
                raise BTreeError("key above subtree upper bound")
        if isinstance(node, _Leaf):
            depths.add(depth)
            if len(node.keys) != len(node.values):
                raise BTreeError("leaf keys/values length mismatch")
            return
        if len(node.children) != len(node.keys) + 1:
            raise BTreeError("internal fan-out mismatch")
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            self._check(child, bounds[i], bounds[i + 1], depth + 1, depths, is_root=False)
