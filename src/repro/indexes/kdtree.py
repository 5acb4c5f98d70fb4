"""k-d tree (§7.2(7), Appendix A).

Recursively partitions at the median value of one dimension, cycling
dimensions round-robin in order of decreasing selectivity, until pages
fall below ``page_size`` points. A dimension whose remaining points are
all equal is dropped from further partitioning. Leaf pages are
contiguous; nodes keep the split dim/value and the physical range.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.indexes.base import BaseIndex, selectivity_order


class _KDNode:
    __slots__ = ("start", "end", "dim", "val", "left", "right")

    def __init__(self, start, end):
        self.start, self.end = start, end
        self.dim = -1
        self.val = 0.0
        self.left = self.right = None


class KDTree(BaseIndex):
    name = "kdtree"

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size
        self.root: _KDNode | None = None
        self.n_nodes = 0

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        self.dim_cycle = [int(x) for x in (
            selectivity_order(data, workload) if workload else np.arange(self.d)
        )]
        self._perm_parts: list[np.ndarray] = []
        self._data_ref = data
        self.n_nodes = 0
        self.root = self._split(np.arange(self.n), 0)
        perm = np.concatenate(self._perm_parts)
        self.store = ColumnStore(data[perm])
        del self._perm_parts, self._data_ref

    def _split(self, idx: np.ndarray, depth: int) -> _KDNode:
        self.n_nodes += 1
        start = sum(p.size for p in self._perm_parts)
        node = _KDNode(start, start + idx.size)
        if idx.size <= self.page_size:
            self._perm_parts.append(idx)
            return node
        # pick the next usable dimension in the selectivity cycle
        for probe in range(len(self.dim_cycle)):
            dim = self.dim_cycle[(depth + probe) % len(self.dim_cycle)]
            vals = self._data_ref[idx, dim]
            med = float(np.median(vals))
            left_mask = vals < med
            if left_mask.any() and not left_mask.all():
                break
            # all-equal (or median at min): try splitting at <= median
            left_mask = vals <= med
            if left_mask.any() and not left_mask.all():
                break
        else:
            self._perm_parts.append(idx)
            return node
        node.dim, node.val = dim, med
        node.left = self._split(idx[left_mask], depth + 1)
        node.right = self._split(idx[~left_mask], depth + 1)
        return node

    def _ranges(self, q: Query):
        ranges: list[tuple[int, int, bool]] = []
        n_pages = 0
        stack = [self.root]
        qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
        while stack:
            node = stack.pop()
            if node.left is None:
                if node.end > node.start:
                    ranges.append((node.start, node.end, False))
                    n_pages += 1
                continue
            # left child holds values < val (or <= when split fell on ties);
            # visit a side only if the query box can reach it
            if qlo[node.dim] <= node.val:
                stack.append(node.left)
            if qhi[node.dim] >= node.val:
                stack.append(node.right)
        ranges.sort()
        return ranges, n_pages

    def _index_size_bytes(self) -> int:
        return int(self.n_nodes * 40)  # 2 ptrs + dim + val + range
