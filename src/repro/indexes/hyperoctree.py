"""Hyperoctree (§7.2(6), Appendix A).

Recursively halves space in every dimension at once (2^d hyperoctants)
until a node holds fewer than ``page_size`` points. Points within a leaf
page are contiguous; pages are laid out by an in-order traversal. Each
node keeps the min/max box and physical range of its points; a query
walks the tree collecting leaves whose boxes intersect the rectangle.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.indexes.base import BaseIndex

#: a node this deep is a leaf, however many points it holds
MAX_DEPTH = 24


class _Node:
    __slots__ = ("start", "end", "lo", "hi", "children")

    def __init__(self, start, end, lo, hi):
        self.start, self.end = start, end
        self.lo, self.hi = lo, hi  # node's spatial half-open box
        self.children: list["_Node"] = []


class Hyperoctree(BaseIndex):
    name = "hyperoctree"

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size
        self.root: _Node | None = None
        self.n_nodes = 0

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        idx = np.arange(self.n)
        lo = data.min(axis=0)
        hi = data.max(axis=0) + 1e-9
        self._perm_parts: list[np.ndarray] = []
        self._data_ref = data
        self.n_nodes = 0
        self.root = self._split(idx, lo, hi, depth=0)
        perm = np.concatenate(self._perm_parts) if self._perm_parts else idx
        self.store = ColumnStore(data[perm])
        del self._perm_parts, self._data_ref

    def _split(self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray, depth: int) -> _Node:
        self.n_nodes += 1
        start = sum(p.size for p in self._perm_parts)
        node = _Node(start, start + idx.size, lo.copy(), hi.copy())
        if idx.size <= self.page_size or depth >= MAX_DEPTH:
            self._perm_parts.append(idx)
            return node
        mid = (lo + hi) / 2
        pts = self._data_ref[idx]
        # hyperoctant code: bit j set iff point >= mid in dim j
        codes = ((pts >= mid) << np.arange(self.d)).sum(axis=1)
        order = np.argsort(codes, kind="stable")
        codes_sorted = codes[order]
        idx_sorted = idx[order]
        bounds = np.searchsorted(codes_sorted, np.arange(2**self.d + 1))
        for c in range(2**self.d):
            s, e = bounds[c], bounds[c + 1]
            if s == e:
                continue
            clo = np.where((c >> np.arange(self.d)) & 1, mid, lo)
            chi = np.where((c >> np.arange(self.d)) & 1, hi, mid)
            node.children.append(self._split(idx_sorted[s:e], clo, chi, depth + 1))
        return node

    def _ranges(self, q: Query):
        # boxes are half-open, but a box whose top is +inf holds the +inf
        # values: a lower bound of +inf cuts at the largest float instead
        qlo = np.minimum(q.ranges[:, 0], np.finfo(np.float64).max)
        qhi = q.ranges[:, 1]
        leaves: list[_Node] = []
        n_pages = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if (node.lo > qhi).any() or (node.hi <= qlo).any():
                continue
            if not node.children:
                leaves.append(node)
                n_pages += 1
            else:
                stack.extend(node.children)
        leaves.sort(key=lambda nd: nd.start)
        ranges = [(nd.start, nd.end, False) for nd in leaves if nd.end > nd.start]
        return ranges, n_pages

    def index_size_bytes(self) -> int:
        # start/end/lo/hi per node: 2 ints + 2 d-vectors of float64
        return int(self.n_nodes * (16 + 16 * self.d))
