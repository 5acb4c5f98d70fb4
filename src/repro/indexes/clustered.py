"""Clustered single-dimensional index (§7.2(2)).

Points are sorted by the workload's most selective dimension and a
two-layer linear RMI (the "learned B-tree" of [23]) locates range
endpoints on that column. Queries that do not filter the clustered
dimension degrade to a full scan, exactly as in the paper.

The located range is *exact in the clustered dimension*, so the scan
skips that dimension's check (``met_dim``); it is an exact range for the
store (no per-point checks) only when the query filters nothing else.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.core.rmi import RMI
from repro.indexes.base import BaseIndex, selectivity_order

#: leaf models of the RMI over the clustered dimension
N_EXPERTS = 256


class ClusteredIndex(BaseIndex):
    name = "clustered"

    def __init__(self, sort_dim: int | None = None):
        super().__init__()
        self.sort_dim = sort_dim
        self.rmi: RMI | None = None

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        if self.sort_dim is None:
            self.sort_dim = int(selectivity_order(data, workload)[0])
        order = np.argsort(data[:, self.sort_dim], kind="stable")
        self.store = ColumnStore(data[order])
        self.rmi = RMI(self.store.cols[self.sort_dim], n_experts=N_EXPERTS)

    @property
    def met_dim(self) -> int | None:
        return self.sort_dim

    def _ranges(self, q: Query):
        sd = self.sort_dim
        if not q.filters(sd):
            return np.array([0]), np.array([self.n]), np.array([False]), 0
        s, e = self.rmi.lookup_range(*q.ranges[sd])
        # exact iff the clustered dim is the only filtered dim
        exact = q.filtered_dims.size == 1
        return np.array([s]), np.array([e]), np.array([exact]), 1

    def _index_size_bytes(self) -> int:
        r = self.rmi
        return int(r._slope.nbytes + r._icept.nbytes + r._err.nbytes)
