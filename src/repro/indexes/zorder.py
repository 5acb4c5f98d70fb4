"""Z-Order index (§7.2(4), Appendix A).

Points are ordered by 64-bit Z-value (⌊64/d⌋ bits per dimension,
interleaved in selectivity order — the most selective dimension
contributes the least significant bits of each round). Contiguous chunks
form pages; each page keeps its minimum bounding rectangle (the min and
max of its non-NaN values). A query binary-searches the Z-values of the
rectangle's corners and scans, between them, every page whose box meets
the rectangle.
"""
from __future__ import annotations

import numpy as np

from repro.core.bigmin import interleave, quantize
from repro.core.query import Query
from repro.indexes.base import (PagedIndex, finite_extent, page_hits, page_mbrs,
                                selectivity_order)


class ZOrderIndex(PagedIndex):
    name = "zorder"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        d = self.d
        self.bits = min(63 // d, 16)
        # dim_order[0] = most selective → assign it the last (least
        # significant) interleave slot per Appendix A.
        sel = selectivity_order(data, workload) if workload else np.arange(d)
        self.dim_order = np.asarray(sel[::-1])  # most selective last = LSB
        # the grid spans the finite values; ±inf quantize to its edges
        self.mins, self.maxs = finite_extent(data)
        coords = quantize(data, self.mins, self.maxs, self.bits)
        zvals = interleave(coords[:, self.dim_order], self.bits)
        order = np.argsort(zvals, kind="stable")
        self.zvals = zvals[order]
        self._lay_out(data, np.split(order, np.arange(self.page_size, self.n, self.page_size)))
        self.lo, self.hi = page_mbrs(self.store.matrix(), self.starts)

    def _query_zrange(self, q: Query) -> tuple[int, int]:
        lo = np.where(np.isfinite(q.ranges[:, 0]), q.ranges[:, 0], self.mins)
        hi = np.where(np.isfinite(q.ranges[:, 1]), q.ranges[:, 1], self.maxs)
        lo = np.clip(lo, self.mins, self.maxs)
        hi = np.clip(hi, self.mins, self.maxs)
        qlo = quantize(lo.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
        qhi = quantize(hi.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
        # an open upper side reaches the top coordinate, where NaN and +inf
        # rows sit even when a dimension's finite values are all one value
        qhi[q.ranges[:, 1] == np.inf] = 2**self.bits - 1
        zmin = int(interleave(qlo[self.dim_order].reshape(1, -1), self.bits)[0])
        zmax = int(interleave(qhi[self.dim_order].reshape(1, -1), self.bits)[0])
        return zmin, zmax

    def _ranges(self, q: Query):
        zmin, zmax = self._query_zrange(q)
        s = int(np.searchsorted(self.zvals, zmin, side="left"))
        e = int(np.searchsorted(self.zvals, zmax, side="right"))
        ps = self.page_size
        p0, p1 = s // ps, (max(e, s + 1) - 1) // ps
        hit = p0 + page_hits(self.lo[p0:p1 + 1], self.hi[p0:p1 + 1], q, self.half_open)
        starts = np.maximum(self.starts[hit], s)
        ends = np.minimum(self.ends[hit], e)
        return starts, ends, np.zeros(hit.size, dtype=bool), hit.size

    def _index_size_bytes(self) -> int:
        return super()._index_size_bytes() + self.zvals.nbytes
