"""Z-Order index (§7.2(4), Appendix A).

Points are ordered by 64-bit Z-value (⌊64/d⌋ bits per dimension,
interleaved in selectivity order — the most selective dimension
contributes the least significant bits of each round). Contiguous chunks
form pages; each page keeps per-dimension min/max. A query binary-searches
the Z-values of the rectangle's corners and scans every page between them
whose min/max box intersects the rectangle.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.bigmin import interleave, quantize
from repro.core.query import Query
from repro.indexes.base import BaseIndex, finite_extent, selectivity_order


class ZOrderIndex(BaseIndex):
    name = "zorder"

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size

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
        self.zvals_unsorted = interleave(coords[:, self.dim_order], self.bits)
        order = np.argsort(self.zvals_unsorted, kind="stable")
        self.zvals = self.zvals_unsorted[order]
        self.store = ColumnStore(data[order])
        ps = self.page_size
        n_pages = (self.n + ps - 1) // ps
        self.page_min = np.empty((n_pages, d))
        self.page_max = np.empty((n_pages, d))
        m = self.store.matrix()
        for p in range(n_pages):
            s, e = p * ps, min((p + 1) * ps, self.n)
            self.page_min[p] = m[s:e].min(axis=0)
            self.page_max[p] = m[s:e].max(axis=0)

    def _query_zrange(self, q: Query) -> tuple[int, int]:
        lo = np.where(np.isfinite(q.ranges[:, 0]), q.ranges[:, 0], self.mins)
        hi = np.where(np.isfinite(q.ranges[:, 1]), q.ranges[:, 1], self.maxs)
        lo = np.clip(lo, self.mins, self.maxs)
        hi = np.clip(hi, self.mins, self.maxs)
        qlo = quantize(lo.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
        qhi = quantize(hi.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
        zmin = int(interleave(qlo[self.dim_order].reshape(1, -1), self.bits)[0])
        zmax = int(interleave(qhi[self.dim_order].reshape(1, -1), self.bits)[0])
        return zmin, zmax

    def _ranges(self, q: Query):
        zmin, zmax = self._query_zrange(q)
        s = int(np.searchsorted(self.zvals, zmin, side="left"))
        e = int(np.searchsorted(self.zvals, zmax, side="right"))
        ps = self.page_size
        p0, p1 = s // ps, (max(e, s + 1) - 1) // ps
        ranges = []
        n_pages = 0
        fdims = q.filtered_dims
        for p in range(p0, p1 + 1):
            ok = True
            for dim in fdims:
                lo, hi = q.ranges[dim]
                if self.page_min[p, dim] > hi or self.page_max[p, dim] < lo:
                    ok = False
                    break
            if not ok:
                continue
            n_pages += 1
            rs = max(p * ps, s)
            re = min((p + 1) * ps, e, self.n)
            if re > rs:
                ranges.append((rs, re, False))
        return ranges, n_pages

    def _index_size_bytes(self) -> int:
        return int(self.zvals.nbytes + self.page_min.nbytes + self.page_max.nbytes)
