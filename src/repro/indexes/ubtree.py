"""UB-tree (§7.2(5), Appendix A).

Same Z-values and pages as the Z-order index, but no page boxes: the scan
*skips ahead* instead. When it leaves a page, it computes the next Z-value
inside the query rectangle (BIGMIN, Tropf & Herzog) and jumps to the first
row holding it — "the Z-order curve might enter and exit the query
rectangle many times". One array BIGMIN over every page start of the query
gives all the jumps at once.
"""
from __future__ import annotations

import numpy as np

from repro.core.bigmin import bigmin
from repro.core.query import Query
from repro.indexes.base import NO_RANGES
from repro.indexes.zorder import ZOrderIndex


class UBTree(ZOrderIndex):
    name = "ubtree"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        self._lay_out_z(data, workload)

    def _ranges(self, q: Query):
        zmin, zmax = self._query_zrange(q)
        s = int(np.searchsorted(self.zvals, zmin, side="left"))
        e = int(np.searchsorted(self.zvals, zmax, side="right"))
        if s >= e:
            return NO_RANGES
        ps = self.page_size
        p0, p1 = s // ps, (e - 1) // ps
        # leaving page k-1 at row k*ps, the scan lands at the first row
        # holding the next Z-value in the rectangle, never behind k*ps; a
        # page's first Z-value is at most zmax, which is in the rectangle,
        # so there always is one
        first = np.arange(p0 + 1, p1 + 1, dtype=np.int64) * ps
        nz = bigmin(self.zvals[first], zmin, zmax, self.d, self.bits)
        land = np.maximum(first, np.searchsorted(self.zvals, nz, side="left"))
        # a landing exactly on the next page's first row scans that page
        # whole, and the scan then leaves from that page's end, not from
        # its landing: within a run of such pages every other one carries
        f = land == first + ps
        i = np.arange(f.size)
        run = np.maximum.accumulate(np.where(f & ~np.r_[False, f[:-1]], i, 0))
        carry = np.r_[False, (f & ((i - run) % 2 == 0))[:-1]]
        starts = np.r_[s, np.where(carry, first, land)]
        ends = np.minimum(np.arange(p0 + 1, p1 + 2, dtype=np.int64) * ps, e)
        keep = starts < ends
        starts, ends = starts[keep], ends[keep]
        return starts, ends, np.zeros(starts.size, dtype=bool), starts.size

    def _index_size_bytes(self) -> int:
        return self.starts.nbytes + self.ends.nbytes + self.zvals.nbytes
