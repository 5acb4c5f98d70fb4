"""UB-tree (§7.2(5), Appendix A).

Same Z-values as the Z-order index, but pages store their minimum
Z-value, and the scan can *skip ahead*: when it reaches a Z-value outside
the query rectangle it computes the next Z-value inside the rectangle
(BIGMIN, Tropf & Herzog) and jumps to the page containing it — "the
Z-order curve might enter and exit the query rectangle many times".
"""
from __future__ import annotations

import numpy as np

from repro.core.bigmin import bigmin, in_rect
from repro.core.query import Query
from repro.indexes.zorder import ZOrderIndex


class UBTree(ZOrderIndex):
    name = "ubtree"

    def _ranges(self, q: Query):
        zmin, zmax = self._query_zrange(q)
        s = int(np.searchsorted(self.zvals, zmin, side="left"))
        e = int(np.searchsorted(self.zvals, zmax, side="right"))
        ps = self.page_size
        d, bits = self.d, self.bits
        starts, ends = [], []
        pos = s
        while pos < e:
            page = pos // ps
            p_end = min((page + 1) * ps, e)
            starts.append(pos)
            ends.append(p_end)
            if p_end >= e:
                break
            # Skip ahead: from the first Z-value after this page, find the
            # next Z-value that re-enters the query rectangle and jump to
            # the page containing it (via the per-page minimum Z-values —
            # here directly by binary search on the sorted Z column).
            z_next = int(self.zvals[p_end])
            if in_rect(z_next, zmin, zmax, d, bits):
                pos = p_end
                continue
            nz = bigmin(z_next, zmin, zmax, d, bits)
            if nz < 0 or nz > zmax:
                break
            pos = int(np.searchsorted(self.zvals, nz, side="left"))
            if pos < p_end:  # safety: never move backwards
                pos = p_end
        n_pages = len(starts)
        return (np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64),
                np.zeros(n_pages, dtype=bool), n_pages)
