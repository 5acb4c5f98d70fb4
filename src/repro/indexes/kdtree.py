"""k-d tree (§7.2(7), Appendix A).

Recursively partitions at the median value of one dimension, cycling
dimensions round-robin in order of decreasing selectivity, until pages
fall below ``page_size`` points. A dimension whose remaining points are
all equal (or all NaN) is dropped from further partitioning; medians are
taken over the non-NaN values, and NaN rows go right. Leaf pages are
contiguous, and each keeps the closed box its splits cut out of
(-inf, +inf)^d; a query scans the leaves whose box meets the rectangle.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.indexes.base import PagedIndex, halfway, selectivity_order


class KDTree(PagedIndex):
    name = "kdtree"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        self.dim_cycle = [int(x) for x in selectivity_order(data, workload)]
        parts, lo, hi = zip(*self._leaves(data, np.arange(self.n), 0, np.full(self.d, -np.inf),
                                          np.full(self.d, np.inf)))
        self._lay_out(data, list(parts))
        self.lo, self.hi = np.array(lo), np.array(hi)

    def _leaves(self, data: np.ndarray, idx: np.ndarray, depth: int, lo: np.ndarray,
                hi: np.ndarray):
        """The leaves under the node of rows ``idx`` and box ``[lo, hi]``,
        in order, as (rows, lo, hi)."""
        cut = self._cut(data, idx, depth) if idx.size > self.page_size else None
        if cut is None:
            yield idx, lo, hi
            return
        dim, med, left = cut
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[dim] = right_lo[dim] = med
        yield from self._leaves(data, idx[left], depth + 1, lo, left_hi)
        yield from self._leaves(data, idx[~left], depth + 1, right_lo, hi)

    def _cut(self, data: np.ndarray, idx: np.ndarray,
             depth: int) -> tuple[int, float, np.ndarray] | None:
        """The next usable dimension in the selectivity cycle, its median
        over the non-NaN values, and the mask of the rows that go left:
        those < median, or <= median when the split falls on ties. None
        when no dimension splits the rows."""
        for probe in range(len(self.dim_cycle)):
            dim = self.dim_cycle[(depth + probe) % len(self.dim_cycle)]
            vals = data[idx, dim]
            known = vals[~np.isnan(vals)]
            if not known.size:
                continue
            # np.median's two middle values and their mean, without its
            # overflow: between −inf and +inf there is none, as for np.median
            k = known.size
            a, b = np.partition(known, [(k - 1) // 2, k // 2])[[(k - 1) // 2, k // 2]]
            if a == -np.inf and b == np.inf:
                continue
            med = float(halfway(a, b))
            left = vals < med
            if left.any() and not left.all():
                return dim, med, left
            # all-equal (or median at min): try splitting at <= median
            left = vals <= med
            if left.any() and not left.all():
                return dim, med, left
        return None
