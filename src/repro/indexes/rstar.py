"""R-tree baseline (§7.2(8)).

The paper benchmarks libspatialindex's R*-tree, bulk loaded for reads.
libspatialindex is unavailable offline, so this is a Sort-Tile-Recursive
(STR) bulk-loaded R-tree — the standard read-optimized bulk load (and
what libspatialindex's bulk loader implements): sort by the first
dimension, slice into tiles, recursively tile the remaining dimensions,
yielding leaf pages with compact minimum bounding rectangles (MBRs).
A query scans the leaves whose MBR meets the rectangle. The upper levels
of an R-tree would only find the same leaves faster: an internal node's
MBR holds its leaves' MBRs, so a descent reaches exactly those leaves.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.indexes.base import PagedIndex, page_mbrs, selectivity_order


class RStarTree(PagedIndex):
    name = "rstar"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        self._tile_dims = [int(x) for x in selectivity_order(data, workload)]
        perm = self._str_order(np.arange(self.n), data, 0)
        pages = np.split(perm, np.arange(self.page_size, self.n, self.page_size))
        self.lo, self.hi = page_mbrs(self._lay_out(data, pages), self.starts)

    def _str_order(self, idx: np.ndarray, data: np.ndarray, depth: int) -> np.ndarray:
        """Recursive STR tiling over the selectivity-ordered dimensions."""
        if idx.size <= self.page_size or depth >= self.d:
            return idx
        dim = self._tile_dims[depth]
        order = idx[np.argsort(data[idx, dim], kind="stable")]
        n_pages = (idx.size + self.page_size - 1) // self.page_size
        rem = self.d - depth
        n_slices = max(1, int(np.ceil(n_pages ** (1 / rem))))
        # whole pages per slice, so no leaf page straddles two tiles (STR,
        # Leutenegger et al., ICDE 1997)
        slice_sz = -(-n_pages // n_slices) * self.page_size
        parts = [
            self._str_order(order[s: s + slice_sz], data, depth + 1)
            for s in range(0, idx.size, slice_sz)
        ]
        return np.concatenate(parts)
