"""R-tree baseline (§7.2(8)).

The paper benchmarks libspatialindex's R*-tree, bulk loaded for reads.
libspatialindex is unavailable offline, so this is a Sort-Tile-Recursive
(STR) bulk-loaded R-tree — the standard read-optimized bulk load (and
what libspatialindex's bulk loader implements): sort by the first
dimension, slice into tiles, recursively tile the remaining dimensions,
yielding leaf pages with compact minimum bounding rectangles (MBRs).
Internal nodes group ``FANOUT`` children bottom-up. Queries descend
nodes whose MBRs intersect the query rectangle.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.indexes.base import BaseIndex, selectivity_order

#: children per internal node
FANOUT = 16


class RStarTree(BaseIndex):
    name = "rstar"

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        sel = selectivity_order(data, workload) if workload else np.arange(self.d)
        self._tile_dims = [int(x) for x in sel]
        perm = self._str_order(np.arange(self.n), data, 0)
        self.store = ColumnStore(data[perm])
        m = self.store.matrix()
        ps = self.page_size
        n_leaves = (self.n + ps - 1) // ps
        leaf_lo = np.empty((n_leaves, self.d))
        leaf_hi = np.empty((n_leaves, self.d))
        leaf_rng = np.empty((n_leaves, 2), dtype=np.int64)
        for p in range(n_leaves):
            s, e = p * ps, min((p + 1) * ps, self.n)
            leaf_lo[p], leaf_hi[p] = m[s:e].min(axis=0), m[s:e].max(axis=0)
            leaf_rng[p] = (s, e)
        # bottom-up levels of MBRs; level[k] groups FANOUT nodes of level[k-1]
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (leaf_lo, leaf_hi, leaf_rng)
        ]
        while self.levels[-1][0].shape[0] > 1:
            lo, hi, _ = self.levels[-1]
            k = lo.shape[0]
            f = FANOUT
            ng = (k + f - 1) // f
            glo = np.empty((ng, self.d))
            ghi = np.empty((ng, self.d))
            grng = np.empty((ng, 2), dtype=np.int64)  # child index range
            for g in range(ng):
                s, e = g * f, min((g + 1) * f, k)
                glo[g], ghi[g] = lo[s:e].min(axis=0), hi[s:e].max(axis=0)
                grng[g] = (s, e)
            self.levels.append((glo, ghi, grng))

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

    def _ranges(self, q: Query):
        qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
        # descend from the top level
        cand = np.arange(self.levels[-1][0].shape[0])
        for lo, hi, rng in reversed(self.levels[1:]):
            hits = cand[
                ~((lo[cand] > qhi).any(axis=1) | (hi[cand] < qlo).any(axis=1))
            ]
            nxt: list[int] = []
            for g in hits:
                nxt.extend(range(rng[g, 0], rng[g, 1]))
            cand = np.asarray(nxt, dtype=np.int64)
            if cand.size == 0:
                return [], 0
        lo, hi, rng = self.levels[0]
        hits = cand[~((lo[cand] > qhi).any(axis=1) | (hi[cand] < qlo).any(axis=1))]
        hits = np.sort(hits)
        ranges = [(int(rng[p, 0]), int(rng[p, 1]), False) for p in hits]
        return ranges, int(hits.size)

    def _index_size_bytes(self) -> int:
        return int(sum(lo.nbytes + hi.nbytes + rng.nbytes for lo, hi, rng in self.levels))
