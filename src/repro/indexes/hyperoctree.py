"""Hyperoctree (§7.2(6), Appendix A).

Recursively halves space in every dimension at once (2^d hyperoctants)
until a node holds fewer than ``page_size`` points. Points within a leaf
page are contiguous; pages are laid out by an in-order traversal. Each
leaf keeps the closed box holding the floats of its half-open box, cut to
its ancestors' boxes, so a query scans the leaves whose box meets the
rectangle, which are the leaves a walk from the root would reach.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.indexes.base import PagedIndex, closed_top, halving_root, midpoint

#: a node this deep is a leaf, however many points it holds
MAX_DEPTH = 24


class Hyperoctree(PagedIndex):
    name = "hyperoctree"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        # NaN rows go low
        lo, hi, finite = halving_root(data)
        parts, box_lo, box_hi = zip(*self._leaves(data, finite, np.arange(self.n), lo, hi,
                                                  lo, hi, depth=0))
        self._lay_out(data, list(parts))
        self.lo, self.hi = np.array(box_lo), closed_top(np.array(box_hi))

    def _leaves(self, data: np.ndarray, finite: tuple[np.ndarray, np.ndarray], idx: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray,
                depth: int):
        """The leaves under the node of rows ``idx`` and box ``[lo, hi)``,
        in order, as (rows, box_lo, box_hi): ``box_lo`` and ``box_hi`` cut
        that box to its ancestors' boxes (a midpoint of edges clamped to
        the ``finite`` extent can fall outside a box that holds only ±inf)."""
        if idx.size <= self.page_size or depth >= MAX_DEPTH:
            yield idx, box_lo, box_hi
            return
        mid = midpoint(lo, hi, finite)
        pts = data[idx]
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
            yield from self._leaves(data, finite, idx_sorted[s:e], clo, chi,
                                    np.maximum(box_lo, clo), np.minimum(box_hi, chi), depth + 1)
