"""Hyperoctree (§7.2(6), Appendix A).

Recursively halves space in every dimension at once (2^d hyperoctants)
until a node holds fewer than ``page_size`` points. Points within a leaf
page are contiguous; pages are laid out by an in-order traversal. Each
leaf keeps its half-open box, cut to the boxes of its ancestors, so a
query scans the leaves whose box meets the rectangle, which are the
leaves a walk from the root would reach.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.indexes.base import PagedIndex, finite_extent

#: a node this deep is a leaf, however many points it holds
MAX_DEPTH = 24


class Hyperoctree(PagedIndex):
    name = "hyperoctree"
    half_open = True

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        # boxes are half-open: the top edge is the next float above the
        # max; they bound the non-NaN values, and NaN rows go low
        lo = np.fmin.reduce(data, axis=0)
        hi = np.nextafter(np.fmax.reduce(data, axis=0), np.inf)
        # midpoints split the finite values: box edges are clamped to
        # them first, so ±inf rows stay in the edge octants
        flo, fhi = finite_extent(data)
        self._finite = (flo, np.nextafter(fhi, np.inf))
        self._perm_parts: list[np.ndarray] = []
        self._boxes: list[tuple[np.ndarray, np.ndarray]] = []
        self._data_ref = data
        self._split(np.arange(self.n), lo, hi, lo, hi, depth=0)
        self._lay_out(data, self._perm_parts)
        self.lo, self.hi = map(np.array, zip(*self._boxes))
        del self._perm_parts, self._boxes, self._data_ref

    def _split(self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               box_lo: np.ndarray, box_hi: np.ndarray, depth: int) -> None:
        """Split the node of rows ``idx`` and box ``[lo, hi)``; ``box_lo``
        and ``box_hi`` cut that box to its ancestors' boxes (a midpoint of
        clamped edges can fall outside a box that holds only ±inf)."""
        if idx.size <= self.page_size or depth >= MAX_DEPTH:
            self._perm_parts.append(idx)
            self._boxes.append((box_lo, box_hi))
            return
        flo, fhi = self._finite
        mid = (np.clip(lo, flo, fhi) + np.clip(hi, flo, fhi)) / 2
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
            self._split(idx_sorted[s:e], clo, chi, np.maximum(box_lo, clo),
                        np.minimum(box_hi, chi), depth + 1)
