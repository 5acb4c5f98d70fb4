"""Unified index API: layout + page metadata over one ColumnStore.

Every index (Flood and the seven §7.2 baselines) is:

* ``build(data, workload)`` — choose a physical order (a permutation of
  the rows), materialize a :class:`ColumnStore` in that order, and record
  whatever metadata (pages, cells, trees) the index needs; and
* ``query(q)`` — translate a :class:`Query` into physical
  ``(start, end, exact)`` ranges (timed as the paper's *index time* IT),
  hand them to the store's scan (timed as *scan time* ST), and return a
  :class:`QueryResult`.

An empty ``(0, d)`` table is handled here, once for every index: build
stores it without laying it out, every query scans no range, and its
metadata size is 0.

Table 2's columns fall directly out of this API: SO = n_scanned /
n_matched, TPS = ST / n_scanned, TT = IT + ST.
"""
from __future__ import annotations

import time

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query, QueryResult


class BaseIndex:
    """Abstract layout-over-column-store index."""

    name: str = "base"

    def __init__(self) -> None:
        self.store: ColumnStore | None = None
        self.build_time: float = 0.0
        self.n: int = 0
        self.d: int = 0

    # -- build ---------------------------------------------------------------
    def build(self, data: np.ndarray, workload: list[Query] | None = None) -> "BaseIndex":
        """Lay out ``data`` (n, d); ``workload`` lets workload-aware indexes
        (Flood, Clustered, Z-order dim ordering) tune themselves."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        self.n, self.d = data.shape
        t0 = time.perf_counter()
        if self.n:
            self._build(data, workload or [])
        else:
            self.store = ColumnStore(data)
        self.build_time = time.perf_counter() - t0
        return self

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        raise NotImplementedError

    # -- query ---------------------------------------------------------------
    def query(self, q: Query) -> QueryResult:
        if self.store is None:
            raise RuntimeError("query() before build()")
        if q.d != self.d:
            raise ValueError(f"query dims {q.d} != index dims {self.d}")
        # an empty table has no layout to ask: the generic path scans nothing
        return self._query(q) if self.n else BaseIndex._query(self, q)

    def _query(self, q: Query) -> QueryResult:
        """Answer ``q`` from :meth:`_ranges` (Flood overrides this to time
        its projection and refinement apart)."""
        t0 = time.perf_counter()
        lo, hi = q.ranges.T
        # an empty table, or an empty (inverted or NaN) range on any
        # dimension, matches no row
        ranges, n_cells = self._ranges(q) if self.n and (lo <= hi).all() else ([], 0)
        r = np.array(ranges, dtype=np.int64).reshape(-1, 3)
        index_time = time.perf_counter() - t0
        stats = self.store.scan(r[:, 0], r[:, 1], r[:, 2].astype(bool), q)
        return QueryResult(
            value=stats.value,
            n_matched=stats.n_matched,
            n_scanned=stats.n_scanned,
            index_time=index_time,
            scan_time=stats.scan_time,
            n_cells=n_cells,
            n_exact=stats.n_exact,
            n_ranges=stats.n_ranges,
        )

    def _ranges(self, q: Query) -> tuple[list[tuple[int, int, bool]], int]:
        """Physical (start, end, exact) ranges to scan, plus visited cell
        count; called only on a nonempty table, when every dimension's
        range is nonempty."""
        raise NotImplementedError

    # -- introspection -------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Metadata footprint (excludes the data itself) for Fig 8-style
        totals; 0 for an empty table, which has no layout."""
        return self._index_size_bytes() if self.n else 0

    def _index_size_bytes(self) -> int:
        return 0


def finite_extent(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension min and max of the finite values of ``data`` (n, d),
    both 0 on a dimension that has none. Split points and quantization
    scales come from these, so that ±inf values land in the edge boxes
    instead of making a split point NaN."""
    finite = np.isfinite(data)
    lo = np.min(data, axis=0, initial=np.inf, where=finite)
    hi = np.max(data, axis=0, initial=-np.inf, where=finite)
    none = ~finite.any(axis=0)
    lo[none] = hi[none] = 0.0
    return lo, hi


def selectivity_order(data: np.ndarray, workload: list[Query]) -> np.ndarray:
    """Dims ordered by increasing average selectivity (most selective first).

    Selectivity of a filter is the fraction of points it admits along that
    dimension alone, averaged over the queries that filter it; dims never
    filtered sort last. This is the ordering rule the paper applies to the
    baselines ("ordered dimensions by selectivity") and to Flood's grid
    dims (§4.2 step 2).
    """
    d = data.shape[1]
    sel_sum = np.zeros(d)
    sel_cnt = np.zeros(d)
    sorted_cols = [np.sort(data[:, j]) for j in range(d)]
    n = data.shape[0]
    for q in workload:
        for dim in q.filtered_dims:
            lo, hi = q.ranges[dim]
            frac = (
                np.searchsorted(sorted_cols[dim], hi, side="right")
                - np.searchsorted(sorted_cols[dim], lo, side="left")
            ) / max(1, n)
            sel_sum[dim] += frac
            sel_cnt[dim] += 1
    avg = np.where(sel_cnt > 0, sel_sum / np.maximum(sel_cnt, 1), 2.0)
    # Never-filtered dims get sentinel 2.0 (> any real selectivity) → last.
    return np.argsort(avg, kind="stable")
