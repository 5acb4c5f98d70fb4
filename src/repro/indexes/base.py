"""Unified index API: layout + page metadata over one ColumnStore.

Every index (Flood and the seven §7.2 baselines) is:

* ``build(data, workload)`` — choose a physical order (a permutation of
  the rows), materialize a :class:`ColumnStore` in that order, and record
  whatever metadata (pages, cells, trees) the index needs; and
* ``query(q)`` — translate a :class:`Query` into arrays of physical
  ``(starts, ends, exact)`` ranges (timed as the paper's *index time* IT)
  and hand them to the store's scan, which returns the query's
  :class:`QueryResult` with its counts and *scan time* ST; the index sets
  its own fields, IT and the visited cell count, on that record.

The paged baselines (k-d tree, hyperoctree, R-tree, Grid File, Z-order
and the UB-tree) are :class:`PagedIndex` subclasses: however they cut
space into pages, they store the pages as flat arrays of closed boxes,
and one vectorized box test, :func:`page_hits`, finds the pages a query
rectangle meets. The UB-tree alone keeps no boxes: one array BIGMIN over
its page starts finds where its scan skips to.

An empty ``(0, d)`` table is handled here, once for every index: build
stores it without laying it out, every query scans no range, and its
metadata size is 0.

Table 2's columns fall directly out of this API: SO = n_scanned /
n_matched, TPS = ST / n_scanned, TT = IT + ST.
"""
from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query, QueryResult


class BaseIndex:
    """Abstract layout-over-column-store index."""

    name: str = "base"
    #: a dimension that :meth:`_ranges` locates exactly, so every row of its
    #: ranges already meets that dimension's filter and the scan skips it
    met_dim: int | None = None

    def __init__(self) -> None:
        self.store: ColumnStore | None = None
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
        if self.n:
            self._build(data, workload or [])
        else:
            self.store = ColumnStore(data)
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
        # an empty table, or an empty query, matches no row
        starts, ends, exact, n_cells = self._ranges(q) if self.n and not q.empty else NO_RANGES
        index_time = time.perf_counter() - t0
        r = self.store.scan(starts, ends, exact, q, self.met_dim)
        r.index_time, r.n_cells = index_time, n_cells
        return r

    def _ranges(self, q: Query) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Physical ranges to scan, as ``starts`` and ``ends`` (int64) and
        ``exact`` (bool) arrays, plus the visited cell count; called only
        on a nonempty table, when every dimension's range is nonempty."""
        raise NotImplementedError

    # -- introspection -------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Metadata footprint (excludes the data itself) for Fig 8-style
        totals; 0 for an empty table, which has no layout."""
        return self._index_size_bytes() if self.n else 0

    def _index_size_bytes(self) -> int:
        return 0


#: the largest float64, and half of it
_MAX = float(np.finfo(np.float64).max)
_HALF_MAX = _MAX / 2

#: the ranges of a query that scans nothing
NO_RANGES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0, dtype=bool), 0)


class PagedIndex(BaseIndex):
    """An index whose pages are contiguous row ranges, each with a box.

    ``_build`` leaves one entry per nonempty page, in physical order, in
    ``starts`` and ``ends`` (int64) and in the ``(pages, d)`` float arrays
    ``lo`` and ``hi``: every non-NaN value of page ``k`` lies in the closed
    box ``[lo[k], hi[k]]``. A query scans, as inexact ranges, the pages
    whose box meets its rectangle.
    """

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size

    def _lay_out(self, data: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
        """Store the rows of ``data`` page by page, page ``k`` holding the
        rows ``parts[k]`` in that order, set ``starts`` and ``ends``, and
        return the rows in their stored order."""
        sizes = np.array([p.size for p in parts], dtype=np.int64)
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        rows = data[np.concatenate(parts)]
        self.store = ColumnStore(rows)
        return rows

    def _ranges(self, q: Query):
        hit = page_hits(self.lo, self.hi, q)
        return self.starts[hit], self.ends[hit], np.zeros(hit.size, dtype=bool), hit.size

    def _index_size_bytes(self) -> int:
        return self.starts.nbytes + self.ends.nbytes + self.lo.nbytes + self.hi.nbytes


def page_hits(lo: np.ndarray, hi: np.ndarray, q: Query) -> np.ndarray:
    """Indices of the pages whose closed box ``[lo[k], hi[k]]`` meets the
    rectangle of ``q``. A NaN edge never prunes. A tree's leaf box lies
    inside its ancestors' boxes, so testing the leaves alone finds exactly
    the leaves a walk from the root would reach.
    """
    qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
    return np.flatnonzero(~((lo > qhi) | (hi < qlo)).any(axis=1))


def page_mbrs(data: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum bounding rectangles of the pages of ``data`` (n, d) that
    start at rows ``starts`` (increasing, each page running to the next
    start). NaN values are left out, so a dimension holding some still
    prunes; a page whose values in a dimension are all NaN gets NaN edges
    there, which never prune."""
    return np.fmin.reduceat(data, starts, axis=0), np.fmax.reduceat(data, starts, axis=0)


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


def halving_root(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The half-open box ``[lo, hi)`` that the hyperoctree and the Grid File
    halve, holding the non-NaN values of ``data`` (n, d), and the extent of
    the finite values, top exclusive, that :func:`midpoint` clamps to."""
    flo, fhi = finite_extent(data)
    top = np.fmax.reduce(data, axis=0)
    # above the largest float is +inf: numpy warns of that step's overflow
    with np.errstate(over="ignore") if ((top == _MAX) | (fhi == _MAX)).any() else nullcontext():
        return (np.fmin.reduce(data, axis=0), np.nextafter(top, np.inf),
                (flo, np.nextafter(fhi, np.inf)))


def halfway(a, b):
    """``(a + b) / 2``, taken as ``a/2 + b/2`` where ``a`` or ``b`` passes
    half the largest float, so two huge values of one sign do not overflow.
    Halving such values is exact, so wherever the plain sum is finite the
    result is its bits."""
    s = np.where(np.maximum(np.abs(a), np.abs(b)) > _HALF_MAX, 0.5, 1.0)
    return (a * s + b * s) / (2 * s)


def midpoint(lo: np.ndarray, hi: np.ndarray, finite: tuple) -> np.ndarray:
    """Midpoints of the box ``[lo, hi)``, its edges clamped to the
    ``finite`` extent first, so ±inf rows stay in the edge boxes."""
    return halfway(np.clip(lo, *finite), np.clip(hi, *finite))


def closed_top(hi: np.ndarray) -> np.ndarray:
    """The top of the closed box holding the floats of ``[lo, hi)``: the
    next float below ``hi``, but +inf stays, as that box holds the +inf rows.
    Below the lowest float a box holds only −inf, its top; numpy warns of
    that step's overflow, so only such boxes take it with the warning off."""
    with np.errstate(over="ignore") if (hi == -_MAX).any() else nullcontext():
        return np.where(hi == np.inf, hi, np.nextafter(hi, -np.inf))


def selectivity_order(data: np.ndarray, workload: list[Query]) -> np.ndarray:
    """Dims ordered by increasing average selectivity (most selective first).

    Selectivity of a filter is the fraction of points it admits along that
    dimension alone, 0 for an empty (inverted or NaN) range, averaged over
    the queries that filter it; dims never filtered sort last, so an empty
    workload keeps the dims in order. This is the ordering rule the paper
    applies to the baselines ("ordered dimensions by selectivity") and to
    Flood's grid dims (§4.2 step 2).
    """
    n, d = data.shape
    if not workload:
        return np.arange(d)
    sel_sum = np.zeros(d)
    sel_cnt = np.zeros(d)
    sorted_cols = [np.sort(data[:, j]) for j in range(d)]
    for q in workload:
        for dim in q.filtered_dims:
            lo, hi = q.bounds[dim]
            col = sorted_cols[dim]
            if lo <= hi:
                sel_sum[dim] += (col.searchsorted(hi, "right")
                                 - col.searchsorted(lo, "left")) / max(1, n)
            sel_cnt[dim] += 1
    avg = np.where(sel_cnt > 0, sel_sum / np.maximum(sel_cnt, 1), 2.0)
    # Never-filtered dims get sentinel 2.0 (> any real selectivity) → last.
    return np.argsort(avg, kind="stable")
