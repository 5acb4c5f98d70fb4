"""Flood: the learned multi-dimensional in-memory index (§3–§5).

Layout: dims are ordered; the last is the *sort dimension*, the first
d−1 form a grid with ``cols[i]`` columns each. Each grid dimension keeps
``cols[i] − 1`` ascending column edges (:func:`column_edges`): with
flattening (§5.1) they are equi-mass under the attribute's empirical CDF,
without they are equal-width. Points are stored sorted by (cell id,
sort-dim value), cell ids running in depth-first (row-major) order over
the grid — exactly Fig 2.

Query flow (§3.2): *projection* intersects the query hyper-rectangle with
the grid and turns cells into physical ranges via the cell table;
*refinement* shrinks each range by binary search over the cell's slice of
the sort dimension; *scan* executes on the column store, with ranges
proven exact skipping per-point checks (§7.1).

Phase timings and per-query statistics are exposed in
``QueryResult.extra`` — they are the features/targets of the cost model
(§4.1.1).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query, QueryResult
from repro.indexes.base import BaseIndex, selectivity_order

#: rows sampled per grid dimension to learn flattened column edges
EDGE_SAMPLE = 200_000


@dataclass
class Layout:
    """A Flood layout L = (O, {c_i}): dim order (last = sort dim) + columns."""

    order: list[int]          # permutation of range(d); order[-1] is sort dim
    cols: list[int]           # columns per grid dim, len d-1, each >= 1
    flatten: bool = True

    def __post_init__(self) -> None:
        if len(self.cols) != len(self.order) - 1:
            raise ValueError("need one column count per grid dimension")
        if any(c < 1 for c in self.cols):
            raise ValueError("column counts must be >= 1")

    @property
    def sort_dim(self) -> int:
        return self.order[-1]

    @property
    def grid_dims(self) -> list[int]:
        return self.order[:-1]

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cols, dtype=np.int64)) if self.cols else 1


def column_of(edges: np.ndarray, v) -> np.ndarray:
    """Column of value(s) ``v`` in a grid dimension: the number of edges
    <= v. NaN sorts after every number, so it lands in the last column."""
    return np.searchsorted(edges, v, side="right")


def _flip(i: np.ndarray) -> np.ndarray:
    """Maps float64 bit patterns to int64s in float order, and back."""
    return np.where(i < 0, i ^ np.int64(0x7FFF_FFFF_FFFF_FFFF), i)


def column_edges(values: np.ndarray, c: int, flatten: bool = True) -> np.ndarray:
    """The ``c − 1`` ascending edges of a grid dimension with ``c`` columns.

    Flattened (§5.1): a value with sample rank ``r`` (sample values <= it)
    lies in column ``min(int((r/n)·c), c−1)``, so edge ``k`` is the
    smallest sample value whose rank reaches column ``k``. Equal-width: a
    value lies in column ``min(int(clip((v−min)/span, 0, 1)·c), c−1)``, and
    edge ``k`` is the smallest float that formula puts in column ``k``
    (NaN when none does). Either way :func:`column_of` reproduces the
    formula's column for every value but NaN.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("column edges need at least one value")
    k = np.arange(1, c)
    if flatten:
        keys = np.sort(v)
        col_of_rank = (np.arange(keys.size + 1) / keys.size * c).astype(np.int64)
        return keys[np.searchsorted(col_of_rank, k) - 1]
    with np.errstate(all="ignore"):
        mn = v.min()
        span = np.maximum(v.max() - mn, 1e-300)

        def reaches(x: np.ndarray) -> np.ndarray:
            return np.clip((x - mn) / span, 0.0, 1.0) * c >= k

        # bisect over the floats in order, as int64 bit patterns
        lo, hi = (np.full(k.size, _flip(np.float64(x).view(np.int64)))
                  for x in (-np.inf, np.inf))
        for _ in range(64):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor((lo+hi)/2), no overflow
            up = reaches(_flip(mid).view(np.float64))
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        edges = _flip(hi).view(np.float64)
        return np.where(reaches(edges), edges, np.nan)


def default_layout(data: np.ndarray, workload: list[Query],
                   target_cells: int | None = None, flatten: bool = True) -> Layout:
    """Heuristic (un-learned) layout: selectivity-ordered dims, most
    selective dim as sort dim, equal columns per grid dim. The optimizer
    (repro.core.optimizer) replaces this with the learned layout."""
    n, d = data.shape
    sel = selectivity_order(data, workload)
    sort_dim = int(sel[0]) if workload else d - 1
    grid = [int(x) for x in sel if int(x) != sort_dim]
    if target_cells is None:
        target_cells = max(1, n // 4096)
    c = max(1, int(round(target_cells ** (1 / max(1, d - 1)))))
    return Layout(order=grid + [sort_dim], cols=[c] * (d - 1), flatten=flatten)


class FloodIndex(BaseIndex):
    name = "flood"

    def __init__(self, layout: Layout | None = None):
        super().__init__()
        self.layout = layout
        #: above this many visited cells, refinement switches to the
        #: vectorized reduceat path (no per-cell interpreter overhead)
        self.batch_refine_cells = 128
        self.edges: list[np.ndarray] = []   # per grid dim, in layout order
        self._nan_free: list[bool] = []     # per grid dim: holds no NaN
        self.cell_starts: np.ndarray | None = None

    # -- build ---------------------------------------------------------------
    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        if self.layout is None:
            self.layout = default_layout(data, workload)
        L = self.layout
        n, d = data.shape
        if len(L.order) != d:
            raise ValueError("layout order must cover all dims")
        rng = np.random.default_rng(0)
        self.edges = []
        self._nan_free = []
        for dim, c in zip(L.grid_dims, L.cols):
            col = data[:, dim]
            self._nan_free.append(not np.isnan(col).any())
            if L.flatten and n > EDGE_SAMPLE:
                col = rng.choice(col, EDGE_SAMPLE, replace=False)
            self.edges.append(column_edges(col, c, L.flatten))
        cell_ids = self._cell_ids(data)
        order = np.lexsort((data[:, L.sort_dim], cell_ids))
        self.store = ColumnStore(data[order])
        sorted_cells = cell_ids[order]
        ncells = L.n_cells
        self.cell_starts = np.searchsorted(
            sorted_cells, np.arange(ncells + 1, dtype=np.int64)
        )
        sizes = np.diff(self.cell_starts)
        self._size_stats = (
            float(sizes.mean()),
            float(np.median(sizes)),
            float(np.quantile(sizes, 0.99)),
        )

    def _cell_ids(self, data: np.ndarray) -> np.ndarray:
        L = self.layout
        ids = np.zeros(data.shape[0], dtype=np.int64)
        stride = 1
        # row-major: first grid dim most significant → build from last dim up
        for dim, c, edges in zip(reversed(L.grid_dims), reversed(L.cols),
                                 reversed(self.edges)):
            ids += column_of(edges, data[:, dim]) * stride
            stride *= c
        return ids

    # -- query ---------------------------------------------------------------
    def query(self, q: Query) -> QueryResult:
        """Overrides BaseIndex.query to time projection/refinement separately
        (the cost model's w_p / w_r targets, §4.1.1)."""
        if self.store is None:
            raise RuntimeError("query() before build()")
        L = self.layout
        t0 = time.perf_counter()
        cells, col_ranges, interior_ok = self._project(q)
        t_proj = time.perf_counter() - t0

        sort_filtered = q.filters(L.sort_dim)
        t0 = time.perf_counter()
        # Queries that visit many cells use the batched (reduceat) refine +
        # gather scan — O(points in visited cells) of vectorized work with
        # no per-cell interpreter cost; small projections use the per-cell
        # path whose range list the store scans directly.
        gather = None
        if sort_filtered and cells.size > self.batch_refine_cells:
            # crossover: per-cell loop is ~O(cells) interpreter work,
            # batched is ~O(points in visited cells) vectorized work
            pts = int(
                (self.cell_starts[cells + 1] - self.cell_starts[cells]).sum()
            )
            if cells.size * 2.5e-6 > pts * 1.2e-8:
                gather = self._refine_batched(q, cells, interior_ok)
        if gather is None:
            ranges = self._refine(q, cells, interior_ok, sort_filtered)
        t_ref = time.perf_counter() - t0

        if gather is not None:
            stats = self.store.scan_gather(gather[0], gather[1], q)
            avg_run = gather[0].size / max(1, cells.size)
        else:
            stats = self.store.scan(ranges, q)
            avg_run = float(
                np.mean([e - s for s, e, _ in ranges]) if ranges else 0.0
            )
        n_cells = int(cells.size)
        mean_sz, med_sz, p99_sz = self._size_stats
        return QueryResult(
            value=stats.value,
            n_matched=stats.n_matched,
            n_scanned=stats.n_scanned,
            index_time=t_proj + t_ref,
            scan_time=stats.scan_time,
            n_cells=n_cells,
            n_exact=stats.n_exact,
            extra={
                "proj_time": t_proj,
                "refine_time": t_ref,
                "refined": sort_filtered,
                "n_filtered_dims": int(q.filtered_dims.size),
                "total_cells": int(L.n_cells),
                "cell_size_mean": mean_sz,
                "cell_size_median": med_sz,
                "cell_size_p99": p99_sz,
                "avg_run_len": avg_run,
            },
        )

    def _ranges(self, q: Query):  # BaseIndex hook (used by generic tests)
        cells, _, interior_ok = self._project(q)
        return self._refine(q, cells, interior_ok, q.filters(self.layout.sort_dim)), int(cells.size)

    def _project(self, q: Query):
        """Intersect the query rectangle with the grid (§3.2.1).

        Returns (cell ids visited, per-dim column ranges, per-cell bool:
        all grid-dim filters fully satisfied — candidate for exactness).
        """
        L = self.layout
        col_ranges: list[tuple[int, int]] = []
        interior_masks: list[np.ndarray] = []
        for dim, c, edges, nan_free in zip(L.grid_dims, L.cols, self.edges,
                                           self._nan_free):
            if q.filters(dim):
                lo, hi = q.ranges[dim]
                clo = int(column_of(edges, lo)) if np.isfinite(lo) else 0
                chi = int(column_of(edges, hi)) if np.isfinite(hi) else c - 1
                cols = np.arange(clo, chi + 1)
                # interior columns match the filter for sure (see §3.2.1);
                # boundary columns need per-point checks
                inner = (cols > clo) & (cols < chi)
                if not np.isfinite(lo):
                    inner |= cols < chi
                if not np.isfinite(hi):
                    inner |= cols > clo
                    # NaN values, which match no filter, sit in the last column
                    inner[-1] &= nan_free
                col_ranges.append((clo, chi))
                interior_masks.append(inner)
            else:
                col_ranges.append((0, c - 1))
                interior_masks.append(np.ones(c, dtype=bool))
        # cartesian product of column ranges → cell ids (row-major strides).
        # Singleton dims (1 column, or an unfiltered narrow range) fold into
        # a constant; only non-singleton dims pay an outer-sum — much
        # cheaper than a d-way meshgrid for the common mostly-1-column case.
        strides = np.ones(len(L.cols), dtype=np.int64)
        for i in range(len(L.cols) - 2, -1, -1):
            strides[i] = strides[i + 1] * L.cols[i + 1]
        const = 0
        arrs: list[np.ndarray] = []
        iconst = True
        iarrs: list[np.ndarray] = []
        for (lo, hi), s, im in zip(col_ranges, strides, interior_masks):
            if hi == lo:
                const += lo * s
                iconst = iconst and bool(im[0])
            else:
                arrs.append(np.arange(lo, hi + 1) * s)
                iarrs.append(im)
        if not arrs:
            cells = np.array([const], dtype=np.int64)
        else:
            acc = arrs[0]
            for a in arrs[1:]:
                acc = (acc[:, None] + a[None, :]).ravel()
            cells = acc + const
        if not iconst:
            interior_ok = np.zeros(cells.size, dtype=bool)
        elif not iarrs:
            interior_ok = np.ones(cells.size, dtype=bool)
        else:
            iacc = iarrs[0]
            for a in iarrs[1:]:
                iacc = (iacc[:, None] & a[None, :]).ravel()
            interior_ok = iacc
        return cells, col_ranges, interior_ok

    def _refine_batched(self, q: Query, cells: np.ndarray,
                        interior_ok: np.ndarray):
        """Vectorized refinement over all visited cells at once.

        Within each cell the sort column is sorted, so the refined start
        of cell k is ``start_k + #\\{v < a\\}`` — computed for every cell in
        one ``np.add.reduceat`` over the gathered segments. Returns
        (physical positions to scan, per-position exactness) or None when
        the visited cells are empty.
        """
        L = self.layout
        a, b = q.ranges[L.sort_dim]
        starts = self.cell_starts[cells]
        ends = self.cell_starts[cells + 1]
        keep = ends > starts
        if not keep.any():
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        starts, ends = starts[keep], ends[keep]
        inner = interior_ok[keep]
        lens = ends - starts
        total = int(lens.sum())
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        # gather positions: base + within-cell rank, fully vectorized
        rank = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        idx = np.repeat(starts, lens) + rank
        seg = self.store.cols[L.sort_dim][idx]
        if np.isfinite(a):
            cnt_a = np.add.reduceat((seg < a).astype(np.int64), offsets)
        else:
            cnt_a = np.zeros(lens.size, dtype=np.int64)
        if np.isfinite(b):
            cnt_b = np.add.reduceat((seg <= b).astype(np.int64), offsets)
        else:
            cnt_b = lens
        sel = (rank >= np.repeat(cnt_a, lens)) & (rank < np.repeat(cnt_b, lens))
        # refinement makes the sort dim exact; the grid dims must be
        # interior for a point to skip filter checks entirely
        exact_pp = np.repeat(inner, lens)[sel]
        return idx[sel], exact_pp

    def _refine(self, q: Query, cells: np.ndarray, interior_ok: np.ndarray,
                sort_filtered: bool):
        """Per-cell range refinement over the sort dimension (§3.2.2), by
        binary search on the cell's sorted slice, plus merging of
        physically-contiguous unrefined cells."""
        L = self.layout
        starts = self.cell_starts[cells]
        ends = self.cell_starts[cells + 1]
        ranges: list[tuple[int, int, bool]] = []
        if sort_filtered:
            a, b = q.ranges[L.sort_dim]
            has_a, has_b = bool(np.isfinite(a)), bool(np.isfinite(b))
            sort_col = self.store.cols[L.sort_dim]
            search = np.searchsorted
            for s, e, inner in zip(starts.tolist(), ends.tolist(), interior_ok.tolist()):
                if e <= s:
                    continue
                seg = sort_col[s:e]
                i1 = s + search(seg, a, "left") if has_a else s
                i2 = s + search(seg, b, "right") if has_b else e
                if i2 > i1:
                    # refinement makes the sort dim exact; grid dims must be
                    # interior for the whole range to be exact
                    ranges.append((i1, i2, inner))
        else:
            # No refinement: merge runs of physically contiguous cells.
            order = np.argsort(starts, kind="stable")
            s_l, e_l, i_l = starts.tolist(), ends.tolist(), interior_ok.tolist()
            cur_s = cur_e = None
            cur_exact = True
            for k in order.tolist():
                s, e, inner = s_l[k], e_l[k], i_l[k]
                if e <= s:
                    continue
                if cur_s is None:
                    cur_s, cur_e, cur_exact = s, e, inner
                elif s == cur_e and inner == cur_exact:
                    cur_e = e
                else:
                    ranges.append((cur_s, cur_e, cur_exact))
                    cur_s, cur_e, cur_exact = s, e, inner
            if cur_s is not None:
                ranges.append((cur_s, cur_e, cur_exact))
        return ranges

    # -- introspection -------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Exact metadata size: the cell table plus the column edges."""
        total = self.cell_starts.nbytes if self.cell_starts is not None else 0
        return int(total + sum(e.nbytes for e in self.edges))
