"""Flood: the learned multi-dimensional in-memory index (§3–§5).

Layout: dims are ordered; the last is the *sort dimension*, the first
d−1 form a grid with ``cols[i]`` columns each. Each grid dimension keeps
``cols[i] − 1`` ascending column edges (:func:`column_edges`): with
flattening (§5.1) they are equi-mass under the attribute's empirical CDF,
without they are equal-width. Points are stored sorted by (cell id,
sort-dim value), cell ids running in depth-first (row-major) order over
the grid — exactly Fig 2.

Query flow (§3.2): *projection* (:func:`project`, which ``sparkglue``
shares) intersects the query hyper-rectangle with the grid to find the
visited cells; *refinement* turns each visited cell
into the physical range of its rows whose sort-dim value lies in the
query's range. Rows are stored sorted by the int64 key
``cell id · U + rank of the sort value`` (U distinct sort values, NaN
ranked last), so two binary searches of that key, for the range starts
and the range ends, find every range at once;
*scan* executes on the column store, with ranges proven exact skipping
per-point checks (§7.1).

Projection and refinement times are exposed in ``QueryResult.extra``
(``proj_time``, ``refine_time``): they are the cost model's w_p and w_r
targets (§4.1.1). Its features come from the typed counts of
``QueryResult`` and the layout (``repro.core.cost_model.measured_features``).
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


def default_layout(data: np.ndarray, workload: list[Query]) -> Layout:
    """Heuristic (un-learned) layout: selectivity-ordered dims, most
    selective dim as sort dim, equal flattened columns per grid dim, about
    one cell per 4096 rows. The optimizer (repro.core.optimizer) replaces
    this with the learned layout."""
    n, d = data.shape
    sel = selectivity_order(data, workload)
    sort_dim = int(sel[0]) if workload else d - 1
    grid = [int(x) for x in sel if int(x) != sort_dim]
    c = max(1, int(round(max(1, n // 4096) ** (1 / max(1, d - 1)))))
    return Layout(order=grid + [sort_dim], cols=[c] * (d - 1))


def _no_cells():
    """The projection of a query that visits no cell."""
    return np.empty(0, dtype=np.int64), [], np.empty(0, dtype=bool)


def project(layout: Layout, edges: list[np.ndarray], nan_free: list[bool], q: Query):
    """Intersect the query rectangle with the grid (§3.2.1).

    ``edges`` and ``nan_free`` (the dimension holds no NaN) are per grid
    dim, in layout order. Returns the visited cell ids (ascending), each
    grid dim's inclusive column range, and per visited cell whether every
    grid-dim filter holds for all its rows (a candidate for exactness).
    An empty range (``not lo <= hi``: inverted or NaN) on any dimension,
    the sort dim included, visits no cell.
    """
    lo, hi = q.ranges[layout.sort_dim]
    if not lo <= hi:
        return _no_cells()
    col_ranges: list[tuple[int, int]] = []
    interior_masks: list[np.ndarray] = []
    for dim, c, e, nf in zip(layout.grid_dims, layout.cols, edges, nan_free):
        if q.filters(dim):
            lo, hi = q.ranges[dim]
            if not lo <= hi:
                return _no_cells()
            # only ±inf is open
            clo = 0 if lo == -np.inf else int(column_of(e, lo))
            chi = c - 1 if hi == np.inf else int(column_of(e, hi))
            cols = np.arange(clo, chi + 1)
            # interior columns match the filter for sure (see §3.2.1);
            # boundary columns need per-point checks
            inner = (cols > clo) & (cols < chi)
            if lo == -np.inf:
                inner |= cols < chi
            if hi == np.inf:
                inner |= cols > clo
                # NaN values, which match no filter, sit in the last column
                inner[-1] &= nf
            col_ranges.append((clo, chi))
            interior_masks.append(inner)
        else:
            col_ranges.append((0, c - 1))
            interior_masks.append(np.ones(c, dtype=bool))
    # cartesian product of column ranges → cell ids (row-major strides).
    # Singleton dims (1 column, or an unfiltered narrow range) fold into
    # a constant; only non-singleton dims pay an outer-sum — much
    # cheaper than a d-way meshgrid for the common mostly-1-column case.
    strides = np.ones(len(layout.cols), dtype=np.int64)
    for i in range(len(layout.cols) - 2, -1, -1):
        strides[i] = strides[i + 1] * layout.cols[i + 1]
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


class FloodIndex(BaseIndex):
    name = "flood"

    def __init__(self, layout: Layout | None = None):
        super().__init__()
        self.layout = layout
        self.edges: list[np.ndarray] = []   # per grid dim, in layout order
        self._nan_free: list[bool] = []     # per grid dim: holds no NaN
        self.sort_keys: np.ndarray | None = None  # distinct sort-dim values
        self.key: np.ndarray | None = None  # per stored row, ascending
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
        # rows sort by the key cell id · U + rank of the sort value, over
        # the U distinct sort values (NaN last), which refinement searches
        self.sort_keys, self.key = np.unique(data[:, L.sort_dim], return_inverse=True)
        width = self.sort_keys.size
        self.key += self._cell_ids(data) * width
        order = np.argsort(self.key, kind="stable")
        self.key = self.key[order]
        self.store = ColumnStore(data[order])
        self.cell_starts = self.key.searchsorted(
            np.arange(L.n_cells + 1, dtype=np.int64) * width
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
    def _query(self, q: Query) -> QueryResult:
        """Overrides BaseIndex._query to time projection/refinement separately
        (the cost model's w_p / w_r targets, §4.1.1)."""
        t0 = time.perf_counter()
        cells, _, interior_ok = project(self.layout, self.edges, self._nan_free, q)
        t_proj = time.perf_counter() - t0

        sort_filtered = q.filters(self.layout.sort_dim)
        t0 = time.perf_counter()
        starts, ends, exact = self._refine(q, cells, interior_ok, sort_filtered)
        t_ref = time.perf_counter() - t0

        stats = self.store.scan(starts, ends, exact, q)
        return QueryResult(
            value=stats.value,
            n_matched=stats.n_matched,
            n_scanned=stats.n_scanned,
            index_time=t_proj + t_ref,
            scan_time=stats.scan_time,
            n_cells=int(cells.size),
            n_exact=stats.n_exact,
            n_ranges=stats.n_ranges,
            extra={"proj_time": t_proj, "refine_time": t_ref},
        )

    def _refine(self, q: Query, cells: np.ndarray, interior_ok: np.ndarray,
                sort_filtered: bool):
        """Refinement over the sort dimension (§3.2.2): two binary searches
        of the stored key serve every visited cell, since cell ``k``'s rows
        with sort-key rank in ``[r_lo, r_hi)`` are those with key in
        ``[k·U + r_lo, k·U + r_hi)``.

        Returns the nonempty ``[start, end)`` ranges and their exactness:
        refinement makes the sort dim exact, so a range is exact when its
        cell is interior in every grid dim. Unrefined contiguous cells of
        equal exactness merge into one range.
        """
        keys = self.sort_keys
        lo, hi = 0, keys.size
        if sort_filtered:
            a, b = q.ranges[self.layout.sort_dim]
            # NaN is the last key, so +inf cuts before it; a NaN bound
            # never gets here, as its projection visits no cell
            lo = keys.searchsorted(a, "left")
            hi = keys.searchsorted(b, "right")
        base = cells * keys.size
        starts = self.key.searchsorted(base + lo)
        ends = self.key.searchsorted(base + hi)
        keep = ends > starts
        starts, ends, exact = starts[keep], ends[keep], interior_ok[keep]
        if not sort_filtered and starts.size > 1:
            # cells ascend, so a range continues the previous one when it
            # starts where that one ends and has the same exactness
            cut = (starts[1:] != ends[:-1]) | (exact[1:] != exact[:-1])
            head = np.concatenate(([True], cut))
            tail = np.concatenate((cut, [True]))
            starts, ends, exact = starts[head], ends[tail], exact[head]
        return starts, ends, exact

    # -- introspection -------------------------------------------------------
    def _index_size_bytes(self) -> int:
        """Exact metadata size: the cell table, the column edges, the row
        keys and the distinct sort keys."""
        return int(self.cell_starts.nbytes + self.key.nbytes + self.sort_keys.nbytes
                   + sum(e.nbytes for e in self.edges))
