"""Flood: the learned multi-dimensional in-memory index (§3–§5).

Layout: dims are ordered; the last is the *sort dimension*, the first
d−1 form a grid with ``cols[i]`` columns each. Each grid dimension keeps
``cols[i] − 1`` ascending column edges (:func:`column_edges`): with
flattening (§5.1) they are equi-mass under the attribute's empirical CDF,
without they are equal-width. Points are stored sorted by (cell id,
sort-dim value), cell ids running in depth-first (row-major) order over
the grid — exactly Fig 2. A :class:`Grid` holds the edges and strides
and numbers cells, for ``FloodIndex`` and ``sparkglue`` alike.

Query flow (§3.2): *projection* (:meth:`Grid.project`) intersects the
query hyper-rectangle with the grid to find the visited cells, finding
each filtered dim's columns with ``bisect`` on a Python list of its
edges; *refinement* turns each
visited cell into the physical range of its rows whose sort-dim value
lies in the query's range. Rows are stored sorted by the int64 key
``cell id · U + rank of the sort value`` (U distinct sort values, NaN
ranked last). The index keeps that key as a *run table*, one entry per
distinct key (its value and its first row), so one binary search of the
table for every cell's range start and end finds all the ranges at once;
the table holds a few thousand entries where keys repeat (tpch: 3,000
for 1.2M rows) and at most twice a per-row key's bytes. *Scan* executes on
the column store, which reads touching inexact ranges as one slice, with
ranges proven exact skipping per-point checks (§7.1) and every range
skipping the sort-dim check, which refinement has made exact.

The scan returns the query's ``QueryResult``; Flood sets on it its index
time, its visited cell count and, in ``extra``, its projection and
refinement times (``proj_time``, ``refine_time``): they are the cost
model's w_p and w_r targets (§4.1.1). Its features come from the typed
counts of ``QueryResult`` and the layout
(``repro.core.cost_model.measured_features``).
"""
from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query, QueryResult
from repro.indexes.base import BaseIndex, finite_extent, selectivity_order

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
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of the dimensions")

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


def column_edges(values: np.ndarray, c: int, flatten: bool = True) -> np.ndarray:
    """The ``c − 1`` ascending edges of a grid dimension with ``c`` columns.

    Flattened (§5.1): a value with sample rank ``r`` (sample values <= it)
    lies in column ``min(int((r/n)·c), c−1)``, so edge ``k`` is the
    smallest sample value whose rank reaches column ``k``, and
    :func:`column_of` reproduces that formula for every value but NaN.
    Equal-width: edge ``k`` is ``lo + (hi − lo)·(k/c)`` over the extent
    ``[lo, hi]`` of the finite values (0 when there are none). These edges
    are never NaN: −inf lies in column 0, +inf and NaN in the last. No
    values give ``c − 1`` zero edges, which place no row.
    """
    v = np.asarray(values, dtype=np.float64)
    if flatten and v.size:
        keys = np.sort(v)
        col_of_rank = (np.arange(keys.size + 1) / keys.size * c).astype(np.int64)
        return keys[np.searchsorted(col_of_rank, np.arange(1, c)) - 1]
    (lo,), (hi,) = finite_extent(v[:, None])
    with np.errstate(over="ignore"):  # a span past 1.8e308 makes the edges +inf
        return lo + (hi - lo) * (np.arange(1, c) / c)


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


def cell_id_function(edges: list[np.ndarray], strides: list[int]):
    """The cell numbering of a grid whose grid dims, in layout order, have
    these ascending column ``edges`` and row-major ``strides``: a function
    of one value array per grid dim that gives each row's cell id.

    It is a closure over plain arrays and ints that names only ``np``, so
    Spark's Python workers, which may not find ``repro``, run it too. A
    grid dim of one column has no edges and its column is always 0, so
    the numbering skips it."""
    dims = [(k, e, stride) for k, (e, stride) in enumerate(zip(edges, strides)) if e.size]

    def cell_ids(*values: np.ndarray) -> np.ndarray:
        ids = np.zeros(len(values[0]), dtype=np.int64)
        for k, e, stride in dims:
            ids += np.searchsorted(e, values[k], side="right") * stride
        return ids

    return cell_ids


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of a non-negative int64 key. A
    key whose maximum fits uint8 or uint16 is sorted in that type, where
    numpy's stable sort is a radix sort; the permutation is the same."""
    top = int(key.max()) if key.size else 0
    t = next((t for t in (np.uint8, np.uint16) if top <= np.iinfo(t).max), None)
    return np.argsort(key if t is None else key.astype(t), kind="stable")


def _no_cells():
    """The projection of a query that visits no cell."""
    return np.empty(0, dtype=np.int64), [], np.empty(0, dtype=bool)


class Grid:
    """Flood's grid over a table: per grid dim, in layout order, its
    ascending column edges (:func:`column_edges`) and whether it holds no
    NaN (``nan_free``), and the row-major stride of its column in a cell
    id, the first grid dim most significant (Fig 2). :meth:`cell_ids`
    numbers rows' cells and :meth:`project` a query's; ``FloodIndex`` and
    ``sparkglue`` share both."""

    def __init__(self, layout: Layout, edges: list[np.ndarray], nan_free: list[bool]):
        self.layout = layout
        self.edges = [np.asarray(e, dtype=np.float64) for e in edges]
        self.nan_free = list(nan_free)
        # what project bisects: NaN edges (flattened over a sample that is
        # mostly NaN) trail, and searchsorted ranks them above every number
        # where bisect cannot, so each list holds the non-NaN prefix only
        self.edge_lists = [e[~np.isnan(e)].tolist() for e in self.edges]
        self.strides = [int(math.prod(layout.cols[i + 1:])) for i in range(len(layout.cols))]
        self._number = cell_id_function(self.edges, self.strides)

    def cell_ids(self, data: np.ndarray) -> np.ndarray:
        """The cell id of each row of ``data`` (n, d): the numbering of
        :func:`cell_id_function` over the grid dims' columns."""
        if not self.strides:  # no grid dim: every row is in cell 0
            return np.zeros(data.shape[0], dtype=np.int64)
        return self._number(*(data[:, dim] for dim in self.layout.grid_dims))

    def project(self, q: Query):
        """Intersect the query rectangle with the grid (§3.2.1).

        Returns the visited cell ids (ascending), each grid dim's inclusive
        column range, and per visited cell whether every grid-dim filter
        holds for all its rows (a candidate for exactness). An empty query
        (``Query.empty``) visits no cell.

        The column ranges come from ``Query.bounds``, Python floats (one
        ``bisect`` per bound); only the cells and their flags are numpy
        arrays, an outer sum over the dims that span more than one column.
        """
        if q.empty:
            return _no_cells()
        layout = self.layout
        col_ranges: list[tuple[int, int]] = []
        const, iconst = 0, True
        spans = []  # (first cell term, column count, stride, first/last interior)
        for dim, c, e, nf, stride in zip(layout.grid_dims, layout.cols, self.edge_lists,
                                         self.nan_free, self.strides):
            lo, hi = q.bounds[dim]
            if lo == -math.inf and hi == math.inf:
                clo, chi, first, last = 0, c - 1, True, True
            else:
                # only ±inf is open
                clo = 0 if lo == -math.inf else bisect.bisect_right(e, lo)
                chi = c - 1 if hi == math.inf else bisect.bisect_right(e, hi)
                # interior columns match the filter for sure (see §3.2.1); the
                # first and last need per-point checks unless their side is
                # open, and NaN values, which match no filter, sit in the last
                first, last = lo == -math.inf, hi == math.inf and nf
            col_ranges.append((clo, chi))
            if clo == chi:
                # a dim of one column folds into a constant, so only the
                # others pay an outer sum: much cheaper than a d-way
                # meshgrid for the common mostly-1-column case
                const += clo * stride
                iconst = iconst and first and last
            else:
                spans.append((clo * stride, chi - clo + 1, stride, first, last))
        if not spans:
            return np.array([const], dtype=np.int64), col_ranges, np.array([iconst])
        # cartesian product of the column ranges → cell ids, the constant
        # folded into the first dim's terms; the interior flags likewise
        start, n, step, _, _ = spans[0]
        cells = np.arange(start + const, start + const + n * step, step)
        for start, n, step, _, _ in spans[1:]:
            cells = (cells[:, None] + np.arange(start, start + n * step, step)).ravel()
        if not iconst:
            return cells, col_ranges, np.zeros(cells.size, dtype=bool)
        interior_ok = None
        for _, n, _, first, last in spans:
            inner = np.empty(n, dtype=bool)
            inner.fill(True)
            inner[0], inner[-1] = first, last
            interior_ok = inner if interior_ok is None else (interior_ok[:, None] & inner).ravel()
        return cells, col_ranges, interior_ok


class FloodIndex(BaseIndex):
    name = "flood"

    def __init__(self, layout: Layout | None = None):
        super().__init__()
        self.layout = layout
        self.grid: Grid | None = None
        self.sort_keys: np.ndarray | None = None  # distinct sort-dim values
        self.run_keys: np.ndarray | None = None  # distinct stored keys, ascending
        self.run_starts: np.ndarray | None = None  # each run's first row, then n
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
        edges, nan_free = [], []
        for dim, c in zip(L.grid_dims, L.cols):
            col = data[:, dim]
            nan_free.append(not np.isnan(col).any())
            if L.flatten and n > EDGE_SAMPLE:
                col = rng.choice(col, EDGE_SAMPLE, replace=False)
            edges.append(column_edges(col, c, L.flatten))
        self.grid = Grid(L, edges, nan_free)
        # rows sort by the key cell id · U + rank of the sort value, over
        # the U distinct sort values (NaN last); refinement searches its runs
        self.sort_keys, key = np.unique(data[:, L.sort_dim], return_inverse=True)
        width = self.sort_keys.size
        key += self._cell_ids(data) * width
        order = _stable_order(key)
        key = key[order]
        self.store = ColumnStore(data[order])
        # one run per distinct key: its value and its first row, then n
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self.run_starts = np.append(np.flatnonzero(first), n)
        self.run_keys = key[self.run_starts[:-1]]
        self.cell_starts = self.run_starts[self.run_keys.searchsorted(
            np.arange(L.n_cells + 1, dtype=np.int64) * width
        )]

    def _cell_ids(self, data: np.ndarray) -> np.ndarray:
        return self.grid.cell_ids(data)

    # -- query ---------------------------------------------------------------
    def _query(self, q: Query) -> QueryResult:
        """Overrides BaseIndex._query to time projection/refinement separately
        (the cost model's w_p / w_r targets, §4.1.1)."""
        t0 = time.perf_counter()
        cells, _, interior_ok = self.grid.project(q)
        t1 = time.perf_counter()
        starts, ends, exact = self._refine(*q.bounds[self.layout.sort_dim], cells, interior_ok)
        t2 = time.perf_counter()

        # refinement cut the sort dim exactly, so its check is skipped
        r = self.store.scan(starts, ends, exact, q, self.layout.sort_dim)
        r.index_time, r.n_cells = t2 - t0, cells.size
        r.extra = {"proj_time": t1 - t0, "refine_time": t2 - t1}
        return r

    def _refine(self, lo: float, hi: float, cells: np.ndarray, interior_ok: np.ndarray):
        """Refinement over the sort dimension (§3.2.2) to its range
        ``[lo, hi]``: one binary search of the run table serves every
        visited cell, since cell ``k``'s rows with sort-key rank in
        ``[r_lo, r_hi)`` are those with key in ``[k·U + r_lo, k·U + r_hi)``,
        and the first row with key at least ``x`` is the first row of the
        first run whose key is at least ``x`` (``n`` past the last run).

        Returns one ``[start, end)`` range per visited cell, in cell order,
        and its exactness: refinement makes the sort dim exact, so a range
        is exact when its cell is interior in every grid dim. The scan drops
        the empty ranges and reads touching inexact ones as one slice.
        """
        keys = self.sort_keys
        r_lo, r_hi = 0, keys.size
        if not (lo == -math.inf and hi == math.inf):
            # NaN is the last key, so +inf cuts before it; a NaN bound
            # never gets here, as its projection visits no cell
            r_lo = keys.searchsorted(lo, "left")
            r_hi = keys.searchsorted(hi, "right")
        cuts = np.add.outer((r_lo, r_hi), cells * keys.size)
        rows = self.run_starts[self.run_keys.searchsorted(cuts)]
        return rows[0], rows[1], interior_ok

    # -- introspection -------------------------------------------------------
    def _index_size_bytes(self) -> int:
        """Exact metadata size: the cell table, the column edges, the run
        table and the distinct sort keys. The run table holds 16 bytes per
        distinct (cell, sort value) key, so it is at most twice the 8 bytes
        per row a stored key would take, and far less when keys repeat."""
        return int(self.cell_starts.nbytes + self.run_keys.nbytes + self.run_starts.nbytes
                   + self.sort_keys.nbytes + sum(e.nbytes for e in self.grid.edges))
