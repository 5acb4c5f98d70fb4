"""Flood's layout optimization (§4.2, Algorithm 1).

For each candidate sort dimension, the remaining dims are ordered by
average workload selectivity and a descent search over the integer column
counts minimizes the cost model's Eq. 1 averaged over a sampled workload.
Each cost evaluation is closed-form: per-query statistics (N_c, N_s,
cell sizes, exact fractions) are *estimated from the query rectangle and
layout parameters* in flattened space — flattening equalizes column mass,
so a column range of width k covers ≈ k/c of the points along that
dimension (§4.2: no layout build, no sort, no query execution per step).

Column counts are integers, so the paper's "gradient descent search" is
realized as multiplicative coordinate descent: each grid dimension tries
×2, ×1.25, ×0.8, ×0.5 moves, improvements are kept, and the search stops
when no move helps (the standard discrete analogue).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import CostModel, feature_matrix
from repro.core.query import Query
from repro.indexes.base import selectivity_order
from repro.indexes.flood import Layout

#: the optimizer learns from a sample of this many rows and queries (§4.2)
SAMPLE_RECORDS = 10_000
SAMPLE_QUERIES = 100


@dataclass
class OptimizationResult:
    layout: Layout
    cost: float
    learn_time: float
    per_sort_dim_costs: dict[int, float]


def _flat_bounds(data_sample: np.ndarray, workload: list[Query]) -> np.ndarray:
    """(n_q, d, 2) CDF values of each query's endpoints per dimension.

    This is the "flatten the data sample and workload sample using RMIs
    trained on each dimension" step; the empirical CDF of the sample *is*
    the flattened coordinate. Only an open bound (-inf low, +inf high) is 0 or 1.
    """
    n, d = data_sample.shape
    bounds = np.array([q.ranges for q in workload], dtype=np.float64).reshape(-1, d, 2)
    out = np.empty(bounds.shape)
    for dim in range(d):
        col = np.sort(data_sample[:, dim])
        lo, hi = bounds[:, dim, 0], bounds[:, dim, 1]
        out[:, dim, 0] = np.where(lo == -np.inf, 0.0, col.searchsorted(lo, "left") / n)
        out[:, dim, 1] = np.where(hi == np.inf, 1.0, col.searchsorted(hi, "right") / n)
    return out


def _estimate_stats(n: int, flat: np.ndarray, filtered: np.ndarray, live: np.ndarray,
                    order: list[int], cols: list[int]) -> np.ndarray:
    """Closed-form per-query statistics for a candidate layout; a query
    that is not ``live`` (an empty range on some dim) visits no cell.

    Fully vectorized over queries (this runs thousands of times inside
    the descent search); returns the cost model's feature matrix.
    """
    grid_dims, sort_dim = order[:-1], order[-1]
    total_cells = int(np.prod(cols, dtype=np.int64)) if cols else 1
    cell_sz = n / total_cells
    n_cells = live.astype(np.float64)
    scan_frac = np.ones(flat.shape[0])
    exact_frac = live.astype(np.float64)
    for dim, c in zip(grid_dims, cols):
        f = filtered[:, dim]
        clo = np.minimum((flat[:, dim, 0] * c).astype(np.int64), c - 1)
        chi = np.minimum((flat[:, dim, 1] * c).astype(np.int64), c - 1)
        # a live range spans at least one column; an empty one may invert
        span = np.maximum(chi - clo + 1, 1).astype(np.float64)
        n_cells *= np.where(f, span, c)
        scan_frac *= np.where(f, span / c, 1.0)
        # interior columns are exact along this dim
        exact_frac *= np.where(f, np.where(span > 2, (span - 2) / span, 0.0), 1.0)
    refined = filtered[:, sort_dim].astype(np.float64)
    sort_frac = np.where(
        refined > 0,
        np.maximum(flat[:, sort_dim, 1] - flat[:, sort_dim, 0], 1e-9),
        1.0,
    )
    n_scanned = np.where(live, np.maximum(1.0, n * scan_frac * sort_frac), 0.0)
    pts_per_cell = n_scanned / np.maximum(1, n_cells)
    return feature_matrix(
        n_cells=n_cells,
        n_scanned=n_scanned,
        total_cells=total_cells,
        cell_size_mean=cell_sz,
        cell_size_median=cell_sz,
        cell_size_p99=cell_sz,
        n_filtered_dims=filtered.sum(axis=1),
        pts_per_cell=pts_per_cell,
        avg_run_len=pts_per_cell,
        exact_frac=exact_frac,
        refined=refined,
    )


def optimize_layout(data: np.ndarray, workload: list[Query], cost_model: CostModel,
                    seed: int = 0) -> OptimizationResult:
    """Algorithm 1: best flattened layout over d candidate sort dimensions,
    with at most max(64, n/8) cells."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, d = data.shape
    sample = (
        data[rng.choice(n, SAMPLE_RECORDS, replace=False)]
        if n > SAMPLE_RECORDS
        else data
    )
    wl = (
        [workload[i] for i in rng.choice(len(workload), SAMPLE_QUERIES, replace=False)]
        if len(workload) > SAMPLE_QUERIES
        else list(workload)
    )
    if not wl:
        raise ValueError("optimizer needs a non-empty workload")
    flat = _flat_bounds(sample, wl)
    filtered = np.zeros((len(wl), d), dtype=bool)
    for qi, q in enumerate(wl):
        filtered[qi, q.filtered_dims] = True
    live = np.array([(q.ranges[:, 0] <= q.ranges[:, 1]).all() for q in wl])
    max_cells = max(64, n // 8)
    sel = [int(x) for x in selectivity_order(data, wl)]

    def cost_of(order: list[int], cols: list[int]) -> float:
        stats = _estimate_stats(n, flat, filtered, live, order, cols)
        return float(cost_model.predict_time(stats).mean())

    best: tuple[float, Layout] | None = None
    per_sort: dict[int, float] = {}
    for sort_dim in range(d):
        grid = [x for x in sel if x != sort_dim]
        order = grid + [sort_dim]
        cols, c = _descend(order, n, d, max_cells, cost_of)
        per_sort[sort_dim] = c
        if best is None or c < best[0]:
            best = (c, Layout(order=order, cols=cols))
    return OptimizationResult(
        layout=best[1],
        cost=best[0],
        learn_time=time.perf_counter() - t0,
        per_sort_dim_costs=per_sort,
    )


def _descend(order: list[int], n: int, d: int, max_cells: int,
             cost_of) -> tuple[list[int], float]:
    """Multiplicative coordinate descent over integer column counts; the
    best column counts found and their cost."""
    if d == 1:
        return [], cost_of(order, [])
    c0 = max(1, int(round((max(n // 64, 1)) ** (1 / (d - 1)))))
    cols = [c0] * (d - 1)
    best_cost = cost_of(order, cols)
    for _ in range(12):  # descent rounds; converges much earlier in practice
        improved = False
        for i in range(d - 1):
            for mult in (2.0, 1.25, 0.8, 0.5):
                cand = list(cols)
                cand[i] = max(1, int(round(cols[i] * mult)))
                if cand[i] == cols[i]:
                    continue
                if int(np.prod(cand, dtype=np.int64)) > max_cells:
                    continue
                cc = cost_of(order, cand)
                if cc < best_cost - 1e-12:
                    cols, best_cost = cand, cc
                    improved = True
        if not improved:
            break
    return cols, best_cost
