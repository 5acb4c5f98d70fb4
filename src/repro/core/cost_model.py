"""Flood's learned cost model (§4.1).

Query time is modeled as ``w_p·N_c + w_r·N_c + w_s·N_s`` (Eq. 1). The
weights are *not* constants: each is predicted by a random-forest
regressor over per-query statistics (§4.1.1) — the number of visited
cells and scanned points, total cells, cell-size quantiles, dims
filtered, points per visited cell, scan run length, and whether
refinement ran. Calibration runs an arbitrary (possibly synthetic)
dataset + workload on ~10 random layouts, measures the weights and
statistics for every (query, layout) pair, and fits the forests once per
machine. Predicting a weight instead of the query time keeps the target
in a narrow range (§4.1.1's argument for factoring the model).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.query import Query, QueryResult
from repro.indexes.flood import FloodIndex, Layout
from repro.ml.random_forest import RandomForestRegressor

FEATURES = (
    "n_cells",          # N_c: cells in the query rectangle
    "n_scanned",        # N_s: points scanned
    "total_cells",      # cells in the whole layout
    # cell sizes over the whole layout; the optimizer estimates all three
    # as n / total_cells
    "cell_size_mean",
    "cell_size_median",
    "cell_size_p99",
    "n_filtered_dims",
    "pts_per_cell",     # N_s / N_c — avg visited points per visited cell
    "avg_run_len",      # scan locality: scanned points per range read, touching
                        # inexact ones as one (optimizer: pts_per_cell)
    "exact_frac",       # fraction of scanned points inside exact sub-ranges
    "refined",          # 1 if the query filtered the sort dim
)


def feature_matrix(**columns) -> np.ndarray:
    """The cost model's feature matrix, filled by name, in FEATURES order.

    Takes every name in :data:`FEATURES` and no other; each column is one
    value per row, or a scalar that applies to every row.
    """
    if set(columns) != set(FEATURES):
        raise ValueError(f"need exactly the features {FEATURES}; missing "
                         f"{sorted(set(FEATURES) - set(columns))}, unknown "
                         f"{sorted(set(columns) - set(FEATURES))}")
    cols = [np.asarray(columns[k], dtype=np.float64) for k in FEATURES]
    return np.column_stack(np.broadcast_arrays(*cols))


def measured_features(idx: FloodIndex, queries: list[Query],
                      results: list[QueryResult]) -> np.ndarray:
    """Features of ``queries`` as run on ``idx``, one row per query: the
    result's counts, the query's filters and the layout's cell sizes."""
    sizes = np.diff(idx.cell_starts)
    n_cells, n_scanned, n_exact, n_ranges = (
        np.array([getattr(r, k) for r in results], dtype=np.float64)
        for k in ("n_cells", "n_scanned", "n_exact", "n_ranges"))
    return feature_matrix(
        n_cells=n_cells,
        n_scanned=n_scanned,
        total_cells=idx.layout.n_cells,
        cell_size_mean=sizes.mean(),
        cell_size_median=np.median(sizes),
        cell_size_p99=np.quantile(sizes, 0.99),
        n_filtered_dims=[q.filtered_dims.size for q in queries],
        pts_per_cell=n_scanned / np.maximum(1, n_cells),
        avg_run_len=n_scanned / np.maximum(1, n_ranges),
        exact_frac=n_exact / np.maximum(1, n_scanned),
        refined=[q.filters(idx.layout.sort_dim) for q in queries],
    )


@dataclass
class CostModel:
    """Three weight models + the Eq. 1 combiner."""

    wp_model: RandomForestRegressor | None = None
    wr_model: RandomForestRegressor | None = None
    ws_model: RandomForestRegressor | None = None
    calibration_time: float = 0.0
    n_examples: int = 0

    def calibrate(self, data: np.ndarray, workload: list[Query],
                  n_layouts: int = 10, seed: int = 0) -> "CostModel":
        """Measure (features, weights) on random layouts and fit the forests."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        n, d = data.shape
        rows, wps, wrs, wss = [], [], [], []
        for li in range(n_layouts):
            layout = random_layout(d, n, rng)
            idx = FloodIndex(layout=layout).build(data)
            kept, results = [], []
            for q in workload:
                # run twice, keep the faster run — single-shot wall-clock
                # weights are jitter-bound and the forests amplify noise
                r = idx.query(q)
                r2 = idx.query(q)
                if r2.total_time < r.total_time:
                    r = r2
                if r.n_cells == 0 or r.n_scanned == 0:
                    continue
                kept.append(q)
                results.append(r)
                wps.append(r.extra["proj_time"] / r.n_cells)
                wrs.append(r.extra["refine_time"] / r.n_cells)
                wss.append(r.scan_time / r.n_scanned)
            rows.append(measured_features(idx, kept, results))
        X = np.concatenate(rows)
        kw = dict(n_estimators=20, max_depth=10, seed=1)
        self.wp_model = RandomForestRegressor(**kw).fit(X, np.asarray(wps))
        self.wr_model = RandomForestRegressor(**kw).fit(X, np.asarray(wrs))
        self.ws_model = RandomForestRegressor(**kw).fit(X, np.asarray(wss))
        self.n_examples = X.shape[0]
        self.calibration_time = time.perf_counter() - t0
        return self

    def predict_time(self, X: np.ndarray) -> np.ndarray:
        """Eq. 1 applied to predicted weights, one estimate per row of the
        feature matrix ``X`` (see :func:`feature_matrix`)."""
        if self.wp_model is None:
            raise RuntimeError("predict_time() before calibrate()")
        nc = X[:, FEATURES.index("n_cells")]
        ns = X[:, FEATURES.index("n_scanned")]
        refined = X[:, FEATURES.index("refined")]
        wp = np.maximum(self.wp_model.predict(X), 0)
        wr = np.maximum(self.wr_model.predict(X), 0) * refined
        ws = np.maximum(self.ws_model.predict(X), 0)
        return wp * nc + wr * nc + ws * ns


def random_layout(d: int, n: int, rng: np.random.Generator) -> Layout:
    """A random layout for calibration: random dim order, random column
    counts hitting a random target total cell count (§4.1.1).

    The target is log-uniform from one cell up to about n/8, the range the
    optimizer searches: the forests cannot predict layouts coarser than any
    they were fitted on, and a few cells is often the best layout.
    """
    order = list(rng.permutation(d))
    if d == 1:
        return Layout(order=order, cols=[])
    target = int(10 ** rng.uniform(0.0, np.log10(max(20, n / 8))))
    cols = []
    remaining = target
    for i in range(d - 1):
        dims_left = d - 1 - i
        c = max(1, int(round(remaining ** (1 / dims_left) * rng.uniform(0.5, 2.0))))
        c = min(c, max(1, remaining))
        cols.append(c)
        remaining = max(1, remaining // c)
    return Layout(order=order, cols=cols)
