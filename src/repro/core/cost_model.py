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
from dataclasses import dataclass, field

import numpy as np

from repro.core.query import Query
from repro.indexes.flood import FloodIndex, Layout
from repro.ml.random_forest import RandomForestRegressor

FEATURES = (
    "n_cells",          # N_c: cells in the query rectangle
    "n_scanned",        # N_s: points scanned
    "total_cells",      # cells in the whole layout
    "cell_size_mean",
    "cell_size_median",
    "cell_size_p99",
    "n_filtered_dims",
    "pts_per_cell",     # N_s / N_c — avg visited points per visited cell
    "avg_run_len",      # scan locality
    "exact_frac",       # fraction of scanned points inside exact sub-ranges
    "refined",          # 1 if the query filtered the sort dim
)


def feature_vector(stats: dict) -> np.ndarray:
    return np.array([float(stats[k]) for k in FEATURES])


@dataclass
class CostModel:
    """Three weight models + the Eq. 1 combiner."""

    wp_model: RandomForestRegressor | None = None
    wr_model: RandomForestRegressor | None = None
    ws_model: RandomForestRegressor | None = None
    calibration_time: float = 0.0
    n_examples: int = 0
    # training matrices kept for tests/inspection
    _X: np.ndarray | None = field(default=None, repr=False)

    def calibrate(self, data: np.ndarray, workload: list[Query],
                  n_layouts: int = 10, seed: int = 0,
                  forest_kw: dict | None = None) -> "CostModel":
        """Measure (features, weights) on random layouts and fit the forests."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        n, d = data.shape
        rows, wps, wrs, wss = [], [], [], []
        for li in range(n_layouts):
            layout = random_layout(d, n, rng)
            idx = FloodIndex(layout=layout).build(data)
            for q in workload:
                # run twice, keep the faster run — single-shot wall-clock
                # weights are jitter-bound and the forests amplify noise
                r = idx.query(q)
                r2 = idx.query(q)
                if r2.total_time < r.total_time:
                    r = r2
                if r.n_cells == 0 or r.n_scanned == 0:
                    continue
                stats = {
                    "n_cells": r.n_cells,
                    "n_scanned": r.n_scanned,
                    "total_cells": r.extra["total_cells"],
                    "cell_size_mean": r.extra["cell_size_mean"],
                    "cell_size_median": r.extra["cell_size_median"],
                    "cell_size_p99": r.extra["cell_size_p99"],
                    "n_filtered_dims": r.extra["n_filtered_dims"],
                    "pts_per_cell": r.n_scanned / max(1, r.n_cells),
                    "avg_run_len": r.extra["avg_run_len"],
                    "exact_frac": r.n_exact / max(1, r.n_scanned),
                    "refined": 1.0 if r.extra["refined"] else 0.0,
                }
                rows.append(feature_vector(stats))
                wps.append(r.extra["proj_time"] / r.n_cells)
                wrs.append(r.extra["refine_time"] / r.n_cells)
                wss.append(r.scan_time / r.n_scanned)
        X = np.asarray(rows)
        kw = dict(n_estimators=20, max_depth=10, seed=1)
        kw.update(forest_kw or {})
        self.wp_model = RandomForestRegressor(**kw).fit(X, np.asarray(wps))
        self.wr_model = RandomForestRegressor(**kw).fit(X, np.asarray(wrs))
        self.ws_model = RandomForestRegressor(**kw).fit(X, np.asarray(wss))
        self.n_examples = X.shape[0]
        self._X = X
        self.calibration_time = time.perf_counter() - t0
        return self

    def predict_time(self, stats_rows) -> np.ndarray:
        """Eq. 1 applied to predicted weights, one estimate per query.

        Accepts either a list of stats dicts or a ready feature matrix in
        FEATURES order (the optimizer's vectorized path).
        """
        if self.wp_model is None:
            raise RuntimeError("predict_time() before calibrate()")
        if isinstance(stats_rows, np.ndarray):
            X = stats_rows
        else:
            X = np.asarray([feature_vector(s) for s in stats_rows])
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
