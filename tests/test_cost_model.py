"""Cost model: calibration, weight prediction sanity, Eq. 1 combination."""
import numpy as np
import pytest

from repro.core.cost_model import (FEATURES, CostModel, feature_matrix,
                                   measured_features, random_layout)
from repro.core.query import query_from_dict
from repro.indexes.flood import FloodIndex


def _data(n=4000, d=4, seed=0):
    return np.random.default_rng(seed).random((n, d)) * 100


def _workload(data, n_q, seed=1):
    rng = np.random.default_rng(seed)
    d = data.shape[1]
    out = []
    for _ in range(n_q):
        k = int(rng.integers(1, d + 1))
        dims = rng.choice(d, size=k, replace=False)
        bounds = {}
        for dim in dims:
            a, b = np.sort(rng.choice(data[:, dim], 2))
            bounds[int(dim)] = (float(a), float(b))
        out.append(query_from_dict(d, bounds))
    return out


@pytest.fixture(scope="module")
def calibrated():
    data = _data()
    wl = _workload(data, 30)
    cm = CostModel().calibrate(data, wl, n_layouts=5, seed=0)
    return data, wl, cm


def test_calibration_collects_examples(calibrated):
    _, wl, cm = calibrated
    assert cm.n_examples > 0.5 * 5 * len(wl)  # most (layout, query) pairs usable
    assert cm.calibration_time > 0


def test_predicted_time_positive_and_finite(calibrated):
    data, wl, cm = calibrated
    X = feature_matrix(
        n_cells=10, n_scanned=1000, total_cells=256,
        cell_size_mean=15.6, cell_size_median=15.6, cell_size_p99=15.6,
        n_filtered_dims=2, pts_per_cell=100, avg_run_len=100,
        exact_frac=0.5, refined=1.0,
    )
    t = cm.predict_time(X)
    assert t.shape == (1,) and np.isfinite(t[0]) and t[0] > 0


def test_more_scanned_points_cost_more(calibrated):
    _, _, cm = calibrated
    base = {
        "n_cells": 50, "n_scanned": 500, "total_cells": 1000,
        "cell_size_mean": 4.0, "cell_size_median": 4.0, "cell_size_p99": 4.0,
        "n_filtered_dims": 2, "pts_per_cell": 10, "avg_run_len": 10,
        "exact_frac": 0.0, "refined": 0.0,
    }
    big = dict(base, n_scanned=200_000, pts_per_cell=4000, avg_run_len=4000)
    assert cm.predict_time(feature_matrix(**big))[0] > cm.predict_time(feature_matrix(**base))[0]


def test_unrefined_query_has_zero_wr(calibrated):
    """w_r is gated on the refined flag (paper: w_r is zero when the query
    does not filter the sort dimension)."""
    _, _, cm = calibrated
    s = {
        "n_cells": 100, "n_scanned": 1000, "total_cells": 1000,
        "cell_size_mean": 4.0, "cell_size_median": 4.0, "cell_size_p99": 4.0,
        "n_filtered_dims": 1, "pts_per_cell": 10, "avg_run_len": 10,
        "exact_frac": 0.0, "refined": 0.0,
    }
    X = feature_matrix(**s)
    wp = max(cm.wp_model.predict(X)[0], 0)
    ws = max(cm.ws_model.predict(X)[0], 0)
    expect_no_wr = wp * s["n_cells"] + ws * s["n_scanned"]
    assert np.isclose(cm.predict_time(X)[0], expect_no_wr)


def test_predict_before_calibrate_raises():
    with pytest.raises(RuntimeError):
        CostModel().predict_time(np.empty((0, len(FEATURES))))


def test_feature_matrix_order_and_names():
    """Columns come out in FEATURES order whatever order the names are
    given in; scalars fill every row; a missing or unknown name raises."""
    cols = {k: [float(i), 10.0 + i] for i, k in enumerate(FEATURES)}
    X = feature_matrix(**dict(reversed(cols.items())))
    assert np.array_equal(X, np.array(list(cols.values())).T)
    one = feature_matrix(**dict(cols, total_cells=7))
    assert one.shape == (2, len(FEATURES))
    assert np.array_equal(one[:, FEATURES.index("total_cells")], [7.0, 7.0])
    with pytest.raises(ValueError, match="missing.*refined"):
        feature_matrix(**{k: v for k, v in cols.items() if k != "refined"})
    with pytest.raises(ValueError, match="unknown.*n_points"):
        feature_matrix(**cols, n_points=1.0)


@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_random_layout_valid(d):
    rng = np.random.default_rng(0)
    for _ in range(20):
        lay = random_layout(d, 100_000, rng)
        assert sorted(lay.order) == list(range(d))
        assert len(lay.cols) == d - 1
        assert all(c >= 1 for c in lay.cols)
        assert lay.n_cells <= 100_000 * 4  # never an absurd cell count


def test_random_layouts_span_one_cell_to_n_over_8():
    """Calibration covers the optimizer's whole search range, down to a
    single cell: the forests cannot predict grids coarser than any they
    were fitted on."""
    rng = np.random.default_rng(0)
    cells = [random_layout(4, 5000, rng).n_cells for _ in range(200)]
    assert min(cells) == 1
    assert max(cells) > 5000 / 32


def test_model_predicts_measured_times_reasonably(calibrated):
    """In-sample check: Eq.1 with predicted weights should track measured
    total times to well within an order of magnitude on average."""
    data, wl, cm = calibrated
    lay = random_layout(data.shape[1], data.shape[0], np.random.default_rng(9))
    idx = FloodIndex(layout=lay).build(data)
    kept, results = [], []
    for q in wl[:15]:
        r = idx.query(q)
        if r.n_cells == 0 or r.n_scanned == 0:
            continue
        kept.append(q)
        results.append(r)
    pred = cm.predict_time(measured_features(idx, kept, results))
    ratios = pred / np.maximum([r.total_time for r in results], 1e-9)
    gm = np.exp(np.abs(np.log(ratios)).mean())
    assert gm < 10, f"geometric-mean misprediction {gm:.1f}x"


def test_measured_features_name_each_statistic():
    """The calibration features of a query: its counts, its filters and the
    layout's cell sizes, with scan run length over nonempty ranges."""
    data = _data()
    lay = random_layout(4, data.shape[0], np.random.default_rng(2))
    idx = FloodIndex(layout=lay).build(data)
    qs = _workload(data, 10, seed=5)
    results = [idx.query(q) for q in qs]
    X = measured_features(idx, qs, results)
    col = {k: X[:, i] for i, k in enumerate(FEATURES)}
    sizes = np.diff(idx.cell_starts)
    assert X.shape == (len(qs), len(FEATURES))
    assert lay.n_cells == sizes.size
    assert np.all(col["total_cells"] == lay.n_cells)
    assert np.all(col["cell_size_mean"] == data.shape[0] / lay.n_cells)
    assert np.all(col["cell_size_p99"] >= col["cell_size_median"])
    assert np.array_equal(col["n_filtered_dims"], [len(q.filtered_dims) for q in qs])
    assert np.array_equal(col["refined"], [q.filters(lay.sort_dim) for q in qs])
    for i, r in enumerate(results):
        assert (col["n_cells"][i], col["n_scanned"][i]) == (r.n_cells, r.n_scanned)
        assert col["avg_run_len"][i] == (r.n_scanned / r.n_ranges if r.n_ranges else 0)
        assert col["exact_frac"][i] == r.n_exact / max(1, r.n_scanned)
