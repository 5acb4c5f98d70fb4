"""Cost model: calibration, weight prediction sanity, Eq. 1 combination."""
import numpy as np
import pytest

from repro.core.cost_model import FEATURES, CostModel, feature_vector, random_layout
from repro.core.query import query_from_dict


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
    stats = [
        {
            "n_cells": 10, "n_scanned": 1000, "total_cells": 256,
            "cell_size_mean": 15.6, "cell_size_median": 15.6, "cell_size_p99": 15.6,
            "n_filtered_dims": 2, "pts_per_cell": 100, "avg_run_len": 100,
            "exact_frac": 0.5, "refined": 1.0,
        }
    ]
    t = cm.predict_time(stats)
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
    assert cm.predict_time([big])[0] > cm.predict_time([base])[0]


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
    X = feature_vector(s).reshape(1, -1)
    wp = max(cm.wp_model.predict(X)[0], 0)
    ws = max(cm.ws_model.predict(X)[0], 0)
    expect_no_wr = wp * s["n_cells"] + ws * s["n_scanned"]
    assert np.isclose(cm.predict_time([s])[0], expect_no_wr)


def test_predict_before_calibrate_raises():
    with pytest.raises(RuntimeError):
        CostModel().predict_time([])


def test_feature_vector_order():
    s = {k: float(i) for i, k in enumerate(FEATURES)}
    assert np.array_equal(feature_vector(s), np.arange(len(FEATURES), dtype=float))


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
    from repro.indexes.flood import FloodIndex

    lay = random_layout(data.shape[1], data.shape[0], np.random.default_rng(9))
    idx = FloodIndex(layout=lay).build(data)
    ratios = []
    for q in wl[:15]:
        r = idx.query(q)
        if r.n_cells == 0 or r.n_scanned == 0:
            continue
        stats = {
            "n_cells": r.n_cells, "n_scanned": r.n_scanned,
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
        pred = cm.predict_time([stats])[0]
        ratios.append(pred / max(r.total_time, 1e-9))
    gm = np.exp(np.abs(np.log(ratios)).mean())
    assert gm < 10, f"geometric-mean misprediction {gm:.1f}x"
