"""Layout optimizer: valid layouts, workload adaptation, cost descent."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import datasets
from repro.core import optimizer
from repro.core.cost_model import FEATURES, CostModel
from repro.core.optimizer import (SAMPLE_QUERIES, SAMPLE_RECORDS, _estimate_stats, _flat_bounds,
                                  optimize_layout)
from repro.core.query import Query, query_from_dict
from repro.indexes.flood import FloodIndex, Layout
from repro.ml.random_forest import RandomForestRegressor
from repro.workloads import make_workload


def _data(n=5000, d=4, seed=0):
    return np.random.default_rng(seed).random((n, d)) * 100


def _range_wl(data, dims_sel, n_q=40, seed=1):
    """Workload filtering the given dims with the given selectivities."""
    rng = np.random.default_rng(seed)
    d = data.shape[1]
    out = []
    for _ in range(n_q):
        bounds = {}
        for dim, sel in dims_sel.items():
            width = sel * (data[:, dim].max() - data[:, dim].min())
            lo = rng.uniform(data[:, dim].min(), data[:, dim].max() - width)
            bounds[dim] = (float(lo), float(lo + width))
        out.append(query_from_dict(d, bounds))
    return out


@pytest.fixture(scope="module")
def cm():
    data = _data(seed=7)
    wl = _range_wl(data, {0: 0.1, 1: 0.2, 2: 0.3}, n_q=25, seed=3)
    return CostModel().calibrate(data, wl, n_layouts=5, seed=0)


def test_layout_is_valid_permutation(cm):
    data = _data()
    wl = _range_wl(data, {0: 0.05, 1: 0.2})
    res = optimize_layout(data, wl, cm)
    assert sorted(res.layout.order) == [0, 1, 2, 3]
    assert len(res.layout.cols) == 3
    assert res.cost > 0 and res.learn_time > 0
    assert set(res.per_sort_dim_costs) == {0, 1, 2, 3}


def test_optimized_beats_bad_layout(cm):
    """The learned layout must outperform a deliberately bad one."""
    data = _data(n=20000)
    wl = _range_wl(data, {0: 0.02, 1: 0.05}, n_q=30)
    res = optimize_layout(data, wl, cm, seed=2)
    good = FloodIndex(layout=res.layout).build(data)
    bad = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[1, 1, 1])).build(data)
    g = np.mean([good.query(q).n_scanned for q in wl])
    b = np.mean([bad.query(q).n_scanned for q in wl])
    assert g < b / 2


def test_unfiltered_dims_get_few_columns(cm):
    """Dims never filtered should not burn cells (paper §7.5: Flood learns
    which dimensions to prioritize)."""
    data = _data(n=10000)
    wl = _range_wl(data, {0: 0.05, 1: 0.05}, n_q=30)
    res = optimize_layout(data, wl, cm, seed=1)
    cols_of = dict(zip(res.layout.grid_dims, res.layout.cols))
    filtered_cols = [cols_of[dm] for dm in (0, 1) if dm in cols_of]
    unfiltered_cols = [cols_of[dm] for dm in (2, 3) if dm in cols_of]
    if filtered_cols and unfiltered_cols:
        assert max(unfiltered_cols) <= max(filtered_cols)


def test_sort_dim_tends_to_filtered_dim(cm):
    """With one dominant filtered dim, it should be sort dim (zero scan
    overhead) or carry most of the columns."""
    data = _data(n=10000, seed=5)
    wl = _range_wl(data, {2: 0.05}, n_q=30, seed=8)
    res = optimize_layout(data, wl, cm, seed=3)
    lay = res.layout
    if lay.sort_dim != 2:
        cols_of = dict(zip(lay.grid_dims, lay.cols))
        assert cols_of[2] == max(lay.cols)


def test_estimate_stats_consistency():
    """Estimated N_c/N_s track reality on a uniform dataset."""
    data = _data(n=8000, seed=11)
    wl = _range_wl(data, {0: 0.2, 1: 0.2}, n_q=10, seed=12)
    flat = _flat_bounds(data, wl)
    filtered = np.zeros((len(wl), 4), dtype=bool)
    for qi, q in enumerate(wl):
        filtered[qi, q.filtered_dims] = True
    lay = Layout(order=[0, 1, 2, 3], cols=[8, 8, 2])
    X = _estimate_stats(8000, flat, filtered, np.ones(len(wl), dtype=bool), lay.order, lay.cols)
    nc_col, ns_col = FEATURES.index("n_cells"), FEATURES.index("n_scanned")
    idx = FloodIndex(layout=lay).build(data)
    for qi, q in enumerate(wl):
        r = idx.query(q)
        assert X[qi, nc_col] == r.n_cells
        assert 0.3 < X[qi, ns_col] / max(1, r.n_scanned) < 3.0


def test_estimate_stats_named_columns():
    """Each estimate lands in its own FEATURES column: the layout's cell
    count, one cell size n / total_cells for mean, median and p99, and a
    scan run length equal to points per visited cell."""
    data = _data(n=6000, seed=4)
    wl = _range_wl(data, {0: 0.1, 3: 0.3}, n_q=12, seed=6)
    filtered = np.zeros((len(wl), 4), dtype=bool)
    for qi, q in enumerate(wl):
        filtered[qi, q.filtered_dims] = True
    cols = [5, 3, 4]
    X = _estimate_stats(6000, _flat_bounds(data, wl), filtered, np.ones(len(wl), dtype=bool),
                        [0, 1, 2, 3], cols)
    col = {k: X[:, i] for i, k in enumerate(FEATURES)}
    assert X.shape == (len(wl), len(FEATURES))
    assert np.all(col["total_cells"] == np.prod(cols))
    for k in ("cell_size_mean", "cell_size_median", "cell_size_p99"):
        assert np.all(col[k] == 6000 / np.prod(cols))
    assert np.all(col["n_filtered_dims"] == 2)
    assert np.all(col["refined"] == 1.0)
    assert np.array_equal(col["pts_per_cell"], col["n_scanned"] / col["n_cells"])
    assert np.array_equal(col["avg_run_len"], col["pts_per_cell"])
    assert np.all((col["exact_frac"] >= 0) & (col["exact_frac"] <= 1))
    assert np.all(col["n_cells"] == col["n_cells"].astype(int))
    assert np.all((col["n_cells"] >= 4 * 3) & (col["n_cells"] <= np.prod(cols)))


def test_flat_bounds_match_per_query_formula():
    """The vectorized flattening equals the per-query formula bit for bit,
    on open (-inf low, +inf high), infinite, NaN, inverted and
    out-of-domain bounds too."""
    rng = np.random.default_rng(8)
    sample = np.column_stack([rng.random(500) * 100, rng.lognormal(0, 2, 500),
                              rng.integers(0, 5, 500).astype(float)])
    sample[::50, 1] = np.nan
    pool = np.concatenate([sample[:40].ravel(), [np.inf, -np.inf, np.nan, -1e300,
                                                  1e300, -5.0, 250.0, 0.0, 4.0]])
    wl = [Query(rng.choice(pool, (3, 2))) for _ in range(300)]
    got = _flat_bounds(sample, wl)
    n = sample.shape[0]
    for qi, q in enumerate(wl):
        for dim in range(3):
            col = np.sort(sample[:, dim])
            lo, hi = q.ranges[dim]
            want_lo = np.searchsorted(col, lo, side="left") / n if lo != -np.inf else 0.0
            want_hi = np.searchsorted(col, hi, side="right") / n if hi != np.inf else 1.0
            assert got[qi, dim, 0].tobytes() == np.float64(want_lo).tobytes()
            assert got[qi, dim, 1].tobytes() == np.float64(want_hi).tobytes()


def test_flat_bounds_open_only_at_minus_inf_low_and_plus_inf_high():
    """``[inf, inf]`` holds only the +inf values and ``[-inf, -inf]`` only
    the -inf ones, so neither flattens to the whole dimension ``(0, 1)``;
    a bound of +inf above and -inf below stays open."""
    sample = np.arange(100, dtype=np.float64)[:, None]
    wl = [Query([[lo, hi]]) for lo, hi in ((np.inf, np.inf), (-np.inf, -np.inf), (200.0, np.inf),
                                            (-np.inf, np.inf), (-np.inf, 49.0), (50.0, np.inf))]
    got = _flat_bounds(sample, wl)[:, 0].tolist()
    assert got == [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.5], [0.5, 1.0]]


def test_sampling_caps_respected(cm, monkeypatch):
    """Above the caps, the optimizer flattens a sample of exactly
    ``SAMPLE_RECORDS`` rows and ``SAMPLE_QUERIES`` queries."""
    seen = []

    def flat_bounds(sample, wl):
        seen.append((len(sample), len(wl)))
        return _flat_bounds(sample, wl)

    monkeypatch.setattr(optimizer, "_flat_bounds", flat_bounds)
    data = _data(n=3 * SAMPLE_RECORDS)
    wl = _range_wl(data, {0: 0.1}, n_q=3 * SAMPLE_QUERIES)
    res = optimize_layout(data, wl, cm)
    assert seen == [(SAMPLE_RECORDS, SAMPLE_QUERIES)]
    assert res.layout.n_cells >= 1


@pytest.fixture(scope="module")
def fixed_cm():
    """The cost model fitted, without timing, on the checked-in
    calibration sample: the same forests on every machine."""
    path = Path(__file__).parents[1] / "perfbench/fixed_model/calibration_sample.json"
    sample = json.loads(path.read_text())
    X = np.asarray(sample["X"])
    forests = {k: RandomForestRegressor(**f["params"]).fit(X, np.asarray(f["y"]))
               for k, f in sample["fits"].items()}
    return CostModel(wp_model=forests["wp"], wr_model=forests["wr"], ws_model=forests["ws"])


@pytest.mark.parametrize("bounds", [(9000.0, 100.0), (np.nan, 100.0), (5.0, np.nan)],
                         ids=["inverted", "nan_lo", "nan_hi"])
@pytest.mark.parametrize("dim", [2, 0])
def test_empty_range_visits_no_cell(fixed_cm, bounds, dim):
    """A query with an empty (inverted or NaN) range matches no row, so
    every candidate layout, with the range's dim as a grid dim or as the
    sort dim, prices it as visiting no cell and scanning no row: it adds 0
    to the mean cost, the learned layout is the one the other 99 queries
    learn, and no division by a zero span warns."""
    cm = fixed_cm
    data, _ = datasets.load("sales", n=6000)
    wl = make_workload(data, "sales", 100, seed=1)[:99]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_layout(data, wl + [query_from_dict(6, {dim: bounds})], cm)
    want = optimize_layout(data, wl, cm)
    assert (res.layout.order, res.layout.cols) == (want.layout.order, want.layout.cols)
    assert res.cost == pytest.approx(want.cost * 99 / 100, rel=1e-12)
    assert res.cost >= 0
    assert all(c >= 0 for c in res.per_sort_dim_costs.values())


def test_empty_workload_raises(cm):
    with pytest.raises(ValueError):
        optimize_layout(_data(), [], cm)
