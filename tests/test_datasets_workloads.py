"""Datasets: shapes, determinism, skew properties. Workloads: selectivity."""
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.synth_data import EPOCH, lineitem_pdf
from repro.workloads import (QUERY_TYPES, RANDOM_MAX_DIMS, RANDOM_TYPES, make_workload,
                             random_workload, workload_selectivity)

NAMES = ["sales", "tpch", "osm", "perfmon"]


@pytest.mark.parametrize("name", NAMES)
def test_shapes_and_dims(name):
    data, dims = datasets.load(name, n=2000)
    assert data.shape == (2000, len(dims))
    assert np.isfinite(data).all()


@pytest.mark.parametrize("name", NAMES)
def test_deterministic(name):
    a, _ = datasets.load(name, n=1000, seed=3)
    b, _ = datasets.load(name, n=1000, seed=3)
    assert np.array_equal(a, b)
    c, _ = datasets.load(name, n=1000, seed=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", NAMES)
def test_zero_rows_is_empty_and_negative_rejected(name):
    """A size of 0 gives no rows, not the benchmark table; only no size
    at all gives the benchmark size, and a negative size is an error."""
    data, dims = datasets.load(name, 0)
    assert data.shape == (0, len(dims))
    with pytest.raises(ValueError):
        datasets.load(name, -1)


def test_unknown_dataset():
    with pytest.raises(KeyError):
        datasets.load("nope")


def test_osm_latlon_clustered():
    """lat/lon must be skewed (cluster mixture), not uniform."""
    data, dims = datasets.load("osm", n=20000)
    lat = data[:, dims.index("lat")]
    hist, _ = np.histogram(lat, bins=50)
    assert hist.max() > 4 * np.median(hist[hist > 0])


def test_perfmon_swap_mostly_zero():
    data, dims = datasets.load("perfmon", n=10000)
    swap = data[:, dims.index("swap")]
    assert (swap == 0).mean() > 0.6


def test_tpch_receipt_after_ship():
    data, dims = datasets.load("tpch", n=5000)
    assert (data[:, dims.index("receiptdate")] > data[:, dims.index("shipdate")]).all()


@pytest.mark.parametrize("n", [7, 14, 28, 49, 4_009, 100_005])
def test_tpch_returns_n_rows(n):
    """``6e6 · (n / 6e6)`` falls just below n for these n: the row count
    rounds it, where truncating it lost the last row."""
    data, dims = datasets.load("tpch", n=n)
    assert data.shape == (n, len(dims)) and data.dtype == np.float64


def test_tpch_is_lineitem_pdf():
    """The tpch matrix holds lineitem_pdf's columns, dates as days since the epoch."""
    data, dims = datasets.load("tpch", n=3000, seed=5)
    pdf = lineitem_pdf(sf=3000 / 6e6, seed=5)
    for j, dim in enumerate(dims):
        col = pdf["l_" + dim]
        if dim.endswith("date"):
            col = (col - pd.Timestamp(EPOCH)).dt.days
        assert np.array_equal(data[:, j], col.to_numpy(float)), dim


def test_sales_fairly_uniform():
    data, dims = datasets.load("sales", n=20000)
    amt = data[:, dims.index("amount")]
    hist, _ = np.histogram(amt, bins=20)
    assert hist.max() < 2 * hist.min() + 50


@pytest.mark.parametrize("name", NAMES)
def test_workload_hits_target_selectivity(name):
    data, _ = datasets.load(name, n=20000)
    wl = make_workload(data, name, 60, seed=1)
    sel = workload_selectivity(data, wl)
    # within a factor of ~5 of the 0.1% target (correlations + equality
    # dims make it inexact, as in the paper's ±0.013% tolerance at scale)
    assert 2e-4 < sel < 2e-2, sel


@pytest.mark.parametrize("name", NAMES)
def test_workload_uses_declared_types(name):
    data, _ = datasets.load(name, n=5000)
    wl = make_workload(data, name, 40, seed=2)
    allowed = {frozenset(t[0]) for t in QUERY_TYPES[name]}
    for q in wl:
        assert frozenset(int(x) for x in q.filtered_dims) in allowed


def test_train_test_same_distribution_different_queries():
    data, _ = datasets.load("tpch", n=5000)
    tr = make_workload(data, "tpch", 20, seed=10)
    te = make_workload(data, "tpch", 20, seed=20)
    assert any(
        not np.array_equal(a.ranges, b.ranges) for a, b in zip(tr, te)
    )


def test_random_workload_bounded_types():
    data, _ = datasets.load("osm", n=5000)
    wl = random_workload(data, 50, seed=0)
    kinds = {tuple(sorted(int(x) for x in q.filtered_dims)) for q in wl}
    assert len(kinds) <= RANDOM_TYPES
    assert all(len(k) <= RANDOM_MAX_DIMS for k in kinds)


def test_equality_dims_are_degenerate_ranges():
    data, _ = datasets.load("osm", n=5000)
    wl = make_workload(data, "osm", 200, seed=5)
    eq_seen = False
    for q in wl:
        for dm in q.filtered_dims:
            lo, hi = q.ranges[dm]
            if lo == hi:
                eq_seen = True
    assert eq_seen
