"""Micro-benchmarks for Flood's learned components.

Covers the §7.8 comparison (per-cell CDF model lookup: PLM vs binary
search), the cost of flattening/calibration — the knobs a reader would
tune when porting Flood — and the column-store scan over R ranges of L
rows each, which reads one slice per range and column: many short ranges
cost more per row than a few long ones. The scan runs on uniform floats,
filtered as float64, and on integers 0..2556 (like tpch's ship date),
filtered on their uint16 filter copy. Two pairs show what Flood's query
reads: refinement's binary search of a 1.2M-row per-row key against its
run table of 3,000 entries, and a float64 range filter against the same
filter on a uint8 dictionary copy of a column of 11 distinct values (like
tpch's discount).
"""
import itertools
import json

import numpy as np
import pytest

from repro.columnstore.store import ColumnStore, dictionary, rank_range
from repro.core.plm import PLM
from repro.core.query import query_from_dict
from repro.harness.bench import calibration_dataset, default_cost_model
from repro.indexes.flood import column_edges, column_of
from tests.test_random_forest import _CALIBRATION_SAMPLE, _reference_predict


@pytest.fixture(scope="module")
def sorted_vals():
    rng = np.random.default_rng(0)
    return np.sort(np.concatenate([rng.random(20_000) + 10 * k for k in range(5)]))


@pytest.mark.benchmark(group="percell-lookup")
def test_bench_plm_lookup(benchmark, sorted_vals):
    m = PLM(sorted_vals, delta=50)
    probes = np.random.default_rng(1).choice(sorted_vals, 200)

    def run():
        return [m.lookup_left(float(v)) for v in probes]

    got = benchmark(run)
    assert got == [int(np.searchsorted(sorted_vals, v, "left")) for v in probes]


@pytest.mark.benchmark(group="percell-lookup")
def test_bench_binary_search_lookup(benchmark, sorted_vals):
    probes = np.random.default_rng(1).choice(sorted_vals, 200)

    def run():
        return [int(np.searchsorted(sorted_vals, float(v), "left")) for v in probes]

    benchmark(run)


@pytest.mark.benchmark(group="flatten")
def test_bench_column_of(benchmark):
    rng = np.random.default_rng(2)
    edges = column_edges(rng.lognormal(0, 2, 100_000), 64)
    probes = rng.lognormal(0, 2, 10_000)
    out = benchmark(lambda: column_of(edges, probes))
    assert out.shape == (10_000,)


@pytest.fixture(scope="module", params=["float", "int"])
def scan_store(request):
    """A 1M-row store of uniform floats in [0, 1), or of integers 0..2556,
    with the filter that keeps the middle half of column 0."""
    rng = np.random.default_rng(3)
    if request.param == "float":
        data, bounds = rng.random((1 << 20, 2)), (0.25, 0.75)
    else:
        data, bounds = rng.integers(0, 2557, (1 << 20, 2)).astype(float), (639.0, 1917.0)
    return request.param, data, ColumnStore(data), bounds


@pytest.mark.benchmark(group="scan")
@pytest.mark.parametrize("length", [8, 512, 4096])
@pytest.mark.parametrize("n_ranges", [2, 60, 300])
def test_bench_scan(benchmark, scan_store, n_ranges, length):
    """COUNT over ``n_ranges`` inexact ranges of ``length`` rows each,
    spread over a 1M-row store, with one filtered column."""
    values, data, store, (lo, hi) = scan_store
    starts = np.linspace(0, data.shape[0] - length, n_ranges).astype(np.int64)
    ends = starts + length
    exact = np.zeros(n_ranges, dtype=bool)
    q = query_from_dict(2, {0: (lo, hi)})
    benchmark.name = f"scan {values} R={n_ranges} L={length}"
    out = benchmark(lambda: store.scan(starts, ends, exact, q))
    rows = np.concatenate([data[s:e, 0] for s, e in zip(starts, ends)])
    assert out.n_matched == np.count_nonzero((rows >= lo) & (rows <= hi))
    assert out.n_scanned == n_ranges * length


@pytest.mark.benchmark(group="scan")
@pytest.mark.parametrize("length", [8, 512])
def test_bench_scan_touching(benchmark, scan_store, length):
    """COUNT over 300 inexact ranges of ``length`` rows laid end to end,
    which the scan reads as one slice."""
    values, data, store, (lo, hi) = scan_store
    n_ranges = 300
    starts = np.arange(n_ranges, dtype=np.int64) * length
    ends = starts + length
    exact = np.zeros(n_ranges, dtype=bool)
    q = query_from_dict(2, {0: (lo, hi)})
    benchmark.name = f"scan {values} R={n_ranges} L={length} end to end"
    out = benchmark(lambda: store.scan(starts, ends, exact, q))
    rows = data[:n_ranges * length, 0]
    assert out.n_matched == np.count_nonzero((rows >= lo) & (rows <= hi))
    assert out.n_ranges == 1
    assert out.n_scanned == n_ranges * length


@pytest.mark.benchmark(group="calibration")
def test_bench_cost_model_calibration(benchmark):
    cm = benchmark.pedantic(
        lambda: default_cost_model(n_layouts=3, n=10_000),
        rounds=1, iterations=1,
    )
    assert cm.n_examples > 0


@pytest.mark.benchmark(group="calibration")
def test_bench_forest_predict(benchmark):
    """One cost-model forest's predict on 100 rows, the batch size the
    layout search prices with."""
    cm = default_cost_model(n_layouts=3, n=10_000)
    X = np.asarray(json.loads(_CALIBRATION_SAMPLE.read_text())["X"][:100])
    got = benchmark(lambda: cm.wp_model.predict(X))
    assert np.array_equal(got, _reference_predict(cm.wp_model, X))


@pytest.mark.benchmark(group="calibration")
def test_bench_calibration_dataset(benchmark):
    data = benchmark(lambda: calibration_dataset(n=20_000))
    assert data.shape == (20_000, 4)


@pytest.fixture(scope="module")
def refine_key():
    """A sorted per-row key over 60 cells × 50 sort values and 1.2M rows,
    as tpch's, its run table, and 1,000 sets of 12 visited cells with
    their sort-rank cuts."""
    rng = np.random.default_rng(5)
    width = 50
    key = np.sort(rng.integers(0, 60 * width, 1_200_000))
    first = np.flatnonzero(np.diff(key, prepend=-1))
    run_starts, run_keys = np.append(first, key.size), key[first]
    cuts = [(np.sort(rng.choice(60, 12, replace=False)) * width)[:, None]
            + np.sort(rng.integers(0, width + 1, 2)) for _ in range(1000)]
    return key, run_keys, run_starts, cuts


@pytest.mark.benchmark(group="refine")
@pytest.mark.parametrize("table", ["per-row key", "run table"])
def test_bench_refine(benchmark, refine_key, table):
    """One refinement's binary search, cycling through 1,000 cell sets so
    that successive calls probe different parts of the key."""
    key, run_keys, run_starts, cuts = refine_key
    cells = itertools.cycle(cuts)

    def per_row():
        return key.searchsorted(next(cells))

    def runs():
        return run_starts[run_keys.searchsorted(next(cells))]

    benchmark.name = f"refine {table}, 1.2M rows"
    benchmark(per_row if table == "per-row key" else runs)
    for c in cuts[:50]:
        np.testing.assert_array_equal(run_starts[run_keys.searchsorted(c)], key.searchsorted(c))


@pytest.mark.benchmark(group="filter")
@pytest.mark.parametrize("copy", ["float64", "uint8 dictionary"])
def test_bench_dictionary_filter(benchmark, copy):
    """The range filter [0.03, 0.07] over 80k rows of 11 distinct values,
    as two float64 compares or one compare of uint8 rank codes."""
    col = np.random.default_rng(7).integers(0, 11, 80_000) / 100
    lo, hi = 0.03, 0.07
    codes, values = dictionary(col)
    a, b = rank_range(values, lo, hi)
    t = codes.dtype.type

    def floats():
        return (col >= lo) & (col <= hi)

    def ranks():
        return codes - t(a) <= t(b - a)

    benchmark.name = f"filter {copy}, 80k rows"
    got = benchmark(floats if copy == "float64" else ranks)
    np.testing.assert_array_equal(got, (col >= lo) & (col <= hi))
