"""Flood index: correctness vs brute force, exactness, flattening, layouts."""
import math

import numpy as np
import pytest

from repro.core.query import AGG_SUM, Query, query_from_dict
from repro.indexes.flood import FloodIndex, Layout, _stable_order, default_layout


def make_data(kind, n=4000, d=4, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, d)) * 100
    if kind == "skewed":
        return np.column_stack(
            [rng.lognormal(0, 1.5, n) for _ in range(d - 1)] + [rng.random(n)]
        )
    if kind == "correlated":
        a = rng.random(n) * 50
        return np.column_stack([a, a + rng.normal(0, 2, n), rng.random(n) * 9, rng.random(n)])
    raise ValueError(kind)


def rand_query(data, rng, k=None, agg="count"):
    n, d = data.shape
    k = k or rng.integers(1, d + 1)
    dims = rng.choice(d, size=k, replace=False)
    bounds = {}
    for dim in dims:
        a, b = np.sort(rng.choice(data[:, dim], 2))
        bounds[int(dim)] = (float(a), float(b))
    return query_from_dict(d, bounds, agg=agg, agg_dim=int(rng.integers(0, d)))


@pytest.mark.parametrize("kind", ["uniform", "skewed", "correlated"])
@pytest.mark.parametrize("flatten", [True, False])
def test_count_matches_brute_force(kind, flatten):
    data = make_data(kind)
    layout = Layout(order=[0, 1, 2, 3], cols=[4, 3, 5], flatten=flatten)
    idx = FloodIndex(layout=layout).build(data)
    rng = np.random.default_rng(42)
    for _ in range(15):
        q = rand_query(data, rng)
        r = idx.query(q)
        expect = int(q.mask(data).sum())
        assert r.value == expect and r.n_matched == expect


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
def test_sum_matches_brute_force(kind):
    data = make_data(kind, seed=3)
    idx = FloodIndex(layout=Layout(order=[2, 0, 3, 1], cols=[5, 5, 2])).build(data)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rand_query(data, rng, agg=AGG_SUM)
        r = idx.query(q)
        m = q.mask(data)
        assert np.isclose(r.value, data[m, q.agg_dim].sum())


def test_scanned_at_least_matched_and_bounded():
    data = make_data("uniform", seed=5)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 8])).build(data)
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = rand_query(data, rng)
        r = idx.query(q)
        assert r.n_matched <= r.n_scanned <= data.shape[0]


def test_grid_beats_full_scan_overhead():
    """A selective filter on a grid dim must scan far fewer points than n."""
    data = make_data("uniform", n=8000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[16, 16, 4])).build(data)
    q = query_from_dict(4, {0: (10.0, 15.0), 1: (10.0, 15.0)})
    r = idx.query(q)
    assert r.n_scanned < data.shape[0] * 0.2


def test_sort_dim_refinement_is_exact():
    """Filtering only the sort dim must scan ~only matching points."""
    data = make_data("uniform", n=8000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    q = query_from_dict(4, {3: (20.0, 30.0)})
    r = idx.query(q)
    assert r.value == q.mask(data).sum()
    assert r.n_scanned == r.n_matched  # refinement finds precise sub-ranges
    assert r.n_exact == r.n_scanned


def test_flattening_equalizes_cells_on_skew():
    data = make_data("skewed", n=6000)
    flat = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 1], flatten=True)).build(data)
    raw = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 1], flatten=False)).build(data)
    def spread(ix):
        s = np.diff(ix.cell_starts)
        return s.max() / max(1, s.mean())
    assert spread(flat) < spread(raw)


def test_unfiltered_query_counts_everything_exactly():
    data = make_data("uniform", n=2000)
    idx = FloodIndex(layout=Layout(order=[1, 0, 3, 2], cols=[4, 4, 4])).build(data)
    r = idx.query(query_from_dict(4, {}))
    assert r.value == 2000
    assert r.n_exact == 2000  # no filters → every range exact


def test_touching_cell_ranges_read_as_one_range():
    """The visited cells of one dim-0 column, run through dim 1's columns,
    are consecutive. Their ranges are inexact (dim 0's filter cuts the
    column) and hold whole cells, so each starts where the previous one
    ends and the scan reads them as one range, whether or not the query
    refines the sort dim. Exact cell ranges are never merged."""
    data = make_data("uniform", n=3000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 3])).build(data)
    lo, hi = idx.grid.edges[0][1], idx.grid.edges[0][2]
    for sort in ({}, {3: (-1.0, 101.0)}):  # unrefined, refined to every row
        q = query_from_dict(4, {0: (lo + 1.0, hi - 1.0), 2: (-1.0, 101.0), **sort})
        r = idx.query(q)
        assert r.n_cells == 12 and r.n_exact == 0
        assert r.n_ranges == 1
        assert r.value == q.mask(data).sum()
        assert r.n_scanned == ((data[:, 0] >= lo) & (data[:, 0] < hi)).sum()
    # no filter: every cell is interior, one exact range per nonempty cell
    r = idx.query(query_from_dict(4, {}))
    assert r.n_exact == r.n_scanned == 3000
    assert r.n_ranges == np.count_nonzero(np.diff(idx.cell_starts))


def test_equality_filter_on_sort_dim():
    data = make_data("uniform", n=3000).round(0)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    v = float(data[100, 3])
    q = query_from_dict(4, {3: (v, v)})
    assert idx.query(q).value == (data[:, 3] == v).sum()


def test_one_dimensional_data():
    rng = np.random.default_rng(1)
    data = rng.random((1000, 1)) * 10
    idx = FloodIndex(layout=Layout(order=[0], cols=[])).build(data)
    r = idx.query(query_from_dict(1, {0: (2.0, 4.0)}))
    assert r.value == ((data[:, 0] >= 2) & (data[:, 0] <= 4)).sum()
    assert r.n_scanned == r.n_matched


def test_no_plm_fallback_binary_search():
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = rand_query(data, rng)
        assert idx.query(q).value == q.mask(data).sum()


@pytest.mark.parametrize("flatten", [True, False])
def test_nan_grid_values_never_counted_as_matches(flatten):
    """NaN matches no filter. It sits in a grid dimension's last column,
    which an open upper bound must then not claim as exact."""
    data = make_data("uniform", n=2000)
    data[::7, 0] = np.nan
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 3, 2],
                                   flatten=flatten)).build(data)
    for bounds in ({0: (10.0, np.inf)}, {0: (-np.inf, 60.0)}, {0: (20.0, 70.0)},
                   {1: (5.0, np.inf)}):
        q = query_from_dict(4, bounds)
        assert idx.query(q).value == q.mask(data).sum()


@pytest.mark.parametrize("flatten", [True, False])
def test_nan_query_bound_on_grid_dim_matches_nothing(flatten):
    """Only ±inf bounds are open: a NaN bound compares false with every
    value, so its filter matches no row."""
    data = make_data("uniform", n=2000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 3, 2],
                                   flatten=flatten)).build(data)
    for bounds in ({0: (np.nan, 50.0)}, {0: (50.0, np.nan)},
                   {1: (np.nan, 30.0), 3: (10.0, 90.0)}):
        q = query_from_dict(4, bounds)
        r = idx.query(q)
        assert r.value == r.n_matched == q.mask(data).sum() == 0


def test_nan_in_sort_dim_never_matches_a_filter():
    """NaN is the last sort key: an open upper bound stops before it, and
    a NaN bound on the sort dim matches no row."""
    data = np.random.default_rng(0).random((2000, 3)) * 100
    data[::5, 2] = np.nan
    idx = FloodIndex(layout=Layout(order=[0, 1, 2], cols=[4, 3])).build(data)
    for bounds in ({2: (40.0, np.inf)}, {2: (np.nan, 40.0)}, {2: (40.0, np.nan)},
                   {0: (10.0, 60.0), 2: (-np.inf, 70.0)}):
        q = query_from_dict(3, bounds)
        r = idx.query(q)
        assert r.value == r.n_matched == q.mask(data).sum()
    # unfiltered, the sort dim's NaN rows count like any other row
    assert idx.query(query_from_dict(3, {0: (10.0, 60.0)})).value == \
        query_from_dict(3, {0: (10.0, 60.0)}).mask(data).sum()


def test_default_layout_valid_and_correct():
    data = make_data("uniform")
    rng = np.random.default_rng(13)
    wl = [rand_query(data, rng) for _ in range(20)]
    lay = default_layout(data, wl)
    assert sorted(lay.order) == [0, 1, 2, 3]
    idx = FloodIndex(layout=lay).build(data, wl)
    for q in wl[:5]:
        assert idx.query(q).value == q.mask(data).sum()


def test_extra_stats_present():
    """``extra`` holds only the phase times; the counts are typed fields."""
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    for bounds in ({0: (10, 60), 3: (5, 50)}, {1: (20, 30)}, {0: (60, 10)}):
        r = idx.query(query_from_dict(4, bounds))
        assert set(r.extra) == {"proj_time", "refine_time"}
        assert (r.n_ranges >= 1) == (r.n_scanned > 0)
    assert r.n_cells == 0 and r.n_scanned == 0


def test_query_dimension_count_checked():
    """A query with more or fewer dims than the index is rejected, as by
    every other index: an unknown filter must not be silently dropped."""
    data = make_data("uniform", n=2000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    for q in (query_from_dict(5, {4: (0.0, 1.0)}), query_from_dict(3, {0: (10, 60)})):
        with pytest.raises(ValueError, match="query dims"):
            idx.query(q)
    with pytest.raises(RuntimeError):
        FloodIndex(layout=Layout(order=[0, 1], cols=[2])).query(query_from_dict(2, {}))


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(order=[0, 1, 2], cols=[4])
    with pytest.raises(ValueError):
        Layout(order=[0, 1], cols=[0])


@pytest.mark.parametrize("order", [[0, 0, 1], [0, 1, 5], [1, 2, 3], [-1, 0, 1]])
def test_layout_order_must_be_a_permutation(order):
    """An order that repeats or skips a dim would leave a dim neither in
    the grid nor the sort dim, whose filter every range then skips:
    ``[0, 0, 1]`` made a COUNT on dim 2 return every row."""
    with pytest.raises(ValueError, match="permutation"):
        Layout(order=order, cols=[4, 4])


def test_index_size_reported():
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    assert idx.index_size_bytes() > 0


def test_exact_range_sum_matches_fsum():
    """SUM over exact ranges comes from prefix sums (§7.1(2)). It must stay
    within 1e-9·fsum|x| of the exactly rounded sum, also when a query
    sums a few small values far down a long column."""
    rng = np.random.default_rng(3)
    n = 200_000
    data = np.column_stack([rng.random(n) * 100, rng.lognormal(0, 2, n),
                            rng.lognormal(0, 2, n)])
    idx = FloodIndex(layout=Layout(order=[0, 1, 2], cols=[4, 8])).build(data)
    srt = np.sort(data[:, 2])
    for t in range(120):
        # sort-dim-only filters: every refined range is exact; a third of
        # the queries select among the smallest 1% of values
        i = int(rng.integers(0, n // 100 if t % 3 == 0 else n - 5000))
        k = int(rng.integers(1, 50 if t % 2 else 5000))
        q = query_from_dict(3, {2: (srt[i], srt[i + k])}, agg=AGG_SUM,
                            agg_dim=int(rng.integers(0, 3)))
        r = idx.query(q)
        assert r.n_exact == r.n_scanned > 0
        x = data[q.mask(data), q.agg_dim]
        assert abs(r.value - math.fsum(x)) <= 1e-9 * math.fsum(np.abs(x)), t
    whole = idx.query(query_from_dict(3, {}, agg=AGG_SUM, agg_dim=1))
    assert whole.n_exact == n
    assert abs(whole.value - math.fsum(data[:, 1])) <= 1e-9 * math.fsum(data[:, 1])


def _run_table_cases():
    """Tables with ties in the sort dim, NaN sort values, cells left empty
    by a skewed grid dim, d = 1 and one row."""
    rng = np.random.default_rng(41)
    ties = rng.integers(0, 5, (3000, 3)).astype(float)
    nan_sort = rng.random((2000, 3)) * 100
    nan_sort[::7, 2] = np.nan
    skewed = np.column_stack([np.where(rng.random(2000) < 0.9, 1.0, 50.0),
                              rng.random(2000), rng.integers(0, 30, 2000).astype(float)])
    return {
        "ties": (ties, Layout(order=[0, 1, 2], cols=[4, 3])),
        "nan sort values": (nan_sort, Layout(order=[0, 1, 2], cols=[5, 2])),
        "empty cells": (skewed, Layout(order=[0, 1, 2], cols=[8, 3], flatten=False)),
        "d = 1": (rng.integers(0, 40, (500, 1)).astype(float), Layout(order=[0], cols=[])),
        "one row": (np.array([[3.0, np.nan]]), Layout(order=[0, 1], cols=[3])),
    }


@pytest.mark.parametrize("case", list(_run_table_cases()))
def test_run_table_refines_as_the_per_row_key(case):
    """The run table expands to the sorted per-row key ``cell id · U +
    rank`` of the stored rows, and refinement over it returns the ranges
    two binary searches of that per-row key give, for every cell set."""
    data, layout = _run_table_cases()[case]
    idx = FloodIndex(layout=layout).build(data)
    stored = idx.store.matrix()
    keys = idx.sort_keys
    key = idx._cell_ids(stored) * keys.size + keys.searchsorted(stored[:, layout.sort_dim])
    assert (np.diff(key) >= 0).all()
    np.testing.assert_array_equal(np.repeat(idx.run_keys, np.diff(idx.run_starts)), key)
    np.testing.assert_array_equal(idx.cell_starts, key.searchsorted(
        np.arange(layout.n_cells + 1) * keys.size))
    rng = np.random.default_rng(43)
    values = np.concatenate([keys, [-np.inf, np.inf, -1e9, 1e9]])
    for _ in range(200):
        lo, hi = np.sort(rng.choice(values, 2))
        if rng.random() < 0.2:
            lo, hi = -np.inf, np.inf
        cells = np.unique(rng.integers(0, layout.n_cells, int(rng.integers(0, 6))))
        interior = rng.random(cells.size) < 0.5
        starts, ends, exact = idx._refine(float(lo), float(hi), cells, interior)
        both_open = lo == -np.inf and hi == np.inf  # NaN rows included
        r_lo = 0 if both_open else keys.searchsorted(lo, "left")
        r_hi = keys.size if both_open else keys.searchsorted(hi, "right")
        base = cells * keys.size
        np.testing.assert_array_equal(starts, key.searchsorted(base + r_lo))
        np.testing.assert_array_equal(ends, key.searchsorted(base + r_hi))
        assert exact is interior


@pytest.mark.parametrize("top", [0, 255, 256, 65535, 65536, 10**9])
def test_stable_order_of_a_narrow_key_is_the_int64_one(top):
    """The build's stable sort gives the permutation of the int64 key's
    stable argsort whatever the key's maximum, on keys full of ties."""
    rng = np.random.default_rng(top % 1000)
    key = rng.integers(0, min(top, 50) + 1, 5000) * (top // max(1, min(top, 50)))
    key[rng.integers(0, key.size)] = top
    np.testing.assert_array_equal(_stable_order(key), np.argsort(key, kind="stable"))
    assert _stable_order(np.empty(0, dtype=np.int64)).size == 0
