"""Flood index: correctness vs brute force, exactness, flattening, layouts."""
import math

import numpy as np
import pytest

from repro.core.query import AGG_SUM, Query, query_from_dict
from repro.indexes.flood import FloodIndex, Layout, default_layout


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
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    r = idx.query(query_from_dict(4, {0: (10, 60), 3: (5, 50)}))
    for key in ("proj_time", "refine_time", "total_cells", "cell_size_mean", "avg_run_len"):
        assert key in r.extra
    assert r.extra["refined"] is True
    assert r.n_cells > 0


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(order=[0, 1, 2], cols=[4])
    with pytest.raises(ValueError):
        Layout(order=[0, 1], cols=[0])


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
