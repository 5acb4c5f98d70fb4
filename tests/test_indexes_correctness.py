"""Every index returns exactly the brute-force answer on every query.

This is the core invariant of the reproduction: an index is a layout +
pruning metadata, and pruning must never change results — only SO/times.
Parametrized over all 8 indexes x 3 data shapes x count/sum aggregates.
"""
import zlib

import numpy as np
import pytest

from repro.core.query import AGG_SUM, query_from_dict
from repro.indexes.clustered import ClusteredIndex
from repro.indexes.flood import FloodIndex, Layout
from repro.indexes.full_scan import FullScan
from repro.indexes.grid_file import GridFile
from repro.indexes.hyperoctree import Hyperoctree
from repro.indexes.kdtree import KDTree
from repro.indexes.rstar import RStarTree
from repro.indexes.ubtree import UBTree
from repro.indexes.zorder import ZOrderIndex

N, D = 3000, 4


def _factories():
    return {
        "full_scan": lambda: FullScan(),
        "clustered": lambda: ClusteredIndex(),
        "flood": lambda: FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 3])),
        "zorder": lambda: ZOrderIndex(page_size=128),
        "ubtree": lambda: UBTree(page_size=128),
        "hyperoctree": lambda: Hyperoctree(page_size=256),
        "kdtree": lambda: KDTree(page_size=128),
        "rstar": lambda: RStarTree(page_size=128),
        "grid_file": lambda: GridFile(page_size=256),
    }


def _data(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    if kind == "uniform":
        return rng.random((N, D)) * 100
    if kind == "skewed":
        return np.column_stack(
            [rng.lognormal(0, 1.5, N), rng.exponential(5, N),
             rng.random(N) * 10, rng.normal(50, 5, N)]
        )
    # discrete: integer-valued attrs with heavy ties
    return rng.integers(0, 25, (N, D)).astype(float)


def _queries(data, n_q, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_q):
        k = int(rng.integers(1, D + 1))
        dims = rng.choice(D, size=k, replace=False)
        bounds = {}
        for dim in dims:
            a, b = np.sort(rng.choice(data[:, dim], 2))
            bounds[int(dim)] = (float(a), float(b))
        agg = AGG_SUM if rng.random() < 0.4 else "count"
        out.append(query_from_dict(D, bounds, agg=agg, agg_dim=int(rng.integers(0, D))))
    return out


@pytest.fixture(scope="module")
def built():
    """Build each index once per data kind; queries are cheap."""
    cache = {}
    for kind in ("uniform", "skewed", "discrete"):
        data = _data(kind)
        wl = _queries(data, 10, seed=1)
        cache[kind] = (data, {n: f().build(data, wl) for n, f in _factories().items()})
    return cache


@pytest.mark.parametrize("kind", ["uniform", "skewed", "discrete"])
@pytest.mark.parametrize("name", list(_factories()))
@pytest.mark.parametrize("qi", range(8))
def test_index_matches_brute_force(built, kind, name, qi):
    data, indexes = built[kind]
    q = _queries(data, 8, seed=100 + qi)[qi]
    r = indexes[name].query(q)
    m = q.mask(data)
    if q.agg == AGG_SUM:
        assert np.isclose(r.value, data[m, q.agg_dim].sum()), name
    else:
        assert r.value == m.sum(), name
    assert r.n_matched == m.sum()
    assert r.n_matched <= r.n_scanned <= N
    assert (r.n_ranges >= 1) == (r.n_scanned > 0) and r.n_ranges <= r.n_scanned


@pytest.mark.parametrize("name", list(_factories()))
def test_point_lookup(built, name):
    """Equality predicates (OLTP-style point filters) work on every index."""
    data, indexes = built["discrete"]
    q = query_from_dict(D, {0: (7.0, 7.0), 1: (3.0, 3.0)})
    r = indexes[name].query(q)
    assert r.value == q.mask(data).sum()


@pytest.mark.parametrize("name", list(_factories()))
def test_open_ended_range(built, name):
    data, indexes = built["uniform"]
    q = query_from_dict(D, {2: (50.0, np.inf)})
    r = indexes[name].query(q)
    assert r.value == q.mask(data).sum()


@pytest.mark.parametrize("name", list(_factories()))
def test_empty_result(built, name):
    data, indexes = built["uniform"]
    q = query_from_dict(D, {0: (1e6, 2e6)})
    r = indexes[name].query(q)
    assert r.value == 0 and r.n_matched == 0


@pytest.mark.parametrize("name", list(_factories()))
def test_index_size_reported(built, name):
    _, indexes = built["uniform"]
    assert indexes[name].index_size_bytes() >= 0


@pytest.mark.parametrize("name", ["flood", "zorder", "kdtree", "hyperoctree", "rstar"])
def test_multidim_indexes_prune(built, name):
    """A tight 2-dim filter must scan well under the full table."""
    data, indexes = built["uniform"]
    q = query_from_dict(D, {0: (10.0, 20.0), 1: (10.0, 20.0)})
    r = indexes[name].query(q)
    assert r.n_scanned < N * 0.6, name


@pytest.mark.parametrize("with_workload", [False, True])
def test_rstar_prunes_on_many_seeds(with_workload):
    """STR leaf pages must not straddle tiles: the tight 2-dim filter of
    test_multidim_indexes_prune stays selective on every uniform seed."""
    q = query_from_dict(D, {0: (10.0, 20.0), 1: (10.0, 20.0)})
    for seed in range(200):
        data = np.random.default_rng(seed).random((N, D)) * 100
        wl = _queries(data, 10, seed=1) if with_workload else []
        r = RStarTree(page_size=128).build(data, wl).query(q)
        assert r.value == q.mask(data).sum()
        assert r.n_scanned < N * 0.6, seed


_EDGE_RANGES = [(np.nan, np.nan), (np.inf, np.inf), (-np.inf, -np.inf), (np.inf, -np.inf),
                (np.nan, np.inf), (-np.inf, np.nan), (0.5, np.inf), (0.6, 0.2)]


@pytest.mark.parametrize("with_inf", [False, True])
def test_open_and_nan_ranges_on_every_index(with_inf):
    """Only (-inf, +inf) leaves a dimension unfiltered: ``(inf, inf)``
    matches the +inf values, ``(-inf, -inf)`` the -inf ones, and a NaN
    bound matches nothing, on every index. Flood filters dim 1 as a grid
    dim and then as its sort dim; Clustered as its clustered dim too."""
    rng = np.random.default_rng(5)
    data = rng.random((2000, D))
    if with_inf:
        rows = rng.choice(2000, 9, replace=False)
        data[rows[:5], 1] = np.inf
        data[rows[5:], 1] = -np.inf
    indexes = {n: f() for n, f in _factories().items()}
    indexes["flood"] = FloodIndex(layout=Layout(order=[1, 0, 2, 3], cols=[5, 4, 3]))
    indexes["flood_sort_dim"] = FloodIndex(layout=Layout(order=[0, 2, 3, 1], cols=[4, 4, 3]))
    indexes["clustered_dim_1"] = ClusteredIndex(sort_dim=1)
    for name, idx in indexes.items():
        idx.build(data)
        for bounds in _EDGE_RANGES:
            for other in ({}, {0: (0.2, 0.7)}):
                q = query_from_dict(D, {1: bounds, **other})
                r = idx.query(q)
                m = q.mask(data)
                assert (r.value, r.n_matched) == (m.sum(), m.sum()), (name, bounds, other)
    if with_inf:
        for bounds, want in (((np.inf, np.inf), 5), ((-np.inf, -np.inf), 4)):
            assert query_from_dict(D, {1: bounds}).mask(data).sum() == want


def _inf_data():
    """Uniform data whose dim 1 holds 300 +inf and 300 -inf values."""
    rng = np.random.default_rng(6)
    data = rng.random((N, D)) * 100
    rows = rng.choice(N, 600, replace=False)
    data[rows[:300], 1] = np.inf
    data[rows[300:], 1] = -np.inf
    return data


@pytest.mark.parametrize("name", ["grid_file", "hyperoctree", "zorder", "ubtree"])
def test_infinite_values_leave_a_dimension_splittable(name):
    """Split points and Z-order coordinates come from the finite values,
    so a tight filter on a dimension holding ±inf still prunes, and the
    infinite rows are still found."""
    data = _inf_data()
    idx = _factories()[name]().build(data)
    q = query_from_dict(D, {1: (10.0, 20.0)})
    r = idx.query(q)
    assert r.n_matched == q.mask(data).sum()
    assert r.n_scanned < 2 * N // 3, r.n_scanned  # all N before the fix
    for bounds in ((np.inf, np.inf), (-np.inf, -np.inf), (50.0, np.inf), (-np.inf, 5.0)):
        for agg in ("count", "sum"):
            q = query_from_dict(D, {1: bounds, 0: (0.0, 70.0)}, agg=agg, agg_dim=2)
            m = q.mask(data)
            want = m.sum() if agg == "count" else data[m, 2].sum()
            r = idx.query(q)
            assert r.n_matched == m.sum(), bounds
            assert r.value == pytest.approx(want, rel=1e-12), bounds


def test_grid_file_adds_columns_on_an_infinite_dimension():
    grid = GridFile(page_size=64).build(_inf_data())
    assert grid.boundaries[1]
    assert np.isfinite(grid.boundaries[1]).all()


@pytest.mark.parametrize("name", list(_factories()) + ["flood_default_layout"])
def test_empty_table_answers_zero(name):
    """Every index builds a (0, d) table, with or without a workload,
    answers COUNT and SUM with no rows, as ``Query.mask`` does, and has
    no metadata."""
    data = np.empty((0, D))
    workload = _queries(np.random.default_rng(7).random((50, D)), 5, seed=8)
    for wl in (None, workload):
        idx = FloodIndex() if name == "flood_default_layout" else _factories()[name]()
        idx.build(data, wl)
        for bounds in ({}, {0: (0.2, 0.7)}, {1: (0.6, 0.2)}, {2: (np.nan, 1.0)},
                       {0: (-np.inf, np.inf), 3: (np.inf, np.inf)}):
            for agg in ("count", "sum"):
                q = query_from_dict(D, bounds, agg=agg, agg_dim=1)
                r = idx.query(q)
                assert q.mask(data).sum() == 0
                assert (r.value, r.n_matched, r.n_scanned) == (0, 0, 0), (bounds, agg)
        assert idx.index_size_bytes() == 0


@pytest.mark.parametrize("name", list(_factories()))
def test_rows_at_the_max_of_large_values_are_found(name):
    """Half-open boxes hold each dimension's largest value even where a
    fixed epsilon above it would round away (values near 1e9)."""
    data = np.random.default_rng(9).random((N, D)) * 1e9 + 1e9
    idx = _factories()[name]().build(data)
    for dim in range(D):
        top = data[:, dim].max()
        q = query_from_dict(D, {dim: (top, top)})
        assert idx.query(q).n_matched == q.mask(data).sum() == 1, dim
