"""Every index returns exactly the brute-force answer on every query.

This is the core invariant of the reproduction: an index is a layout +
pruning metadata, and pruning must never change results — only SO/times.
Parametrized over all 8 indexes x 3 data shapes x count/sum aggregates.
"""
import zlib

import numpy as np
import pytest

from repro.core.query import AGG_SUM, query_from_dict
from repro.indexes.base import page_hits
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

#: the indexes that find pages by their boxes
_PAGED = {"zorder": ZOrderIndex, "hyperoctree": Hyperoctree, "kdtree": KDTree,
          "rstar": RStarTree, "grid_file": GridFile}
#: the indexes that halve half-open boxes while building and store them closed
_HALVING = ("hyperoctree", "grid_file")


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


@pytest.mark.parametrize("name", list(_factories()))
def test_nan_data_on_every_index(name):
    """NaN values, which match no filter, in every dimension: COUNT and
    SUM equal ``Query.mask`` on every index, with bounds drawn from the
    data (NaN ones too, which match nothing)."""
    rng = np.random.default_rng(11)
    data = rng.random((N, D)) * 100
    data[rng.random((N, D)) < 0.05] = np.nan
    idx = _factories()[name]().build(data, _queries(data, 10, seed=1))
    for base in _queries(data, 30, seed=12) + [query_from_dict(D, {0: (50.0, np.inf)})]:
        bounds = {int(d): tuple(base.ranges[d]) for d in base.filtered_dims}
        for agg in ("count", "sum"):
            q = query_from_dict(D, bounds, agg=agg, agg_dim=base.agg_dim)
            r = idx.query(q)
            m = q.mask(data)
            assert r.n_matched == m.sum(), q.ranges
            want = m.sum() if agg == "count" else data[m, q.agg_dim].sum()
            assert np.isclose(r.value, want, rtol=1e-12, equal_nan=True), q.ranges


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


@pytest.mark.parametrize("name", list(_PAGED))
@pytest.mark.filterwarnings("error")
def test_nan_values_leave_a_dimension_prunable(name):
    """Splits and page boxes come from the non-NaN values, so a tight
    filter on a dimension holding 5% NaN prunes about as well as on a
    NaN-free copy (the k-d tree, hyperoctree and Grid File scanned every
    row, the R-tree and Z-order about twice as many), with no warning,
    even when a column is all NaN."""
    rng = np.random.default_rng(13)
    clean = rng.random((3000, 3))
    data = clean.copy()
    data[rng.random(3000) < 0.05, 1] = np.nan
    q = query_from_dict(3, {1: (0.1, 0.2)})
    cls = _PAGED[name]
    want = cls(page_size=64).build(clean).query(q).n_scanned
    r = cls(page_size=64).build(data).query(q)
    assert r.n_matched == q.mask(data).sum()
    assert r.n_scanned < 1.3 * want, (r.n_scanned, want)
    data[:, 2] = np.nan
    idx = cls(page_size=64).build(data)
    for bounds in ({1: (0.1, 0.2)}, {2: (0.1, 0.2)}, {0: (0.3, 0.6)}, {2: (-np.inf, np.inf)}):
        for agg in ("count", "sum"):
            q = query_from_dict(3, bounds, agg=agg, agg_dim=0)
            m = q.mask(data)
            r = idx.query(q)
            assert r.n_matched == m.sum(), bounds
            assert r.value == pytest.approx(m.sum() if agg == "count" else data[m, 0].sum(),
                                            rel=1e-12), bounds


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
    """Page boxes hold each dimension's largest value even where a
    fixed epsilon above it would round away (values near 1e9)."""
    data = np.random.default_rng(9).random((N, D)) * 1e9 + 1e9
    idx = _factories()[name]().build(data)
    for dim in range(D):
        top = data[:, dim].max()
        q = query_from_dict(D, {dim: (top, top)})
        assert idx.query(q).n_matched == q.mask(data).sum() == 1, dim


@pytest.mark.parametrize("name", list(_factories()))
def test_nan_and_inf_rows_beside_a_constant_dimension(name):
    """A dimension whose finite values are all one value, plus NaN and
    +inf rows: a query that leaves it unfiltered, or open above, still
    finds those rows (Z-order and the UB-tree quantized the open side to
    the constant's coordinate, below the rows')."""
    rng = np.random.default_rng(14)
    data = rng.random((N, D)) * 100
    data[:, 1] = 5.0
    data[rng.random(N) < 0.1, 1] = np.nan
    data[rng.random(N) < 0.05, 1] = np.inf
    idx = _factories()[name]().build(data)
    for bounds in ({0: (20.0, 60.0)}, {0: (20.0, 60.0), 1: (5.0, np.inf)},
                   {1: (6.0, np.inf)}):
        for agg in ("count", "sum"):
            q = query_from_dict(D, bounds, agg=agg, agg_dim=2)
            m = q.mask(data)
            want = m.sum() if agg == "count" else data[m, 2].sum()
            r = idx.query(q)
            assert r.n_matched == m.sum(), bounds
            assert r.value == pytest.approx(want, rel=1e-12), bounds


def _loop_ranges(idx, q):
    """Physical ranges and page count of a paged index, one page at a
    time over its stored boxes: the reference the vectorized box test
    must equal."""
    qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
    filtered = (qlo != -np.inf) | (qhi != np.inf)
    s, e = 0, idx.n
    pages = range(len(idx.starts))
    if isinstance(idx, ZOrderIndex):
        # only the pages between the Z-values of the rectangle's corners
        zmin, zmax = idx._query_zrange(q)
        s = int(np.searchsorted(idx.zvals, zmin, side="left"))
        e = int(np.searchsorted(idx.zvals, zmax, side="right"))
        ps = idx.page_size
        pages = range(s // ps, min((max(e, s + 1) - 1) // ps + 1, len(idx.starts)))
    ranges = []
    n_pages = 0
    rows = idx.store.matrix()
    for p in pages:
        lo, hi = idx.lo[p], idx.hi[p]
        if (lo > qhi).any() or (hi < qlo).any():
            continue
        n_pages += 1
        start, end = max(int(idx.starts[p]), s), min(int(idx.ends[p]), e)
        exact = False
        if isinstance(idx, GridFile):
            # inside the rectangle, and no NaN in a filtered dimension
            nan = np.isnan(rows[start:end]).any(axis=0)
            exact = bool((lo >= qlo).all() and (hi <= qhi).all() and not (nan & filtered).any())
        ranges.append((start, end, exact))
    return ranges, n_pages


def _boxes_hold_their_rows(idx):
    rows = idx.store.matrix()
    for p, (s, e) in enumerate(zip(idx.starts, idx.ends)):
        v = rows[s:e]
        inside = (v >= idx.lo[p]) & (v <= idx.hi[p])
        assert (inside | np.isnan(v)).all(), p


def _half_open_page_hits(lo: np.ndarray, hi: np.ndarray, q, half_open: bool) -> np.ndarray:
    """Indices of the pages whose box meets the rectangle of ``q``.

    Page ``k``'s box is ``[lo[k], hi[k]]``, or ``[lo[k], hi[k])`` when
    ``half_open``. A NaN edge never prunes. A tree's leaf box lies inside
    its ancestors' boxes, so testing the leaves alone finds exactly the
    leaves a walk from the root would reach.
    """
    qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
    if half_open:
        # a box whose top is +inf holds the +inf values: a lower bound of
        # +inf cuts at the largest float instead
        below = hi <= np.minimum(qlo, np.finfo(np.float64).max)
    else:
        below = hi < qlo
    return np.flatnonzero(~((lo > qhi) | below).any(axis=1))


@pytest.mark.parametrize("values", ["finite", "inf", "nan"])
@pytest.mark.parametrize("name", list(_PAGED))
def test_page_box_test_equals_a_loop_over_the_pages(name, values):
    """Every paged index's ranges, their exactness and its page count equal
    a per-page loop over its stored boxes, on data with ±inf and NaN and
    on bounds from the data, the box edges, ±inf, NaN and out-of-domain
    values; and every box holds its page's non-NaN values. The indexes that
    halve half-open boxes hit the same pages as the half-open test on the
    tops those boxes had while building: the next float above the closed
    top, +inf staying +inf."""
    cls = _PAGED[name]
    rng = np.random.default_rng(zlib.crc32(f"{name}/{values}".encode()))
    data = rng.integers(0, 40, (N, D)).astype(float)
    data[:, 2:] = rng.random((N, 2)) * 100
    if values == "inf":
        data[rng.random((N, D)) < 0.03] = np.inf
        data[rng.random((N, D)) < 0.03] = -np.inf
    elif values == "nan":
        data[rng.random((N, D)) < 0.05] = np.nan
    idx = cls(page_size=64).build(data, _queries(data, 10, seed=1))
    _boxes_hold_their_rows(idx)
    half_open_hi = np.nextafter(idx.hi, np.inf)
    pool = np.concatenate([data.ravel(), idx.lo.ravel(), idx.hi.ravel(),
                           [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.5, -2.5]]
                          + ([half_open_hi.ravel()] if name in _HALVING else []))
    pool = pool[~np.isnan(pool)]
    checked = n_exact = 0
    for _ in range(300):
        bounds = {}
        for dim in rng.choice(D, size=int(rng.integers(1, D + 1)), replace=False):
            k = rng.integers(0, 6)
            bounds[int(dim)] = [(np.inf, np.inf), (-np.inf, -np.inf)][k] if k < 2 else tuple(
                np.sort(rng.choice(pool, 2)))
        q = query_from_dict(D, bounds)
        starts, ends, exact, n_pages = idx._ranges(q)
        ranges, want = _loop_ranges(idx, q)
        assert n_pages == want, bounds
        if name in _HALVING:
            np.testing.assert_array_equal(page_hits(idx.lo, idx.hi, q),
                                          _half_open_page_hits(idx.lo, half_open_hi, q, True))
        assert list(zip(starts.tolist(), ends.tolist(), exact.tolist())) == ranges, bounds
        checked += bool(ranges)
        n_exact += int(exact.sum())
    assert checked > 100
    assert n_exact > 0 or name != "grid_file"


@pytest.mark.parametrize("name", list(_PAGED))
def test_hit_pages_in_a_row_scan_as_one_range(built, name):
    """The scan reads each run of consecutive hit pages as one range: a
    paged index's ``n_ranges`` is the number of maximal runs of consecutive
    inexact hit pages, plus its exact pages (Grid File buckets inside the
    rectangle), which are never merged."""
    n_runs = n_hits = 0
    for kind in ("uniform", "skewed", "discrete"):
        data, indexes = built[kind]
        idx = indexes[name]
        for q in _queries(data, 30, seed=40) + [query_from_dict(D, {0: (10.0, 60.0)})]:
            ranges, n_pages = _loop_ranges(idx, q)
            pages = np.searchsorted(idx.starts, [s for s, _, _ in ranges], side="right") - 1
            exact = np.array([x for _, _, x in ranges], dtype=bool)
            inexact = pages[~exact]
            want = int(exact.sum()) + int(np.count_nonzero(np.diff(inexact) != 1)) + bool(
                inexact.size)
            assert idx.query(q).n_ranges == want, (kind, q.ranges)
            n_runs += want
            n_hits += n_pages
    assert n_runs < n_hits  # some hit pages lie in a row


def test_grid_file_bucket_under_a_query_top_at_its_largest_value_is_exact():
    """A bucket whose closed top equals the query's top lies inside the
    rectangle: the column max makes every bucket exact along that dim, and
    an inner bucket's top makes that bucket exact; both equal brute force."""
    data = _data("uniform")
    idx = GridFile(page_size=256).build(data)
    top = data[:, 0].max()
    k = int(np.argmin(idx.hi[:, 0]))
    assert idx.hi[k, 0] < top
    for bounds, pages in (({0: (data[:, 0].min(), top)}, np.arange(len(idx.starts))),
                          ({0: (idx.lo[k, 0], idx.hi[k, 0])}, np.array([k]))):
        starts, _, exact, _ = idx._ranges(query_from_dict(D, bounds))
        assert set(idx.starts[pages].tolist()) <= set(starts[exact].tolist()), bounds
        for agg in ("count", "sum"):
            q = query_from_dict(D, bounds, agg=agg, agg_dim=2)
            m = q.mask(data)
            r = idx.query(q)
            assert r.n_exact >= (idx.ends[pages] - idx.starts[pages]).sum(), bounds
            assert r.n_matched == m.sum(), bounds
            assert r.value == pytest.approx(m.sum() if agg == "count" else data[m, 2].sum(),
                                            rel=1e-12), bounds


@pytest.mark.parametrize("name", ["zorder", "ubtree"])
def test_minus_inf_rows_found_when_the_finite_span_passes_the_float_range(name):
    """Finite values from −1e308 to 1e308 span 2e308, past the largest
    float: the Z-grid scales them in halves, so −inf rows still quantize
    to the bottom coordinate and ``[−inf, 0]`` finds them."""
    values = [-np.inf, -1e308, 0.0, 1.0, 1e308, np.inf]
    data = np.repeat(values, 10)[:, None]
    idx = _factories()[name]().build(data)
    for lo, hi in ((-np.inf, 0.0), (-np.inf, -np.inf), (1.0, np.inf), (-1e308, 1e308)):
        q = query_from_dict(1, {0: (lo, hi)})
        assert idx.query(q).n_matched == q.mask(data).sum() > 0, (lo, hi)


def _wild_tables():
    """Tables with one column that is all −inf, of values from {±1e308,
    ±1.7e308, 0}, of values in [1e308, 1.7e308] or holding the largest
    float: sums, midpoints and medians over them pass the float range."""
    rng = np.random.default_rng(17)
    n = 300
    rest = rng.random((n, 2)) * 100
    cols = {"all -inf": np.full(n, -np.inf),
            "huge, both signs": rng.choice([1e308, -1e308, 1.7e308, -1.7e308, 0.0], n),
            "huge, one sign": rng.uniform(1e308, 1.7e308, n),
            "largest float": np.where(rng.random(n) < 0.5, np.finfo(np.float64).max, rest[:, 1])}
    return {k: np.column_stack([rest[:, 0], c, rest[:, 1]]) for k, c in cols.items()}


@pytest.mark.parametrize("table", list(_wild_tables()))
@pytest.mark.parametrize("name", list(_factories()) + ["flood_sorted"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_and_infinite_columns_build_and_answer_without_warnings(name, table):
    """Every index builds on a column past the float range and answers
    COUNT and a SUM over it with no RuntimeWarning, matching brute force;
    Flood with that column as a grid dim and as its sort dim."""
    data = _wild_tables()[table]
    make = {"clustered": lambda: ClusteredIndex(sort_dim=1),
            "flood": lambda: FloodIndex(layout=Layout(order=[0, 1, 2], cols=[4, 3])),
            "flood_sorted": lambda: FloodIndex(layout=Layout(order=[1, 0, 2], cols=[4, 3]))}
    idx = (make.get(name) or _factories()[name])().build(data)
    for bounds in ({1: (-np.inf, 0.0)}, {0: (10.0, 60.0)}, {0: (10.0, 60.0), 1: (1.2e308, np.inf)},
                   {}, {1: (-np.inf, -np.inf)}):
        for agg in ("count", "sum"):
            q = query_from_dict(3, bounds, agg=agg, agg_dim=1)
            r = idx.query(q)
            m = q.mask(data)
            assert r.n_matched == m.sum(), (bounds, agg)
            if agg == "count":
                assert r.value == m.sum(), bounds
