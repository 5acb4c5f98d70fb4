"""Property-based tests (hypothesis): index results == brute force for
arbitrary data shapes and query boxes; PLM/RMI invariants hold for
arbitrary sorted inputs; Flood's flattened column edges reproduce the
rank column formula bit for bit, and its equal-width edges are the
arithmetic over the finite extent."""
import itertools
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.plm import PLM
from repro.core.query import Query, query_from_dict
from repro.core.rmi import RMI
from repro.indexes.clustered import ClusteredIndex
from repro.indexes.flood import (EDGE_SAMPLE, FloodIndex, Grid, Layout, _no_cells,
                                 column_edges, column_of)
from repro.indexes.full_scan import FullScan
from repro.indexes.grid_file import GridFile
from repro.indexes.hyperoctree import Hyperoctree
from repro.indexes.kdtree import KDTree
from repro.indexes.rstar import RStarTree
from repro.indexes.ubtree import UBTree
from repro.indexes.zorder import ZOrderIndex
from tests.test_bigmin import assert_ranges_match_walk, assert_zrange_matches_reference


@st.composite
def dataset_and_query(draw):
    n = draw(st.integers(50, 400))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "lognormal", "ints"]))
    if kind == "uniform":
        data = rng.random((n, d)) * 100
    elif kind == "lognormal":
        data = rng.lognormal(0, 2, (n, d))
    else:
        data = rng.integers(0, 12, (n, d)).astype(float)
    k = draw(st.integers(1, d))
    dims = rng.choice(d, size=k, replace=False)
    bounds = {}
    for dim in dims:
        a, b = np.sort(rng.choice(data[:, dim], 2))
        bounds[int(dim)] = (float(a), float(b))
    return data, query_from_dict(d, bounds)


@given(dataset_and_query())
@settings(max_examples=40, deadline=None)
def test_flood_equals_brute_force(dq):
    data, q = dq
    d = data.shape[1]
    cols = [2] * (d - 1)
    idx = FloodIndex(layout=Layout(order=list(range(d)), cols=cols)).build(data)
    assert idx.query(q).value == q.mask(data).sum()


_BOUND_SPECIAL = [np.nan, np.inf, -np.inf, 1e300, -1e300]


@st.composite
def adversarial_flood_case(draw):
    """Data with NaN in any column (the sort dim too); bounds from data
    values, NaN, ±inf and out-of-domain values, often inverted."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["uniform", "lognormal", "ints"]))
    if kind == "uniform":
        data = rng.random((n, d)) * 100
    elif kind == "lognormal":
        data = rng.lognormal(0, 2, (n, d))
    else:
        data = rng.integers(0, 6, (n, d)).astype(float)
    data[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = np.nan
    layout = Layout(order=[int(x) for x in rng.permutation(d)],
                    cols=draw(st.lists(st.integers(1, 40), min_size=d - 1, max_size=d - 1)),
                    flatten=draw(st.booleans()))
    bound = st.one_of(st.integers(0, n - 1), st.sampled_from(_BOUND_SPECIAL),
                      st.floats(-1e6, 1e6))
    bounds = {}
    for dim in draw(st.sets(st.integers(0, d - 1), min_size=1)):
        lo, hi = (float(data[b, dim]) if isinstance(b, int) else b
                  for b in (draw(bound), draw(bound)))
        bounds[dim] = (lo, hi)
    agg = draw(st.sampled_from(["count", "sum"]))
    return data, layout, query_from_dict(d, bounds, agg=agg, agg_dim=draw(st.integers(0, d - 1)))


@given(adversarial_flood_case())
@settings(max_examples=300, deadline=None)
def test_flood_equals_brute_force_on_adversarial_inputs(case):
    data, layout, q = case
    r = FloodIndex(layout=layout).build(data).query(q)
    m = q.mask(data)
    assert r.n_matched == m.sum()
    assert r.n_matched <= r.n_scanned <= data.shape[0]
    if q.agg == "count":
        assert r.value == m.sum()
    else:
        x = data[m, q.agg_dim]
        want = math.fsum(x)
        if np.isnan(want):
            assert np.isnan(r.value)
        else:
            assert abs(r.value - want) <= 1e-9 * math.fsum(np.abs(x))


@st.composite
def every_index_case(draw):
    """Integer-valued, float or mixed columns (so the scan filters both
    narrow codes and float64), with ties, a constant column, an all-ties
    Flood sort dim, d = 1, one row, some NaN and some ±inf and ±1e308
    (spans past the float range, sums that overflow); bounds from data
    values, fractional, out of domain, NaN and ±inf, sometimes inverted."""
    n = draw(st.sampled_from([1, 2, draw(st.integers(3, 200))]))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ints = rng.integers(-3, draw(st.sampled_from([4, 40, 70_000])), (n, d)).astype(float)
    floats = rng.random((n, d)) * 100 - 20
    kind = draw(st.sampled_from(["ints", "floats", "mixed"]))
    data = ints if kind == "ints" else floats if kind == "floats" else \
        np.where(rng.random(d) < 0.5, ints, floats)
    order = [int(x) for x in rng.permutation(d)]
    for dim in draw(st.sets(st.integers(0, d - 1), max_size=2)):
        data[:, dim] = data[0, dim]  # a constant column
    if draw(st.booleans()):
        data[:, order[-1]] = data[0, order[-1]]  # Flood's sort dim all ties
    data[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.0, 0.1]))] = np.nan
    wild = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.0, 0.1]))
    data[wild] = rng.choice([-np.inf, np.inf, -1e308, 1e308], wild.sum())
    bound = st.one_of(st.integers(0, n - 1), st.sampled_from(_BOUND_SPECIAL),
                      st.floats(-1e6, 1e6), st.sampled_from([0.5, -2.5, 3.5, 1e5]))
    queries = []
    for _ in range(3):
        bounds = {}
        for dim in draw(st.sets(st.integers(0, d - 1), min_size=1)):
            lo, hi = (float(data[b, dim]) if isinstance(b, int) else b
                      for b in (draw(bound), draw(bound)))
            # mostly ordered, a quarter of the inverted ones kept inverted
            bounds[dim] = (hi, lo) if hi < lo and draw(st.integers(0, 3)) else (lo, hi)
        for agg in ("count", "sum"):
            queries.append(query_from_dict(d, bounds, agg=agg, agg_dim=draw(st.integers(0, d - 1))))
    indexes = [FullScan(), ClusteredIndex(sort_dim=order[-1]),
               FloodIndex(layout=Layout(order=order, cols=draw(st.lists(
                   st.integers(1, 8), min_size=d - 1, max_size=d - 1)))),
               ZOrderIndex(page_size=8), UBTree(page_size=8), Hyperoctree(page_size=8),
               KDTree(page_size=8), RStarTree(page_size=8), GridFile(page_size=8)]
    return data, indexes, queries


def _sum_matches(value: float, x: np.ndarray) -> bool:
    """A SUM of the values ``x`` equals ``math.fsum`` within rounding, or
    is NaN with it. Where the magnitudes sum past the float range
    (``fsum`` overflows) no value is checked: there the order of the
    additions decides whether a SUM overflows."""
    try:
        scale = math.fsum(np.abs(x))
    except OverflowError:
        return True
    if not math.isfinite(scale):  # ±inf among the values, or NaN
        want = float(np.sum(x)) if not np.isnan(x).any() else math.nan
        return value == want or np.isnan(want) and np.isnan(value)
    return abs(value - math.fsum(x)) <= 1e-9 * scale


@given(every_index_case())
@settings(max_examples=150, deadline=None)
def test_every_index_equals_brute_force_on_adversarial_inputs(case):
    """All nine indexes answer COUNT and SUM as ``Query.mask`` does."""
    data, indexes, queries = case
    for idx in indexes:
        idx.build(data, queries)
        for q in queries:
            r = idx.query(q)
            m = q.mask(data)
            assert r.n_matched == m.sum(), (idx.name, q.ranges)
            if q.agg == "count":
                assert r.value == m.sum(), (idx.name, q.ranges)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert _sum_matches(r.value, data[m, q.agg_dim]), (idx.name, q.ranges)


@st.composite
def ubtree_case(draw):
    """The inputs above with some ±inf values too, at page size 1 or 8."""
    data, _, queries = draw(every_index_case())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    inf = rng.random(data.shape) < draw(st.sampled_from([0.0, 0.1]))
    data[inf] = rng.choice([-np.inf, np.inf], inf.sum())
    return data, queries, draw(st.sampled_from([1, 8]))


@given(ubtree_case())
@settings(max_examples=150, deadline=None)
def test_ubtree_ranges_match_walk_on_adversarial_inputs(case):
    """The UB-tree's array BIGMIN ranges are the per-page walk's, and its
    counts are brute force's. Its query corners' Z-values, and Z-order's,
    are the per-corner encoding's."""
    data, queries, page_size = case
    idx = UBTree(page_size=page_size).build(data, queries)
    zidx = ZOrderIndex(page_size=page_size).build(data, queries)
    for q in queries:
        assert_ranges_match_walk(idx, q)
        assert_zrange_matches_reference(idx, q)
        assert_zrange_matches_reference(zidx, q)
        assert idx.query(q).n_matched == q.mask(data).sum(), q.ranges


def test_zrange_matches_per_corner_encoding_on_special_bounds():
    """Every ordered pair of ±inf, NaN, out-of-domain and in-domain bounds,
    ``(inf, inf)`` and ``(-inf, -inf)`` among them, on each dimension of a
    table with a constant dimension and one holding ±inf and NaN, then on
    all three at once, and on a one-dimensional table."""
    rng = np.random.default_rng(5)
    data = np.column_stack([rng.random(300) * 50, np.full(300, 7.0), rng.lognormal(0, 2, 300)])
    data[:10, 2], data[10:20, 2], data[20:30, 2] = np.inf, -np.inf, np.nan
    values = [-np.inf, np.inf, np.nan, -1e300, 1e300, -5.0, 7.0, 25.0, 1e3]
    pairs = list(itertools.product(values, repeat=2))
    for idx in (ZOrderIndex(page_size=16), UBTree(page_size=16)):
        idx.build(data)
        for dim, (lo, hi) in itertools.product(range(3), pairs):
            assert_zrange_matches_reference(idx, query_from_dict(3, {dim: (lo, hi)}))
        for k in rng.choice(len(pairs), (300, 3)):
            assert_zrange_matches_reference(
                idx, query_from_dict(3, {dim: pairs[i] for dim, i in enumerate(k)}))
        idx.build(data[:, 2:])
        for lo, hi in pairs:
            assert_zrange_matches_reference(idx, query_from_dict(1, {0: (lo, hi)}))


def test_flood_sort_only_filters_exact_on_ten_thousand_cells():
    """A 100×100 grid over 30k rows: a filter on the sort dim alone visits
    every cell, and refinement leaves exactly the matching rows, all exact.
    An inverted (empty) range visits no cell."""
    rng = np.random.default_rng(8)
    data = np.column_stack([rng.random(30_000), rng.lognormal(0, 1, 30_000),
                            rng.integers(0, 500, 30_000).astype(float)])
    idx = FloodIndex(layout=Layout(order=[0, 1, 2], cols=[100, 100])).build(data)
    for lo, hi in ((10.0, 40.0), (250.0, 250.0), (-np.inf, 3.0), (499.0, np.inf), (60.0, 20.0)):
        q = query_from_dict(3, {2: (lo, hi)}, agg="sum", agg_dim=1)
        r = idx.query(q)
        m = q.mask(data)
        assert r.n_cells == (10_000 if lo <= hi else 0)
        assert r.n_scanned == r.n_matched == r.n_exact == m.sum()
        assert abs(r.value - math.fsum(data[m, 1])) <= 1e-9 * math.fsum(data[m, 1])


@given(dataset_and_query())
@settings(max_examples=25, deadline=None)
def test_zorder_equals_brute_force(dq):
    data, q = dq
    idx = ZOrderIndex(page_size=64).build(data)
    assert idx.query(q).value == q.mask(data).sum()


@given(dataset_and_query())
@settings(max_examples=25, deadline=None)
def test_kdtree_equals_brute_force(dq):
    data, q = dq
    idx = KDTree(page_size=32).build(data)
    assert idx.query(q).value == q.mask(data).sum()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
       st.floats(-1e6, 1e6))
@settings(max_examples=60, deadline=None)
def test_plm_lookup_exact_anywhere(vals, probe):
    v = np.sort(np.asarray(vals))
    m = PLM(v, delta=10)
    assert m.lookup_left(probe) == np.searchsorted(v, probe, side="left")
    assert m.lookup_right(probe) == np.searchsorted(v, probe, side="right")


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400))
@settings(max_examples=40, deadline=None)
def test_rmi_cdf_matches_empirical(vals):
    keys = np.asarray(vals)
    m = RMI(keys)
    srt = np.sort(keys)
    probes = np.concatenate([srt[:5], [srt[0] - 1, srt[-1] + 1]])
    expect = np.searchsorted(srt, probes, side="right") / keys.size
    assert np.allclose(m.cdf(probes), expect)


_HUGE = [8.99e307, -8.99e307, 1.7976931348623157e308, -1.7976931348623157e308, 1e300]
_any_float = st.one_of(st.sampled_from(_HUGE), st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(_any_float, min_size=1, max_size=300), st.lists(_any_float, max_size=8))
@example(vals=[8.99e307, 0.0, 1.175494351e-38], probes=[1e300])
@settings(max_examples=300, deadline=None)
def test_rmi_over_the_full_float_range(vals, probes):
    """Keys and bounds anywhere in the float range, up to ±1.8e308, NaN
    and ±inf included: the leaves fit without overflow, and every lookup
    equals searchsorted. In the example, 1e300 routes to the leaf of the
    two tiny keys, whose slope times 1e300 overflows."""
    keys = np.asarray(vals)
    m = RMI(keys)
    srt = np.sort(keys)
    probes = probes + vals[:4]
    for lo in probes:
        for hi in probes:
            want = (np.searchsorted(srt, lo, side="left"),
                    np.searchsorted(srt, hi, side="right"))
            assert m.lookup_range(lo, hi) == want, (lo, hi)


# -- column edges vs the column formulas they replace ------------------------
def _rank_columns(sample, v, c):
    """Flattened oracle: a value of sample rank r lies in min(int((r/n)·c), c−1)."""
    r = np.searchsorted(np.sort(sample), v, side="right")
    return np.minimum((r / sample.size * c).astype(np.int64), c - 1)


_SPECIAL = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0, 5e-324]
_values = st.one_of(st.sampled_from(_SPECIAL), st.integers(-3, 3).map(float),
                    st.floats(allow_nan=True, allow_infinity=True))


def _probes(data):
    with np.errstate(over="ignore"):
        return np.concatenate([data, _SPECIAL, np.nextafter(data, np.inf),
                               np.nextafter(data, -np.inf), [-1e308, 1e308]])


def _check_flattened(data, c):
    edges = column_edges(data, c)
    assert edges.size == c - 1
    probes = _probes(data)
    np.testing.assert_array_equal(column_of(edges, probes),
                                  _rank_columns(data, probes, c))


def _check_equal_width(data, c):
    """Edge k is lo + (hi − lo)·(k/c) over the finite values' extent (0
    and 0 when there are none), in Python floats; the edges ascend and are
    never NaN, so −inf lies in column 0 and +inf and NaN in the last."""
    edges = column_edges(data, c, flatten=False)
    finite = [x for x in data.tolist() if math.isfinite(x)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    np.testing.assert_array_equal(edges, [lo + (hi - lo) * (k / c) for k in range(1, c)])
    assert not np.isnan(edges).any() and (edges[1:] >= edges[:-1]).all()
    assert column_of(edges, [-np.inf, np.inf, np.nan]).tolist() == [0, c - 1, c - 1]


@given(st.lists(_values, min_size=1, max_size=300), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_flattened_edges_reproduce_rank_columns(vals, c):
    _check_flattened(np.asarray(vals), c)


@given(st.lists(_values, min_size=1, max_size=300), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_equal_width_edges_are_the_arithmetic_over_the_finite_extent(vals, c):
    _check_equal_width(np.asarray(vals), c)


def test_edges_on_ties_constant_column_and_one_column():
    for data in (np.repeat([1.0, 2.0, 3.0], [50, 1, 49]), np.full(20, 4.0)):
        for c in (1, 2, 3, 7):
            _check_flattened(data, c)
            _check_equal_width(data, c)
    const = np.full(20, 4.0)
    assert column_of(column_edges(const, 5), [3.9, 4.0, 4.1]).tolist() == [0, 4, 4]
    assert column_of(column_edges(const, 5, False), [3.9, 4.0, 4.1]).tolist() == [0, 4, 4]


def test_equal_width_edges_on_non_finite_and_huge_columns():
    """All-NaN and all-±inf columns span [0, 0]; ±inf and NaN values
    leave the extent alone; a span past the float range gives +inf
    edges, so every finite value lies in column 0."""
    cases = {
        "all NaN": [np.nan] * 5,
        "±inf only": [-np.inf, np.inf],
        "±inf around data": [-np.inf, 1.0, 3.0, np.inf, np.nan],
        "±1e308": [-1e308, 1e308],
        "+1e308 only": [1e308, 1.7976931348623157e308],
        "span near the float max": [0.0, 8.98846567431158e307],
    }
    for vals in cases.values():
        for c in (1, 2, 5, 40):
            _check_equal_width(np.asarray(vals), c)
    np.testing.assert_array_equal(column_edges([np.nan] * 5, 4, False), [0.0] * 3)
    np.testing.assert_array_equal(column_edges([-np.inf, 1.0, 3.0, np.inf], 4, False),
                                  [1.5, 2.0, 2.5])
    assert (column_edges([-1e308, 1e308], 4, False) == np.inf).all()


def _run_table_bytes(idx: FloodIndex, data: np.ndarray) -> int:
    """The run table's bytes: an int64 key and an int64 first row per
    distinct (cell, sort value) key of the rows, plus the end row ``n``."""
    rank = idx.sort_keys.searchsorted(data[:, idx.layout.sort_dim])
    runs = np.unique(idx._cell_ids(data) * idx.sort_keys.size + rank).size
    return 8 * (2 * runs + 1)


def test_flood_cells_on_sampled_path_match_rank_columns():
    """Above EDGE_SAMPLE rows, flattened edges come from a seeded sample;
    each row's cell is the rank formula over that same sample."""
    n = EDGE_SAMPLE + 20_000
    rng = np.random.default_rng(5)
    data = np.column_stack([rng.lognormal(0, 2, n), rng.integers(0, 30, n).astype(float),
                            rng.random(n)])
    cols = [13, 6]
    idx = FloodIndex(layout=Layout(order=[0, 1, 2], cols=cols)).build(data)
    samp = np.random.default_rng(0)
    s0 = samp.choice(data[:, 0], EDGE_SAMPLE, replace=False)
    s1 = samp.choice(data[:, 1], EDGE_SAMPLE, replace=False)
    want = _rank_columns(s0, data[:, 0], 13) * 6 + _rank_columns(s1, data[:, 1], 6)
    np.testing.assert_array_equal(idx._cell_ids(data), want)
    assert idx.index_size_bytes() == (idx.cell_starts.nbytes + 8 * sum(c - 1 for c in cols)
                                      + _run_table_bytes(idx, data) + idx.sort_keys.nbytes)


@given(dataset_and_query(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_flood_index_size_is_cell_table_plus_edges(dq, flatten):
    data, _ = dq
    d = data.shape[1]
    cols = [3] * (d - 1)
    idx = FloodIndex(layout=Layout(order=list(range(d)), cols=cols, flatten=flatten)).build(data)
    assert idx.index_size_bytes() == (idx.cell_starts.nbytes + 8 * sum(c - 1 for c in cols)
                                      + _run_table_bytes(idx, data) + idx.sort_keys.nbytes)


@given(dataset_and_query())
@settings(max_examples=20, deadline=None)
def test_paged_index_size_is_page_arrays(dq):
    """A paged baseline's metadata is its page table: row ranges that
    tile the table and one box per page, plus the Grid File's NaN flags
    and boundaries and Z-order's Z-values. The UB-tree keeps no boxes,
    only its row ranges and Z-values."""
    data, _ = dq
    n, d = data.shape
    for idx in (ZOrderIndex(page_size=16), UBTree(page_size=16), Hyperoctree(page_size=16),
                KDTree(page_size=16), RStarTree(page_size=16), GridFile(page_size=16)):
        idx.build(data)
        pages = idx.starts.size
        assert idx.starts[0] == 0 and idx.ends[-1] == n and (idx.ends > idx.starts).all()
        np.testing.assert_array_equal(idx.starts[1:], idx.ends[:-1])
        if isinstance(idx, UBTree):
            assert not hasattr(idx, "lo") and not hasattr(idx, "hi")
            assert idx.index_size_bytes() == (idx.starts.nbytes + idx.ends.nbytes
                                              + idx.zvals.nbytes)
            continue
        assert idx.lo.shape == idx.hi.shape == (pages, d)
        want = idx.starts.nbytes + idx.ends.nbytes + idx.lo.nbytes + idx.hi.nbytes
        if isinstance(idx, GridFile):
            want += idx.has_nan.nbytes + 8 * sum(len(b) for b in idx.boundaries)
        if isinstance(idx, ZOrderIndex):
            want += idx.zvals.nbytes
        assert idx.index_size_bytes() == want, idx.name


# -- projection vs the numpy projection it replaced ---------------------------
def _numpy_project(layout: Layout, edges: list[np.ndarray], nan_free: list[bool], q: Query):
    """Flood's projection as it was: numpy edges, ``searchsorted`` per bound."""
    lo, hi = q.ranges[layout.sort_dim]
    if not lo <= hi:
        return _no_cells()
    col_ranges: list[tuple[int, int]] = []
    interior_masks: list[np.ndarray] = []
    for dim, c, e, nf in zip(layout.grid_dims, layout.cols, edges, nan_free):
        if q.filters(dim):
            lo, hi = q.ranges[dim]
            if not lo <= hi:
                return _no_cells()
            # only ±inf is open
            clo = 0 if lo == -np.inf else int(column_of(e, lo))
            chi = c - 1 if hi == np.inf else int(column_of(e, hi))
            cols = np.arange(clo, chi + 1)
            # interior columns match the filter for sure (see §3.2.1);
            # boundary columns need per-point checks
            inner = (cols > clo) & (cols < chi)
            if lo == -np.inf:
                inner |= cols < chi
            if hi == np.inf:
                inner |= cols > clo
                # NaN values, which match no filter, sit in the last column
                inner[-1] &= nf
            col_ranges.append((clo, chi))
            interior_masks.append(inner)
        else:
            col_ranges.append((0, c - 1))
            interior_masks.append(np.ones(c, dtype=bool))
    # cartesian product of column ranges → cell ids (row-major strides).
    # Singleton dims (1 column, or an unfiltered narrow range) fold into
    # a constant; only non-singleton dims pay an outer-sum — much
    # cheaper than a d-way meshgrid for the common mostly-1-column case.
    strides = np.ones(len(layout.cols), dtype=np.int64)
    for i in range(len(layout.cols) - 2, -1, -1):
        strides[i] = strides[i + 1] * layout.cols[i + 1]
    const = 0
    arrs: list[np.ndarray] = []
    iconst = True
    iarrs: list[np.ndarray] = []
    for (lo, hi), s, im in zip(col_ranges, strides, interior_masks):
        if hi == lo:
            const += lo * s
            iconst = iconst and bool(im[0])
        else:
            arrs.append(np.arange(lo, hi + 1) * s)
            iarrs.append(im)
    if not arrs:
        cells = np.array([const], dtype=np.int64)
    else:
        acc = arrs[0]
        for a in arrs[1:]:
            acc = (acc[:, None] + a[None, :]).ravel()
        cells = acc + const
    if not iconst:
        interior_ok = np.zeros(cells.size, dtype=bool)
    elif not iarrs:
        interior_ok = np.ones(cells.size, dtype=bool)
    else:
        iacc = iarrs[0]
        for a in iarrs[1:]:
            iacc = (iacc[:, None] & a[None, :]).ravel()
        interior_ok = iacc
    return cells, col_ranges, interior_ok


_BOUNDS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]
_PAIRS = [(np.inf, np.inf), (-np.inf, -np.inf), (-np.inf, np.inf), (np.inf, -np.inf),
          (np.nan, np.nan)]


@st.composite
def projection_case(draw):
    """A layout with 1 to 40 columns per grid dim, flattened or
    equal-width, over values holding NaN and ±inf (so flattened edges can
    be NaN), per-dim ``nan_free`` flags, and a query whose bounds are data
    values, edges, ±inf, NaN, out of domain, often inverted."""
    d = draw(st.integers(1, 4))
    layout = Layout(order=draw(st.permutations(range(d))),
                    cols=draw(st.lists(st.integers(1, 40), min_size=d - 1, max_size=d - 1)),
                    flatten=draw(st.booleans()))
    edges, values = [], []
    for c in layout.cols:
        vals = np.asarray(draw(st.lists(_values, min_size=1, max_size=60)))
        edges.append(column_edges(vals, c, layout.flatten))
        values.append(np.concatenate([vals, edges[-1]]))
    nan_free = draw(st.lists(st.booleans(), min_size=d - 1, max_size=d - 1))
    pool = dict(zip(layout.grid_dims, values))
    bounds = {}
    for dim in draw(st.sets(st.integers(0, d - 1))):
        near = st.sampled_from(pool[dim].tolist()) if dim in pool else st.nothing()
        bound = st.one_of(near, st.sampled_from(_BOUNDS), st.floats(-1e6, 1e6))
        bounds[dim] = draw(st.one_of(st.tuples(bound, bound), st.sampled_from(_PAIRS)))
    return layout, edges, nan_free, query_from_dict(d, bounds)


def _same_projection(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[1] == want[1]
    np.testing.assert_array_equal(got[2], want[2])


@given(projection_case())
@settings(max_examples=400, deadline=None)
def test_projection_equals_numpy_projection(case):
    """``Grid.project`` gives the numpy projection's cells, column ranges
    and interior flags, directly and through ``sparkglue``."""
    from repro.sparkglue.layout import SparkFloodLayout, project_bounds

    layout, edges, nan_free, q = case
    got = Grid(layout, edges, nan_free).project(q)
    _same_projection(got, _numpy_project(layout, edges, nan_free, q))
    names = [f"c{i}" for i in range(q.d)]
    sfl = SparkFloodLayout(grid=Grid(layout, edges, [False] * len(edges)), dim_cols=names)
    bounds = {names[dim]: tuple(q.ranges[dim]) for dim in q.filtered_dims}
    _same_projection(project_bounds(sfl, bounds),
                     _numpy_project(layout, edges, [False] * len(edges), q))
