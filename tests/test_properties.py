"""Property-based tests (hypothesis): index results == brute force for
arbitrary data shapes and query boxes; PLM/RMI invariants hold for
arbitrary sorted inputs; Flood's column edges reproduce the rank and
min-max column formulas bit for bit."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.plm import PLM
from repro.core.query import query_from_dict
from repro.core.rmi import RMI
from repro.indexes.flood import (EDGE_SAMPLE, FloodIndex, Layout, column_edges,
                                 column_of)
from repro.indexes.kdtree import KDTree
from repro.indexes.zorder import ZOrderIndex


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


# -- column edges vs the column formulas they replace ------------------------
def _rank_columns(sample, v, c):
    """Flattened oracle: a value of sample rank r lies in min(int((r/n)·c), c−1)."""
    r = np.searchsorted(np.sort(sample), v, side="right")
    return np.minimum((r / sample.size * c).astype(np.int64), c - 1)


def _minmax_columns(data, v, c):
    """Equal-width oracle: min(int(clip((v−min)/span, 0, 1)·c), c−1), with a
    NaN position in column 0 (where the formula's NaN-to-int cast put it)."""
    with np.errstate(all="ignore"):
        mn = data.min()
        u = np.clip((v - mn) / np.maximum(data.max() - mn, 1e-300), 0.0, 1.0)
    out = np.zeros(v.size, dtype=np.int64)
    ok = ~np.isnan(u)
    out[ok] = np.minimum((u[ok] * c).astype(np.int64), c - 1)
    return out


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
    edges = column_edges(data, c, flatten=False)
    assert edges.size == c - 1
    probes = _probes(data)
    got = column_of(edges, probes)
    num = ~np.isnan(probes)
    np.testing.assert_array_equal(got[num], _minmax_columns(data, probes[num], c))
    # NaN sorts after every number, in the last column
    assert (got[~num] == c - 1).all()


@given(st.lists(_values, min_size=1, max_size=300), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_flattened_edges_reproduce_rank_columns(vals, c):
    _check_flattened(np.asarray(vals), c)


@given(st.lists(_values, min_size=1, max_size=300), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_equal_width_edges_reproduce_minmax_columns(vals, c):
    _check_equal_width(np.asarray(vals), c)


def test_edges_on_ties_constant_column_and_one_column():
    for data in (np.repeat([1.0, 2.0, 3.0], [50, 1, 49]), np.full(20, 4.0)):
        for c in (1, 2, 3, 7):
            _check_flattened(data, c)
            _check_equal_width(data, c)
    const = np.full(20, 4.0)
    assert column_of(column_edges(const, 5), [3.9, 4.0, 4.1]).tolist() == [0, 4, 4]
    assert column_of(column_edges(const, 5, False), [3.9, 4.0, 4.1]).tolist() == [0, 0, 4]


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
    assert idx.index_size_bytes() == idx.cell_starts.nbytes + 8 * sum(c - 1 for c in cols)


@given(dataset_and_query(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_flood_index_size_is_cell_table_plus_edges(dq, flatten):
    data, _ = dq
    d = data.shape[1]
    cols = [3] * (d - 1)
    idx = FloodIndex(layout=Layout(order=list(range(d)), cols=cols, flatten=flatten)).build(data)
    assert idx.index_size_bytes() == idx.cell_starts.nbytes + 8 * sum(c - 1 for c in cols)
