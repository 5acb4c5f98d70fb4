"""Column store: scans, exact ranges, cumulative aggregates, counters."""
import math

import numpy as np
import pytest

from repro.columnstore.store import ColumnStore, prefix_sums
from repro.core.query import AGG_SUM, query_from_dict


@pytest.fixture
def data():
    rng = np.random.default_rng(13)
    return rng.random((1000, 3)) * 10


def test_full_range_count(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (2.0, 8.0)})
    s = st.scan([0], [1000], [False], q)
    assert s.value == s.n_matched == q.mask(data).sum()
    assert s.n_scanned == 1000


def test_multi_range_scan(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {1: (0.0, 5.0)})
    s = st.scan([0, 500], [200, 800], [False, False], q)
    sub = np.concatenate([data[0:200], data[500:800]])
    assert s.value == q.mask(sub).sum()
    assert s.n_scanned == 500


def test_exact_range_count_skips_checks(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (-1e9, 1e9)})
    s = st.scan([100], [300], [True], q)
    assert s.value == 200 and s.n_exact == 200 and s.n_matched == 200


def test_exact_range_sum_uses_prefix_sums(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)
    s = st.scan([100], [300], [True], q)
    assert np.isclose(s.value, data[100:300, 2].sum())


def test_sum_with_filter(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (3.0, 7.0)}, agg=AGG_SUM, agg_dim=1)
    s = st.scan([0], [1000], [False], q)
    m = q.mask(data)
    assert np.isclose(s.value, data[m, 1].sum())
    assert s.n_matched == m.sum()


def test_mixed_exact_and_filtered_ranges(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (0.0, 10.0)}, agg=AGG_SUM, agg_dim=0)
    s = st.scan([0, 100], [100, 400], [True, False], q)
    assert np.isclose(s.value, data[0:400, 0].sum())  # filter matches all here
    assert s.n_exact == 100 and s.n_scanned == 400


def test_empty_and_inverted_ranges(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (0, 1)})
    s = st.scan([10, 50], [10, 40], [False, True], q)
    assert s.n_scanned == 0 and s.value == 0


def test_many_random_ranges_match_brute_force(data):
    """1000 ranges: exact and filtered, empty and inverted, COUNT and SUM."""
    st = ColumnStore(data)
    rng = np.random.default_rng(21)
    starts = rng.integers(0, 1001, 1000)
    ends = np.where(rng.random(1000) < 0.2, starts - rng.integers(0, 3, 1000),
                    starts + rng.integers(0, 40, 1000)).clip(0, 1000)
    exact = rng.random(1000) < 0.5
    rows = [(i, bool(x)) for s, e, x in zip(starts, ends, exact) for i in range(s, e)]
    for q in (query_from_dict(3, {0: (2.0, 7.0)}),
              query_from_dict(3, {0: (2.0, 7.0), 2: (1.0, 9.0)}, agg=AGG_SUM, agg_dim=1),
              query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)):
        m = q.mask(data)
        hit = [i for i, x in rows if x or m[i]]
        s = st.scan(starts, ends, exact, q)
        assert s.n_scanned == len(rows)
        assert s.n_exact == sum(x for _, x in rows)
        assert s.n_ranges == int((ends > starts).sum())
        assert s.n_matched == len(hit)
        if q.agg == AGG_SUM:
            x = data[hit, q.agg_dim]
            assert abs(s.value - math.fsum(x)) <= 1e-9 * math.fsum(np.abs(x))
        else:
            assert s.value == len(hit)


def test_prefix_sums_are_correctly_rounded():
    rng = np.random.default_rng(4)
    for x in (rng.lognormal(0, 2, 150_000), rng.normal(0, 1, 150_000),
              np.concatenate([[1e15], rng.random(5000)])):
        p = prefix_sums(x)
        # every 4999th prefix, and both sides of the error pass's blocks
        for i in [*range(0, x.size + 1, 4999), 65535, 65536, 65537, x.size]:
            i = min(i, x.size)
            assert p[i] == math.fsum(x[:i])


def test_exact_sum_after_infinite_value(data):
    """An infinite value poisons the prefix sums after it; exact ranges
    there are summed directly and stay finite."""
    d = data.copy()
    d[10, 1] = np.inf
    st = ColumnStore(d)
    q = query_from_dict(3, {}, agg=AGG_SUM, agg_dim=1)
    assert st.scan([100], [300], [True], q).value == pytest.approx(d[100:300, 1].sum())
    assert st.scan([0], [300], [True], q).value == np.inf


def test_matrix_roundtrip(data):
    st = ColumnStore(data)
    assert np.array_equal(st.matrix(), data)


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        ColumnStore(np.zeros(5))
