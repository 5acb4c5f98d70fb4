"""Column store: scans, exact ranges, cumulative aggregates, counters."""
import math
import time

import numpy as np
import pytest

from contextlib import nullcontext

from repro.columnstore.store import SUM_RTOL, ColumnStore, _take, narrow, prefix_sums
from repro.core.query import AGG_SUM, Query, QueryResult, query_from_dict


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


def _ranges_read(starts, ends, exact) -> int:
    """``n_ranges`` by the scan's rule: each nonempty exact range, plus one
    per run of nonempty inexact ranges in which every range starts where
    the inexact range before it ends."""
    n, stop = 0, None
    for s, e, x in zip(np.asarray(starts).tolist(), np.asarray(ends).tolist(),
                       np.asarray(exact).tolist()):
        if e <= s:
            continue
        if x:
            n += 1
        else:
            n += s != stop
            stop = e
    return n


def test_touching_inexact_ranges_read_as_one_slice(data):
    """``[0, 100)`` and ``[100, 300)``, both inexact, scan bit for bit like
    ``[0, 300)`` as one range; two touching exact ranges stay two."""
    st = ColumnStore(data)
    for q in (query_from_dict(3, {0: (2.0, 7.0)}),
              query_from_dict(3, {0: (2.0, 7.0), 2: (1.0, 9.0)}, agg=AGG_SUM, agg_dim=1),
              query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)):
        got = st.scan([0, 100], [100, 300], [False, False], q)
        want = st.scan([0], [300], [False], q)
        assert got.value.hex() == want.value.hex()
        assert (got.n_scanned, got.n_matched, got.n_exact, got.n_ranges) == \
            (want.n_scanned, want.n_matched, want.n_exact, 1)
        assert st.scan([0, 100], [100, 300], [True, True], q).n_ranges == 2
        # an exact range between two inexact ones keeps them apart
        assert st.scan([0, 100, 200], [100, 200, 300], [False, True, False], q).n_ranges == 3


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
        assert s.n_ranges == _ranges_read(starts, ends, exact)
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


def test_scan_gather_reads_runs_through_scan():
    """Positions of mixed exact and inexact runs, touching runs and a lone
    position: COUNT and SUM equal the brute-force mask, and the counters
    equal ``scan`` over the same runs; an empty position array scans
    nothing."""
    rng = np.random.default_rng(29)
    data = rng.random((1000, 3)) * 10
    data[:, 0] = np.linspace(0.0, 10.0, 1000)  # rows 200..699 hold [2, 7]
    st = ColumnStore(data)
    runs = [(150, 230, False), (230, 260, True), (260, 300, False), (300, 320, False),
            (320, 330, True), (330, 340, True), (500, 501, False), (600, 601, True),
            (690, 720, False), (900, 950, False)]
    idx = np.concatenate([np.arange(s, e) for s, e, _ in runs])
    exact_mask = np.concatenate([np.full(e - s, x) for s, e, x in runs])
    starts, ends, exact = (np.array(c) for c in zip(*runs))
    for q in (query_from_dict(3, {0: (2.0, 7.0)}),
              query_from_dict(3, {0: (2.0, 7.0)}, agg=AGG_SUM, agg_dim=1),
              query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)):
        m = q.mask(data)
        assert m[idx[exact_mask]].all()  # the exact runs really match
        got = st.scan_gather(idx, exact_mask, q)
        hit = idx[m[idx]]
        if q.agg == AGG_SUM:
            assert np.isclose(got.value, data[hit, q.agg_dim].sum())
        else:
            assert got.value == hit.size
        want = st.scan(starts, ends, exact, q)
        assert (got.n_scanned, got.n_matched, got.n_exact) == \
            (want.n_scanned, want.n_matched, want.n_exact)
        none = st.scan_gather(np.array([], dtype=np.int64), np.array([], dtype=bool), q)
        assert (none.value, none.n_scanned, none.n_matched, none.n_exact, none.n_ranges) == \
            (0, 0, 0, 0, 0)


# -- the gather scan that range slices replaced, kept as the reference ------
def _positions(starts: np.ndarray, ends: np.ndarray):
    """The rows of the nonempty ranges ``[starts[k], ends[k])`` in order:
    a slice for one range, else one ``repeat`` of each range's shift."""
    if starts.size == 1:
        return slice(int(starts[0]), int(ends[0]))
    lens = ends - starts
    shift = starts - (np.cumsum(lens) - lens)
    return np.repeat(shift, lens) + np.arange(int(lens.sum()))


def _gather_scan(self: ColumnStore, starts: np.ndarray, ends: np.ndarray,
                 exact: np.ndarray, q: Query) -> QueryResult:
    """``ColumnStore.scan`` as it was: inexact ranges gathered through one
    position array (``n_ranges`` counted by today's rule)."""
    t0 = time.perf_counter()
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    exact = np.asarray(exact, dtype=bool)
    keep = ends > starts
    ex = keep & exact
    inex = keep ^ ex
    want_sum = q.agg == AGG_SUM
    agg_col = self.cols[q.agg_dim] if want_sum else None
    total = 0.0

    n_exact = n_scanned = n_matched = 0
    if np.count_nonzero(ex):
        ex_s, ex_e = starts[ex], ends[ex]
        n_exact = n_scanned = n_matched = int((ex_e - ex_s).sum())
        if not want_sum:
            total += n_exact
        else:
            cs = self._cums[q.agg_dim]
            ps, pe = cs[ex_s], cs[ex_e]
            # prefix sums are within half an ulp, so pe - ps errs by
            # under 2**-52·(|ps| + |pe|); NaN (inf - inf) fails the test too
            with np.errstate(invalid="ignore"):
                sums = pe - ps
                direct = ~(np.ldexp(np.abs(ps) + np.abs(pe), -52)
                           <= SUM_RTOL * np.abs(sums))
            for k in np.flatnonzero(direct).tolist():
                sums[k] = agg_col[ex_s[k]:ex_e[k]].sum()
            total += float(sums.sum())
    if np.count_nonzero(inex):
        idx = _positions(starts[inex], ends[inex])
        m = idx.stop - idx.start if isinstance(idx, slice) else idx.size
        n_scanned += m
        mask = None
        for dim in q.filtered_dims:
            col = self.cols[dim][idx]
            lo, hi = q.ranges[dim]
            cond = (col >= lo) & (col <= hi)
            mask = cond if mask is None else (mask & cond)
        if mask is None:
            k = m
            if want_sum:
                total += float(agg_col[idx].sum())
        else:
            k = int(mask.sum())
            if want_sum and k:
                total += float(agg_col[idx][mask].sum())
        n_matched += k
        if not want_sum:
            total += k
    return QueryResult(
        value=total,
        n_scanned=n_scanned,
        n_matched=n_matched,
        n_exact=n_exact,
        n_ranges=_ranges_read(starts, ends, exact),
        scan_time=time.perf_counter() - t0,
    )


def _range_set(rng, n):
    """One random range set: a single range, many short ones, long ones,
    or none; some empty or inverted; exact and inexact mixed."""
    kind = rng.integers(4)
    k = 1 if kind == 0 else int(rng.integers(0, 4)) if kind == 3 else int(rng.integers(2, 300))
    length = rng.integers(0, 9, k) if kind == 1 else rng.integers(0, n // 4, k)
    starts = rng.integers(0, n + 1, k)
    ends = np.where(rng.random(k) < 0.15, starts - rng.integers(0, 5, k), starts + length)
    exact = rng.random(k) < rng.choice([0.0, 0.5, 1.0])
    return starts, ends.clip(0, n), exact


def test_slice_scan_equals_gather_scan_bit_for_bit():
    """On data holding NaN and ±inf, the range-slice scan returns the
    gather scan's value and every count exactly, over 1000 range sets."""
    rng = np.random.default_rng(17)
    n = 4000
    data = rng.lognormal(0, 2, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    special = rng.random((n, 3))
    data[special < 0.01] = np.nan
    data[(special >= 0.01) & (special < 0.015)] = np.inf
    data[(special >= 0.015) & (special < 0.02)] = -np.inf
    st = ColumnStore(data)
    queries = [query_from_dict(3, {0: (-2.0, 5.0)}),
               query_from_dict(3, {0: (-np.inf, 1.0), 2: (0.5, np.inf)}),
               query_from_dict(3, {1: (0.0, 3.0)}, agg=AGG_SUM, agg_dim=1),
               query_from_dict(3, {0: (-5.0, 5.0), 1: (-1.0, 8.0)}, agg=AGG_SUM, agg_dim=2),
               query_from_dict(3, {}, agg=AGG_SUM, agg_dim=0),
               query_from_dict(3, {})]
    for i in range(1000):
        starts, ends, exact = _range_set(rng, n)
        q = queries[i % len(queries)]
        got = st.scan(starts, ends, exact, q)
        with np.errstate(invalid="ignore"):  # inf - inf sums warn in the reference
            want = _gather_scan(st, starts, ends, exact, q)
        assert (got.n_scanned, got.n_matched, got.n_exact, got.n_ranges) == \
            (want.n_scanned, want.n_matched, want.n_exact, want.n_ranges), i
        assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value)), i


# -- the float64 scan that narrow filter copies replaced, kept as the reference
def _float_scan(self: ColumnStore, starts: np.ndarray, ends: np.ndarray, exact: np.ndarray,
                q: Query) -> QueryResult:
    """``ColumnStore.scan`` as it was: every filter a float64 compare
    (``n_ranges`` counted by today's rule)."""
    t0 = time.perf_counter()
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    exact = np.asarray(exact, dtype=bool)
    keep = ends > starts
    ex = keep & exact
    inex = keep ^ ex
    want_sum = q.agg == AGG_SUM
    agg_col = self.cols[q.agg_dim] if want_sum else None
    total = 0.0

    n_exact = n_scanned = n_matched = 0
    if np.count_nonzero(ex):
        ex_s, ex_e = starts[ex], ends[ex]
        n_exact = n_scanned = n_matched = int((ex_e - ex_s).sum())
        if not want_sum:
            total += n_exact
        else:
            cs = self._cums[q.agg_dim]
            ps, pe = cs[ex_s], cs[ex_e]
            # prefix sums are within half an ulp, so pe - ps errs by
            # under 2**-52·(|ps| + |pe|); NaN (inf - inf) fails the test too
            with np.errstate(invalid="ignore"):
                sums = pe - ps
                direct = ~(np.ldexp(np.abs(ps) + np.abs(pe), -52)
                           <= SUM_RTOL * np.abs(sums))
                for k in np.flatnonzero(direct).tolist():
                    sums[k] = agg_col[ex_s[k]:ex_e[k]].sum()
                total += float(sums.sum())
    if np.count_nonzero(inex):
        in_s, in_e = starts[inex].tolist(), ends[inex].tolist()
        slices = list(map(slice, in_s, in_e))
        m = sum(in_e) - sum(in_s)
        n_scanned += m
        mask = None
        for dim, (lo, hi) in enumerate(q.ranges.tolist()):
            if lo == -math.inf and hi == math.inf:
                continue  # unfiltered
            col = _take(self.cols[dim], slices)
            cond = (col >= lo) & (col <= hi)
            mask = cond if mask is None else (mask & cond)
        k = m if mask is None else np.count_nonzero(mask)
        n_matched += k
        if not want_sum:
            total += k
        elif k:
            vals = _take(agg_col, slices)
            if mask is not None:
                vals = vals[mask]
            with (np.errstate(over="ignore", invalid="ignore") if self._wild[q.agg_dim]
                  else nullcontext()):
                total += float(vals.sum())
    return QueryResult(
        value=total,
        n_scanned=n_scanned,
        n_matched=n_matched,
        n_exact=n_exact,
        n_ranges=_ranges_read(starts, ends, exact),
        scan_time=time.perf_counter() - t0,
    )


def _with_ends(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``x`` with its first two values set to ``lo`` and ``hi``, so that
    the column spans exactly ``[lo, hi]``."""
    x = x.astype(np.float64)
    x[:2] = lo, hi
    return x


def _columns(n: int) -> list[tuple[np.ndarray, object]]:
    """Columns of every kind, each with the code type of its filter copy
    (``None``: it must stay float64)."""
    rng = np.random.default_rng(23)
    ints = rng.integers(0, 60, n).astype(np.float64)
    top53 = 2.0 ** 53

    def spoil(v, at=0.03):
        x = ints.copy()
        x[rng.random(n) < at] = v
        return x

    return [
        (ints, np.uint8),
        (_with_ends(rng.integers(-120, 136, n), -120, 135), np.uint8),  # negative min, top 255
        (_with_ends(rng.integers(-9000, 9000, n), -9000, 256 - 9000), np.uint16),
        (_with_ends(rng.integers(0, 65536, n), 0, 65535), np.uint16),
        (_with_ends(rng.integers(-(2 ** 31), 2 ** 31, n), -(2 ** 31), 2 ** 31 - 1), np.uint32),
        (top53 - rng.integers(0, 300, n), np.uint16),  # min near 2**53
        (-top53 + rng.integers(0, 300, n), np.uint16),
        (np.full(n, 7.0), np.uint8),  # constant
        (spoil(np.nan), None),
        (spoil(np.inf), None),
        (spoil(-np.inf), None),
        (spoil(30.5, 0.001), None),  # fractional
        (ints * 2 + 2.0 ** 54, None),  # beyond 2**53
        (_with_ends(ints * 1e8, 0, 2 ** 32), None),  # span 2**32
        (spoil(-0.0, 0.001), None),
    ]


def _bounds(rng, col: np.ndarray, code) -> tuple[float, float]:
    """A random (lo, hi): data values, fractional ones, ±inf, NaN, ±1e300,
    and values just outside the column and the code type's range."""
    finite = col[np.isfinite(col)]
    mn, mx = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    edge = [mn - 1, mn, mx, mx + 1, mn - 0.5, mx + 0.5]
    if code is not None:
        edge += [mn + np.iinfo(code).max, mn + np.iinfo(code).max + 1, mn - 2 ** 32]
    special = [np.inf, -np.inf, np.nan, 1e300, -1e300]

    def one():
        kind = rng.integers(4)
        if kind == 0:
            v = float(rng.choice(col))
            return v + rng.choice([0.0, 0.0, 0.5, -0.5, 0.25])
        if kind == 1:
            return float(rng.choice(edge))
        if kind == 2:
            return float(rng.choice(special))
        return float(rng.uniform(mn - 2, mx + 2))

    lo, hi = one(), one()
    if rng.random() < 0.75 and not lo <= hi:
        lo, hi = hi, lo  # mostly ordered, sometimes inverted or NaN
    return lo, hi


def test_narrow_keeps_only_exact_integer_columns():
    """Integer-valued columns of every code width get a filter copy of the
    narrowest type; NaN, ±inf, fractional values, |v| > 2**53, a span over
    2**32 - 1 and -0.0 keep the column float64."""
    for j, (col, code) in enumerate(_columns(500)):
        got = narrow(col)
        if code is None:
            assert got is None, j
            continue
        codes, base, top = got
        assert codes.dtype == code, j
        assert base == col.min() and top == col.max() - col.min(), j
        assert np.array_equal(codes.astype(np.float64) + base, col), j
    assert narrow(np.empty(0)) is None


def test_narrow_scan_equals_float_scan_bit_for_bit():
    """Filtering on the narrow codes returns the float64 scan's value and
    every count exactly, on columns of every code width and columns that
    stay float64, over 1000 range sets with fractional, ±inf, (inf, inf),
    NaN, inverted, ±1e300 and just-out-of-range bounds."""
    n = 3000
    cols = _columns(n)
    data = np.column_stack([c for c, _ in cols])
    d = data.shape[1]
    st = ColumnStore(data)
    rng = np.random.default_rng(29)
    for i in range(1000):
        starts, ends, exact = _range_set(rng, n)
        dims = rng.choice(d, size=int(rng.integers(1, 4)), replace=False)
        bounds = {int(j): _bounds(rng, data[:, j], cols[j][1]) for j in dims}
        if i % 50 == 0:
            bounds = {int(dims[0]): rng.choice([(np.inf, np.inf), (-np.inf, -np.inf),
                                                (np.nan, np.nan), (5.0, 2.0)])}
        agg = "sum" if i % 2 else "count"
        q = query_from_dict(d, bounds, agg=agg, agg_dim=int(rng.integers(d)))
        got = st.scan(starts, ends, exact, q)
        want = _float_scan(st, starts, ends, exact, q)
        assert (got.n_scanned, got.n_matched, got.n_exact, got.n_ranges) == \
            (want.n_scanned, want.n_matched, want.n_exact, want.n_ranges), (i, bounds)
        assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value)), \
            (i, bounds)


@pytest.mark.parametrize("met", [0, 8, 11])
def test_met_dim_skips_its_check(met):
    """Over ranges whose rows all meet ``met_dim``'s filter (the store
    sorted by it, as the clustered index is), skipping that check changes
    nothing; over rows that do not meet it, the scan really skips it."""
    n = 3000
    cols = _columns(n)
    data = np.column_stack([c for c, _ in cols])
    data = data[np.argsort(data[:, met], kind="stable")]
    d = data.shape[1]
    st = ColumnStore(data)
    rng = np.random.default_rng(31)
    for i in range(300):
        lo, hi = _bounds(rng, data[:, met], cols[met][1])
        if not lo <= hi:
            continue  # an index locates no row for an empty range
        # the rows meeting the filter (NaN sorts last, after +inf)
        s0 = int(data[:, met].searchsorted(lo, "left"))
        e0 = int(data[:, met].searchsorted(hi, "right"))
        if e0 - s0 < 4:
            starts, ends, exact = np.array([s0]), np.array([e0]), np.array([False])
        else:
            starts, ends, exact = _range_set(rng, e0 - s0)
            starts, ends = starts + s0, ends + s0
        other = int(rng.integers(d))
        bounds = {other: _bounds(rng, data[:, other], cols[other][1]), met: (lo, hi)}
        q = query_from_dict(d, bounds, agg="sum" if i % 2 else "count", agg_dim=1)
        got = st.scan(starts, ends, exact, q, met)
        want = _float_scan(st, starts, ends, exact, q)
        assert (got.n_matched, got.value) == (want.n_matched, want.value), (i, bounds)
    q = query_from_dict(d, {met: (-1.0, -1.0), 1: (0.0, 100.0)})
    assert st.scan([0], [n], [False], q).n_matched == 0
    assert st.scan([0], [n], [False], q, met).n_matched == query_from_dict(
        d, {1: (0.0, 100.0)}).mask(data).sum()
