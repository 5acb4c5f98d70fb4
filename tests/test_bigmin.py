"""Z-order encode/decode and BIGMIN, validated exhaustively vs brute force;
the array BIGMIN and the UB-tree's ranges against the scalar BIGMIN and
the per-page walk they replaced, the query corners' Z-values against the
per-corner encoding they replaced, and the Z-values against the bit-by-bit
encoding they replaced."""
import itertools

import numpy as np
import pytest

from repro import datasets
from repro.core.bigmin import bigmin, interleave, quantize
from repro.indexes.ubtree import UBTree
from repro.indexes.zorder import ZOrderIndex
from repro.workloads import make_workload


def brute_zvals(d, bits):
    coords = np.array(list(itertools.product(range(2**bits), repeat=d)))
    return coords, interleave(coords, bits)


def corners(lo, hi, bits):
    return int(interleave(lo.reshape(1, -1), bits)[0]), int(interleave(hi.reshape(1, -1), bits)[0])


# -- the scalar BIGMIN and the UB-tree's per-page walk, as they were ----------
def _reference_bigmin(zcode: int, zmin: int, zmax: int, d: int, bits: int) -> int:
    """Smallest Z-value in [zmin, zmax]'s rectangle that is >= zcode.

    Returns -1 if no such value exists. All of zcode/zmin/zmax are Z-values
    produced by :func:`interleave` with the same (d, bits). zmin/zmax are
    the Z-values of the rectangle's lower-left / upper-right corners; the
    rectangle is the axis-aligned box between the decoded coordinates.
    """
    total = d * bits
    bm = -1
    # Walk bits MSB -> LSB. Classic case analysis on (bit of zcode, zmin, zmax).
    for pos in range(total):
        shift = total - 1 - pos
        zb = (zcode >> shift) & 1
        lb = (zmin >> shift) & 1
        ub = (zmax >> shift) & 1
        if zb == 0 and lb == 0 and ub == 0:
            continue
        if zb == 0 and lb == 0 and ub == 1:
            bm = _load(zmin, pos, 1, 0, d, total)  # candidate: min with this bit=1, rest min
            zmax = _load(zmax, pos, 0, 1, d, total)  # restrict max: bit=0, rest max
            continue
        if zb == 0 and lb == 1 and ub == 0:
            raise ValueError("zmin > zmax in some dimension")
        if zb == 0 and lb == 1 and ub == 1:
            return zmin
        if zb == 1 and lb == 0 and ub == 0:
            return bm
        if zb == 1 and lb == 0 and ub == 1:
            zmin = _load(zmin, pos, 1, 0, d, total)  # restrict min: bit=1, rest min
            continue
        if zb == 1 and lb == 1 and ub == 0:
            raise ValueError("zmin > zmax in some dimension")
        # zb == 1 and lb == 1 and ub == 1:
        continue
    return zcode  # zcode itself is inside the rectangle


def _load(z: int, pos: int, bit_val: int, fill: int, d: int, total: int) -> int:
    """Tropf-Herzog LOAD: in dimension of ``pos``, set the bit at ``pos`` to
    ``bit_val`` and every lower-significance bit *of that dimension* to
    ``fill``; other dimensions untouched."""
    dim = pos % d
    out = z
    shift = total - 1 - pos
    out = (out & ~(1 << shift)) | (bit_val << shift)
    p = pos + d
    while p < total:
        s = total - 1 - p
        out = (out & ~(1 << s)) | (fill << s)
        p += d
    return out


def _reference_in_rect(z: int, zmin: int, zmax: int, d: int, bits: int) -> bool:
    """Does Z-value ``z`` decode to coordinates inside the rectangle?"""
    for dim in range(d):
        c = _extract(z, dim, d, bits)
        if not (_extract(zmin, dim, d, bits) <= c <= _extract(zmax, dim, d, bits)):
            return False
    return True


def _extract(z: int, dim: int, d: int, bits: int) -> int:
    """Decode one dimension's coordinate from a Z-value."""
    total = d * bits
    c = 0
    for b in range(bits):
        pos = dim + b * d  # MSB-first position of this dim's b-th bit
        shift = total - 1 - pos
        c = (c << 1) | ((z >> shift) & 1)
    return c


def _reference_ranges(self, q):
    """``UBTree._ranges`` as a walk over the pages, one scalar BIGMIN per
    page it leaves."""
    zmin, zmax = self._query_zrange(q)
    s = int(np.searchsorted(self.zvals, zmin, side="left"))
    e = int(np.searchsorted(self.zvals, zmax, side="right"))
    ps = self.page_size
    d, bits = self.d, self.bits
    starts, ends = [], []
    pos = s
    while pos < e:
        page = pos // ps
        p_end = min((page + 1) * ps, e)
        starts.append(pos)
        ends.append(p_end)
        if p_end >= e:
            break
        # Skip ahead: from the first Z-value after this page, find the
        # next Z-value that re-enters the query rectangle and jump to
        # the page containing it (via the per-page minimum Z-values —
        # here directly by binary search on the sorted Z column).
        z_next = int(self.zvals[p_end])
        if _reference_in_rect(z_next, zmin, zmax, d, bits):
            pos = p_end
            continue
        nz = _reference_bigmin(z_next, zmin, zmax, d, bits)
        if nz < 0 or nz > zmax:
            break
        pos = int(np.searchsorted(self.zvals, nz, side="left"))
        if pos < p_end:  # safety: never move backwards
            pos = p_end
    n_pages = len(starts)
    return (np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64),
            np.zeros(n_pages, dtype=bool), n_pages)


# -- the query corners' Z-values, one encoding per corner, as they were -------
def _reference_zrange(self, q) -> tuple[int, int]:
    """``ZOrderIndex._query_zrange`` as it was: each corner quantized and
    interleaved on its own one-row array."""
    lo = np.where(np.isfinite(q.ranges[:, 0]), q.ranges[:, 0], self.mins)
    hi = np.where(np.isfinite(q.ranges[:, 1]), q.ranges[:, 1], self.maxs)
    lo = np.clip(lo, self.mins, self.maxs)
    hi = np.clip(hi, self.mins, self.maxs)
    qlo = quantize(lo.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
    qhi = quantize(hi.reshape(1, -1), self.mins, self.maxs, self.bits)[0]
    # an open upper side reaches the top coordinate, where NaN and +inf
    # rows sit even when a dimension's finite values are all one value
    qhi[q.ranges[:, 1] == np.inf] = 2**self.bits - 1
    zmin = int(interleave(qlo[self.dim_order].reshape(1, -1), self.bits)[0])
    zmax = int(interleave(qhi[self.dim_order].reshape(1, -1), self.bits)[0])
    return zmin, zmax


def assert_zrange_matches_reference(idx: ZOrderIndex, q) -> None:
    """Both corners encoded at once give the per-corner Z-values."""
    got = idx._query_zrange(q)
    assert got == _reference_zrange(idx, q), q.ranges
    assert all(type(z) is int for z in got)


def assert_ranges_match_walk(idx: UBTree, q) -> None:
    """The UB-tree's ranges are the walk's, whenever it is asked for them."""
    if not (q.ranges[:, 0] <= q.ranges[:, 1]).all():
        return  # an empty range: the index never asks for ranges
    starts, ends, exact, n_cells = idx._ranges(q)
    want_starts, want_ends, _, want_cells = _reference_ranges(idx, q)
    np.testing.assert_array_equal(starts, want_starts)
    np.testing.assert_array_equal(ends, want_ends)
    assert n_cells == want_cells and not exact.any()


# -- the bit-by-bit Morton encoding, as it was -------------------------------
def _reference_interleave(coords: np.ndarray, bits: int) -> np.ndarray:
    """Morton-encode (n, d) uint coords with ``bits`` bits/dim into int64 Z-values."""
    coords = np.asarray(coords, dtype=np.uint64)
    n, d = coords.shape
    if bits * d > 63:
        raise ValueError(f"{bits} bits x {d} dims exceeds 63-bit Z-values")
    z = np.zeros(n, dtype=np.uint64)
    for b in range(bits - 1, -1, -1):  # MSB first
        for dim in range(d):
            bit = (coords[:, dim] >> np.uint64(b)) & np.uint64(1)
            z = (z << np.uint64(1)) | bit
    return z.astype(np.int64)


# -- encoding -----------------------------------------------------------------
def test_interleave_2d_known_values():
    # classic Morton order for 2-bit 2D: (x,y) -> z with dim0 as MSB of each pair
    coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    z = interleave(coords, 1)
    assert list(z) == [0, 1, 2, 3]


def test_interleave_is_bijective():
    coords, z = brute_zvals(3, 3)
    assert len(set(z.tolist())) == len(z)


@pytest.mark.parametrize("d", range(1, 10))
def test_interleave_matches_bit_loop_at_index_widths(d):
    """Random coordinates at the indexes' width, min(63 // d, 16) bits, and
    at 1 bit, the corners of the grid included, across row blocks."""
    rng = np.random.default_rng(d)
    for bits in (min(63 // d, 16), 1):
        coords = rng.integers(0, 2**bits, (70_000, d)).astype(np.uint64)
        coords[0], coords[1] = 0, 2**bits - 1
        z = interleave(coords, bits)
        assert z.dtype == np.int64
        np.testing.assert_array_equal(z, _reference_interleave(coords, bits))
    assert interleave(np.zeros((0, d), dtype=np.uint64), 1).size == 0


@pytest.mark.parametrize("name", ["sales", "tpch", "osm", "perfmon"])
def test_interleave_matches_bit_loop_on_test_datasets(name):
    """At test scale, Z-order's build coordinates and the corners of
    Table 2's test queries get the bit loop's Z-values."""
    data, _ = datasets.load(name, n=datasets.TEST_ROWS[name])
    idx = ZOrderIndex(page_size=1024).build(data, make_workload(data, name, 100, seed=1))
    coords = quantize(data, idx.mins, idx.maxs, idx.bits)[:, idx.dim_order]
    np.testing.assert_array_equal(interleave(coords, idx.bits),
                                  _reference_interleave(coords, idx.bits))
    for q in make_workload(data, name, 100, seed=2):
        bounds = q.ranges.T
        corners = np.where(np.isfinite(bounds), bounds, (idx.mins, idx.maxs))
        coords = quantize(np.clip(corners, idx.mins, idx.maxs), idx.mins, idx.maxs, idx.bits)
        coords[1, bounds[1] == np.inf] = 2**idx.bits - 1
        coords = coords[:, idx.dim_order]
        np.testing.assert_array_equal(interleave(coords, idx.bits),
                                      _reference_interleave(coords, idx.bits))


def test_quantize_bounds():
    data = np.array([[0.0, -5.0], [10.0, 5.0], [5.0, 0.0]])
    mins, maxs = data.min(0), data.max(0)
    q = quantize(data, mins, maxs, 4)
    assert q.min() == 0 and q.max() == 15


def test_quantize_degenerate_dim():
    data = np.full((5, 2), 3.0)
    q = quantize(data, data.min(0), data.max(0), 4)
    assert (q == 0).all()


# -- the array BIGMIN ---------------------------------------------------------
@pytest.mark.parametrize("d,bits", [(2, 3), (2, 4), (3, 2), (4, 2), (1, 5)])
def test_bigmin_matches_brute_force(d, bits):
    """Every Z-value of the grid at once, the rectangle decided from the
    decoded coordinates."""
    coords, z = brute_zvals(d, bits)
    order = np.argsort(z)
    coords, z = coords[order], z[order]
    rng = np.random.default_rng(d * 100 + bits)
    for _ in range(40):
        lo = rng.integers(0, 2**bits, d)
        hi = np.minimum(lo + rng.integers(0, 2**bits, d), 2**bits - 1)
        zmin, zmax = corners(lo, hi, bits)
        inside = ((coords >= lo) & (coords <= hi)).all(axis=1)
        # the next Z-value inside, at or after each position; -1 past the last
        nxt = np.where(inside, z, -1)
        for i in range(z.size - 2, -1, -1):
            if nxt[i] < 0:
                nxt[i] = nxt[i + 1]
        np.testing.assert_array_equal(bigmin(z, zmin, zmax, d, bits), nxt,
                                      err_msg=str((lo, hi)))


@pytest.mark.parametrize("d,bits", [(1, 16), (3, 16), (7, 9)])
def test_bigmin_matches_scalar_reference_at_index_widths(d, bits):
    """The widest layouts the indexes use: d=1 at 16 bits, d=3 at 16 and
    d=7 at 9, on Z-values sampled inside, below and beyond the corners."""
    rng = np.random.default_rng(d * 1000 + bits)
    no_successor = 0
    for _ in range(30):
        lo = rng.integers(0, 2**bits, d)
        hi = np.minimum(lo + rng.integers(0, 2**bits, d), 2**bits - 1)
        zmin, zmax = corners(lo, hi, bits)
        z = np.r_[rng.integers(zmin, zmax + 1, 200), zmin, zmax,
                  rng.integers(0, zmin + 1, 5), rng.integers(zmax, 2 ** (d * bits), 5)]
        got = bigmin(z, zmin, zmax, d, bits)
        want = [_reference_bigmin(int(v), zmin, zmax, d, bits) for v in z]
        np.testing.assert_array_equal(got, want)
        no_successor += (got == -1).sum()
    assert no_successor


def test_in_rect_corners():
    """The corners lie inside the rectangle, so BIGMIN keeps each."""
    lo = np.array([1, 2])
    hi = np.array([5, 6])
    zmin, zmax = corners(lo, hi, 3)
    assert bigmin(np.array([zmin, zmax]), zmin, zmax, 2, 3).tolist() == [zmin, zmax]


def test_bigmin_inside_returns_self():
    lo = np.array([0, 0])
    hi = np.array([7, 7])
    zmin, zmax = corners(lo, hi, 3)
    assert bigmin(np.array([13]), zmin, zmax, 2, 3).tolist() == [13]


# -- the UB-tree's ranges -----------------------------------------------------
@pytest.mark.parametrize("name", ["sales", "tpch", "osm", "perfmon"])
def test_ubtree_ranges_match_walk_on_test_workloads(name):
    """Table 2's test workload at test scale, at page sizes 64, 1024, 4096."""
    data, _ = datasets.load(name, n=datasets.TEST_ROWS[name])
    train = make_workload(data, name, 100, seed=1)
    test = make_workload(data, name, 100, seed=2)
    for ps in (64, 1024, 4096):
        idx = UBTree(page_size=ps).build(data, train)
        for q in test:
            assert_ranges_match_walk(idx, q)


@pytest.mark.parametrize("name", ["sales", "tpch", "osm", "perfmon"])
def test_zrange_matches_per_corner_encoding_on_test_workloads(name):
    """Table 2's test workload at test scale: Z-order and the UB-tree get
    the per-corner encoding's ``(zmin, zmax)`` on every query."""
    data, _ = datasets.load(name, n=datasets.TEST_ROWS[name])
    train = make_workload(data, name, 100, seed=1)
    test = make_workload(data, name, 100, seed=2)
    for idx in (ZOrderIndex(page_size=1024), UBTree(page_size=1024)):
        idx.build(data, train)
        for q in test:
            assert_zrange_matches_reference(idx, q)
