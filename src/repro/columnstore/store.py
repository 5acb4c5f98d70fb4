"""In-memory column store substrate (§7.1).

Every index in this reproduction is a *layout* (a permutation of the rows
into a physical order plus page/cell metadata) over one ``ColumnStore``.
The store executes the scan step shared by all indexes, the one place where
ranges merge, and returns the query's :class:`~repro.core.query.QueryResult`
holding the counters Table 2 reports (the index adds its time and cells):

* scanned points (→ scan overhead SO = scanned / matched),
* scan wall time (ST; per-point TPS = ST / scanned),

and implements the paper's two scan optimizations:

* **exact ranges** skip per-point filter checks, and
* **cumulative aggregates**: a prefix-sum column answers SUM/COUNT over an
  exact range from its two endpoints (§7.1(2)) — "not a data cube as we
  can support arbitrary ranges". A range whose sum is too small for the
  prefix sums' rounding (a few small values far down a long column) is
  summed directly.

The paper's store compresses its integer columns. Ours keeps every column
as float64, which SUM, the prefix sums and :meth:`ColumnStore.matrix` read,
and beside each integer-valued column whose span fits 32 bits a narrow
*filter copy* (:func:`narrow`): ``v − min`` in the smallest unsigned type
that holds it. The scan filters such a column on its copy, with the query's
bounds turned into exact integer codes (:func:`code_range`), so it reads 1,
2 or 4 bytes a row in place of 8 and matches exactly the rows the float
compare would. Narrowing changes no result and no count, so SO — the
implementation-agnostic metric — is unaffected.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext

import numpy as np

from repro.core.query import AGG_SUM, Query, QueryResult

#: exact-range SUMs from prefix sums keep at most this relative error
SUM_RTOL = 1e-10
#: rows per block of the prefix-sum error pass (bounds its temporaries)
_BLOCK = 1 << 16
#: the filter copy's code types, narrowest first
_CODE_TYPES = (np.uint8, np.uint16, np.uint32)
#: integers up to this magnitude are all exact in float64
_EXACT_INT = 2.0 ** 53


def prefix_sums(c: np.ndarray) -> np.ndarray:
    """``p[i] = sum(c[:i])``, each within about half an ulp of the exact sum.

    numpy's running sum is sequential, so TwoSum recovers each step's
    rounding error exactly; adding the running sum of those errors back
    removes the drift that would otherwise grow with the column length.
    """
    p = np.empty(c.size + 1)
    p[0] = 0.0
    err = np.empty(c.size)
    with np.errstate(invalid="ignore"):
        np.cumsum(c, out=p[1:])
        for i in range(0, c.size, _BLOCK):
            x = c[i:i + _BLOCK]
            a, s = p[i:i + x.size], p[i + 1:i + 1 + x.size]
            b = s - a
            err[i:i + _BLOCK] = (a - (s - b)) + (x - b)
    err[~np.isfinite(err)] = 0.0
    p[1:] += np.cumsum(err, out=err)
    return p


def narrow(c: np.ndarray) -> tuple[np.ndarray, int, int] | None:
    """The filter copy of column ``c``: its codes ``c − min`` in the
    narrowest of uint8, uint16 and uint32 that holds ``max − min``, with
    ``min`` and the top code ``max − min`` as Python ints.

    ``None`` unless every value is a finite integer of magnitude at most
    2**53 whose float64 bits round-trip through int64 (so ``-0.0`` stays
    float64 too) and the span fits uint32."""
    if not c.size:
        return None
    mn, mx = float(c.min()), float(c.max())
    # NaN fails both compares, ±inf and huge values the second
    if not (-_EXACT_INT <= mn and mx <= _EXACT_INT):
        return None
    code = next((t for t in _CODE_TYPES if mx - mn <= np.iinfo(t).max), None)
    if code is None:
        return None
    ints = c.astype(np.int64)
    if not np.array_equal(ints.astype(np.float64).view(np.int64), c.view(np.int64)):
        return None  # a fractional value or -0.0
    base = int(mn)
    return (ints - base).astype(code), base, int(mx) - base


def code_range(lo: float, hi: float, base: int, top: int) -> tuple[int, int] | None:
    """The codes ``[a, b]`` of the integers ``v`` in ``[base, base + top]``
    with ``lo <= v <= hi``, clamped to ``[0, top]``: ``a = ceil(lo) − base``
    and ``b = floor(hi) − base`` as exact Python ints. ``None`` when no
    integer there qualifies: a NaN, inverted or out-of-domain range, or
    one between two integers. A code at 0 or at ``top`` needs no compare."""
    if not (lo <= hi and lo <= base + top and hi >= base):
        return None
    a = math.ceil(lo) - base if lo > base else 0
    b = math.floor(hi) - base if hi < base + top else top
    return (a, b) if a <= b else None


def _take(col: np.ndarray, slices: list[slice]) -> np.ndarray:
    """The rows of ``slices`` in order: a view for one slice, else one
    concatenation of the slices."""
    if len(slices) == 1:
        return col[slices[0]]
    return np.concatenate([col[s] for s in slices])


class ColumnStore:
    """Columnar storage of an (n, d) matrix in a fixed physical order."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        self.n, self.d = data.shape
        # column-major storage: one contiguous array per attribute
        self.cols = [np.ascontiguousarray(data[:, j]) for j in range(self.d)]
        # prefix sums for O(1) SUM over exact ranges; cumcount is implicit
        self._cums = [prefix_sums(c) for c in self.cols]
        # a SUM over both +inf and -inf is NaN, as it should be, but numpy
        # also warns: sums of a column holding both run with that warning off
        self._both_infs = [bool(np.isposinf(c).any() and np.isneginf(c).any())
                           for c in self.cols]
        # per column: its filter copy (codes, base, top), or None to filter
        # the float64 column itself
        self._codes = [narrow(c) for c in self.cols]

    def matrix(self) -> np.ndarray:
        """Dense (n, d) view of the stored order (tests / rebuilds)."""
        return np.column_stack(self.cols)

    def scan(self, starts: np.ndarray, ends: np.ndarray, exact: np.ndarray,
             q: Query, met_dim: int | None = None) -> QueryResult:
        """Scan the physical ranges ``[starts[k], ends[k])``; ranges with
        ``exact[k]`` skip filter checks (§7.1), and empty or inverted ones
        scan nothing. Returns the query's record with the aggregate, the
        counters and ``scan_time`` filled in.

        ``met_dim`` names the one dimension whose filter every row of the
        ranges already meets, as the index located them exactly in it
        (Flood's refined sort dimension, the clustered index's dimension):
        the scan skips its check.

        Each other filtered column (and the SUM column) of the inexact
        ranges is read as slices concatenated in range order (one slice
        stays a view); an inexact range that starts where the previous one
        ends extends its slice, so ``n_ranges``, the exact ranges plus the
        slices read, counts touching inexact ranges once. Exact ranges never
        merge: each is one prefix-sum difference already. A column with a
        filter copy is filtered on its narrow codes (:func:`code_range`):
        one compare, or none when the bounds hold all its values, and a
        range that holds none of them matches no row. The matched rows, in
        the same order, are those the float64 compare finds, so COUNT and
        SUM are the same to the bit. The slices cost about half a
        microsecond each per column, so many short slices (a few rows each,
        as from a fine grid) scan slower than long ones of the same total
        size: the cost model prices that through its ``avg_run_len``
        feature. The timer covers only this function: indexes time their
        own projection/refinement and report it separately (Table 2's IT).
        """
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
        slices = []
        if np.count_nonzero(inex):
            in_s, in_e = starts[inex].tolist(), ends[inex].tolist()
            for s, e in zip(in_s, in_e):
                if slices and slices[-1].stop == s:  # it continues the last slice
                    s = slices.pop().start
                slices.append(slice(s, e))
            m = sum(in_e) - sum(in_s)
            n_scanned += m
            mask = None
            for dim, (lo, hi) in enumerate(q.ranges.tolist()):
                if dim == met_dim or (lo == -math.inf and hi == math.inf):
                    continue  # met by the ranges, or unfiltered
                narrow_col = self._codes[dim]
                if narrow_col is None:
                    col = _take(self.cols[dim], slices)
                    cond = (col >= lo) & (col <= hi)
                else:
                    codes, base, top = narrow_col
                    ab = code_range(lo, hi, base, top)
                    if ab is None:
                        mask = np.zeros(m, dtype=bool)
                        break
                    a, b = ab
                    if a == 0 and b == top:
                        continue  # every row of the column matches
                    col = _take(codes, slices)
                    # bounds as scalars of the codes' type: numpy compares
                    # with a Python int more slowly
                    t = codes.dtype.type
                    if a == 0:
                        cond = col <= t(b)
                    elif b == top:
                        cond = col >= t(a)
                    else:  # one compare: codes below a wrap around above b - a
                        cond = col - t(a) <= t(b - a)
                mask = cond if mask is None else (mask & cond)
            k = m if mask is None else np.count_nonzero(mask)
            n_matched += k
            if not want_sum:
                total += k
            elif k:
                vals = _take(agg_col, slices)
                if mask is not None:
                    vals = vals[mask]
                with (np.errstate(invalid="ignore") if self._both_infs[q.agg_dim]
                      else nullcontext()):
                    total += float(vals.sum())
        return QueryResult(
            value=total,
            n_scanned=n_scanned,
            n_matched=n_matched,
            n_exact=n_exact,
            n_ranges=int(np.count_nonzero(ex)) + len(slices),
            scan_time=time.perf_counter() - t0,
        )

    def scan_gather(self, idx: np.ndarray, exact_mask: np.ndarray,
                    q: Query) -> QueryResult:
        """Scan an explicit physical-position array (a gather twin of
        :meth:`scan`). No index calls it; the benchmark tracer in
        ``perfbench/`` still wraps it by name.

        ``exact_mask`` marks positions known to match without checking
        (§7.1's exact ranges, per point). Fully vectorized: one gather +
        one filter pass regardless of how many cells contributed.
        """
        t0 = time.perf_counter()
        want_sum = q.agg == AGG_SUM
        n_scanned = int(idx.size)
        n_exact = int(exact_mask.sum())
        total = 0.0
        n_matched = n_exact
        if want_sum and n_exact:
            total += float(self.cols[q.agg_dim][idx[exact_mask]].sum())
        elif not want_sum:
            total += n_exact
        rest = idx[~exact_mask] if n_exact else idx
        if rest.size:
            mask = None
            for dim in q.filtered_dims:
                col = self.cols[dim][rest]
                lo, hi = q.ranges[dim]
                cond = (col >= lo) & (col <= hi)
                mask = cond if mask is None else (mask & cond)
            if mask is None:
                k = int(rest.size)
                if want_sum:
                    total += float(self.cols[q.agg_dim][rest].sum())
            else:
                k = int(mask.sum())
                if want_sum and k:
                    total += float(self.cols[q.agg_dim][rest[mask]].sum())
            n_matched += k
            if not want_sum:
                total += k
        return QueryResult(
            value=total,
            n_scanned=n_scanned,
            n_matched=n_matched,
            n_exact=n_exact,
            # the runs of consecutive positions
            n_ranges=int(np.count_nonzero(np.diff(idx) != 1)) + 1 if idx.size else 0,
            scan_time=time.perf_counter() - t0,
        )
