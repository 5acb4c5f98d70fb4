"""In-memory column store substrate (§7.1).

Every index in this reproduction is a *layout* (a permutation of the rows
into a physical order plus page/cell metadata) over one ``ColumnStore``.
The store executes the scan step shared by all indexes.
:meth:`ColumnStore.scan` is the one place where ranges merge and where
column values are compared with a query's bounds or summed for it;
:meth:`ColumnStore.scan_gather` only cuts its positions into ranges for
the scan. The scan returns the query's :class:`~repro.core.query.QueryResult`
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

A query pays for the rows it reads and little else: one Python pass over
its ranges drops the empty ones, gathers the exact ones for one vectorized
prefix-sum step and lays the inexact ones out as slices, and a SUM selects
its matching rows with ``compress`` (the rows a boolean index gives, up
to 2–3× faster in numpy 1.26).

The paper's store compresses its columns. Ours keeps every column as
float64, which the prefix sums and :meth:`ColumnStore.matrix` read, and
beside a column a narrow *filter copy* (:func:`filter_copy`) when one is
smaller:

* an integer-valued column whose span fits 32 bits gets ``v − min``
  (:func:`narrow`) in the smallest unsigned type that holds it, with a
  query's bounds turned into exact integer codes (:func:`code_range`);
* any other column gets rank codes over its sorted distinct values
  (:func:`dictionary`), with bounds turned into ranks (:func:`rank_range`),
  but only when codes and dictionary take fewer bytes than the column, so
  a column of few distinct values (tpch's discount: 11) has one and a
  column of mostly distinct values (a price, an amount) has none.

The scan filters such a column on its copy with one integer compare, so it
reads 1, 2 or 4 bytes a row in place of 8 and matches exactly the rows the
float compare would. A SUM over a column whose every sum is an exact
integer in float64 (:func:`exact_sums`: narrow codes and ``max|v| · n``
at most 2**53) adds its codes as int64 and ``min`` once per row, the same
value to the bit; such a column's prefix sums need no error pass. None of
this changes a result or a count, so SO — the implementation-agnostic
metric — is unaffected.
"""
from __future__ import annotations

import functools
import math
import time
from contextlib import nullcontext

import numpy as np

from repro.core.query import AGG_SUM, Query, QueryResult

#: exact-range SUMs from prefix sums keep at most this relative error
SUM_RTOL = 1e-10
#: rows per block of the prefix-sum error pass and of the dictionary's
#: ranking (bounds their temporaries)
_BLOCK = 1 << 16
#: the filter copy's code types, narrowest first
_CODE_TYPES = (np.uint8, np.uint16, np.uint32)
#: integers up to this magnitude are all exact in float64
_EXACT_INT = 2.0 ** 53
#: the largest float64
_MAX = float(np.finfo(np.float64).max)


def wild_sums(c: np.ndarray) -> bool:
    """Whether a sum over values of ``c`` can pass the float range or meet
    ±inf: some value's magnitude times the row count exceeds the largest
    float (NaN left out, ±inf included). numpy warns of the overflow and of
    ``inf − inf``, so sums over such a column run with those warnings off;
    on any other column they stay on."""
    return bool(c.size) and bool(np.fmax.reduce(np.abs(c)) > _MAX / c.size)


def _quiet(wild: bool):
    """The context a sum over a column runs in: overflow and invalid
    warnings off for a column of :func:`wild_sums`, else none."""
    return np.errstate(over="ignore", invalid="ignore") if wild else nullcontext()


def prefix_sums(c: np.ndarray, exact: bool = False) -> np.ndarray:
    """``p[i] = sum(c[:i])``, each within about half an ulp of the exact sum.

    numpy's running sum is sequential, so TwoSum recovers each step's
    rounding error exactly; adding the running sum of those errors back
    removes the drift that would otherwise grow with the column length.
    An ``exact`` column (:func:`exact_sums`) has every running sum exact
    already, so its prefix sums are the plain running sum.
    """
    p = np.empty(c.size + 1)
    p[0] = 0.0
    if exact:
        np.cumsum(c, out=p[1:])
        return p
    err = np.empty(c.size)
    with _quiet(wild_sums(c)):
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


def code_range(base: int, top: int, lo: float, hi: float) -> tuple[int, int] | None:
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


def rank_range(values: np.ndarray, lo: float, hi: float) -> tuple[int, int] | None:
    """The codes ``[a, b]`` of the ``values`` (ascending, distinct, NaN
    last) with ``lo <= v <= hi``: ``a`` counts the values below ``lo`` and
    ``b`` is one less than the count of those up to ``hi``. ``None`` when
    none qualifies: a NaN, inverted or out-of-domain range, or one between
    two values. A code at 0 or at ``values.size − 1`` needs no compare."""
    if not lo <= hi:
        return None
    a = int(values.searchsorted(lo, "left"))
    b = int(values.searchsorted(hi, "right")) - 1
    return (a, b) if a <= b else None


def dictionary(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The dictionary filter copy of column ``c``: its sorted distinct
    values ``u`` (``np.unique``: NaN collapses into one value, placed
    last, and ``-0.0`` and ``0.0`` into one) and each row's rank
    ``u.searchsorted(v)`` in the narrowest unsigned type that holds
    ``u.size − 1``, ranked one ``_BLOCK`` of rows at a time so that the
    int64 ranks never take 8 bytes a row of the whole column.

    ``None`` unless the codes and the dictionary together take fewer bytes
    than the column itself: a column of many distinct values keeps no copy."""
    u = np.unique(c)
    code = next((t for t in _CODE_TYPES if u.size - 1 <= np.iinfo(t).max), None)
    if code is None or c.size * np.dtype(code).itemsize + u.nbytes >= c.nbytes:
        return None
    codes = np.empty(c.size, dtype=code)
    for i in range(0, c.size, _BLOCK):
        codes[i:i + _BLOCK] = u.searchsorted(c[i:i + _BLOCK])
    return codes, u


def filter_copy(c: np.ndarray, nc: tuple[np.ndarray, int, int] | None):
    """The filter copy the scan compares in place of float64 column ``c``,
    whose narrow codes are ``nc`` (:func:`narrow`): ``(codes, top,
    to_codes)`` with the codes (``nc``'s, else :func:`dictionary`'s), the
    top code, and ``to_codes(lo, hi)``, which maps a query's bounds to the
    codes ``[a, b]`` of exactly the values they hold, or ``None`` when
    none. ``None`` when the column has no copy."""
    if nc is not None:
        codes, base, top = nc
        return codes, top, functools.partial(code_range, base, top)
    dc = dictionary(c)
    if dc is None:
        return None
    codes, values = dc
    return codes, values.size - 1, functools.partial(rank_range, values)


def exact_sums(c: np.ndarray, nc: tuple[np.ndarray, int, int] | None) -> bool:
    """Whether every sum over values of ``c`` is an exact integer in
    float64: ``c`` has narrow codes ``nc`` and ``max(|min|, |max|) · n``
    is at most 2**53, so every partial sum, in any order, is an integer
    float64 holds exactly."""
    if nc is None:
        return False
    _, base, top = nc
    return max(abs(base), abs(base + top)) * c.size <= 2 ** 53


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
        narrowed = [narrow(c) for c in self.cols]
        # per column: the base of its narrow codes when every sum over it is
        # exact (exact_sums), so a SUM adds its codes as int64, else None
        self._sum_base = [nc[1] if exact_sums(c, nc) else None
                          for c, nc in zip(self.cols, narrowed)]
        # prefix sums for O(1) SUM over exact ranges; cumcount is implicit
        self._cums = [prefix_sums(c, base is not None)
                      for c, base in zip(self.cols, self._sum_base)]
        # a SUM that overflows is ±inf and one over both infinities NaN, as
        # they should be, but numpy also warns: see wild_sums
        self._wild = [wild_sums(c) for c in self.cols]
        # per column: its filter copy (codes, top, to_codes), or None to
        # filter the float64 column itself
        self._codes = [filter_copy(c, nc) for c, nc in zip(self.cols, narrowed)]

    def matrix(self) -> np.ndarray:
        """Dense (n, d) view of the stored order (tests / rebuilds)."""
        return np.column_stack(self.cols)

    def scan(self, starts: np.ndarray, ends: np.ndarray, exact: np.ndarray,
             q: Query, met_dim: int | None = None) -> QueryResult:
        """Scan the physical ranges ``[starts[k], ends[k])`` (arrays or
        lists); ranges with ``exact[k]`` skip filter checks (§7.1), and
        empty or inverted ones scan nothing. Returns the query's record
        with the aggregate, the counters and ``scan_time`` filled in.

        ``met_dim`` names the one dimension whose filter every row of the
        ranges already meets, as the index located them exactly in it
        (Flood's refined sort dimension, the clustered index's dimension):
        the scan skips its check.

        One Python pass over the ranges sorts them out: it drops the empty
        ones, gathers the exact ones, whose COUNT is their length and whose
        SUM is one vectorized prefix-sum difference each, and lays the
        inexact ones out as slices, where an inexact range that starts
        where the previous inexact range ends extends its slice. Exact
        ranges never merge, so ``n_ranges`` is the exact ranges plus the
        slices read. Each other filtered column (and the SUM column) of the
        slices is read concatenated in range order (one slice stays a
        view). A column with a filter copy is filtered on its codes
        (:func:`filter_copy`): one compare, or none when the bounds hold all
        its values, and a range that holds none of them matches no row. The
        matched rows, in the same order, are those the float64 compare
        finds; a SUM selects them with ``compress`` and, over an
        :func:`exact_sums` column, adds their codes, so COUNT and SUM are
        the same to the bit. The slices cost about half a microsecond each
        per column, so many short slices (a few rows each, as from a fine
        grid) scan slower than long ones of the same total size: the cost
        model prices that through its ``avg_run_len`` feature. The timer
        covers only this function: indexes time their own
        projection/refinement and report it separately (Table 2's IT).
        """
        t0 = time.perf_counter()
        ex_s, ex_e, in_s, in_e = [], [], [], []
        stop = None  # where the last inexact range ended
        for s, e, x in zip(np.asarray(starts).tolist(), np.asarray(ends).tolist(),
                           np.asarray(exact).tolist()):
            if e <= s:
                continue
            if x:
                ex_s.append(s)
                ex_e.append(e)
            elif s == stop:  # it continues the last slice
                in_e[-1] = stop = e
            else:
                in_s.append(s)
                in_e.append(e)
                stop = e
        want_sum = q.agg == AGG_SUM
        agg_col = self.cols[q.agg_dim] if want_sum else None
        total = 0.0

        n_exact = n_scanned = n_matched = sum(ex_e) - sum(ex_s)
        if n_exact:
            if not want_sum:
                total += n_exact
            else:
                cs = self._cums[q.agg_dim]
                ps, pe = cs[ex_s], cs[ex_e]
                # prefix sums are within half an ulp, so pe - ps errs by
                # under 2**-52·(|ps| + |pe|); NaN (inf - inf) fails the test too
                with _quiet(self._wild[q.agg_dim]):
                    sums = pe - ps
                    direct = ~(np.ldexp(np.abs(ps) + np.abs(pe), -52)
                               <= SUM_RTOL * np.abs(sums))
                    for k in np.flatnonzero(direct).tolist():
                        sums[k] = agg_col[ex_s[k]:ex_e[k]].sum()
                    total += float(sums.sum())
        slices = list(map(slice, in_s, in_e))
        if slices:
            m = sum(in_e) - sum(in_s)
            n_scanned += m
            mask = None
            for dim in q.filtered_dims:
                if dim == met_dim:
                    continue  # met by the ranges
                lo, hi = q.bounds[dim]
                copy = self._codes[dim]
                if copy is None:
                    col = _take(self.cols[dim], slices)
                    cond = (col >= lo) & (col <= hi)
                else:
                    codes, top, to_codes = copy
                    ab = to_codes(lo, hi)
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
                # k values of an exact_sums column sum to an exact integer
                # when k <= n (overlapping ranges can sum a row twice): add
                # their codes, 1-4 bytes a row in place of 8
                base = self._sum_base[q.agg_dim] if k <= self.n else None
                vals = _take(agg_col if base is None else self._codes[q.agg_dim][0], slices)
                if mask is not None:
                    # the same rows as vals[mask], selected up to 2-3x faster
                    vals = vals.compress(mask)
                if base is not None:
                    total += float(int(np.add.reduce(vals, dtype=np.int64)) + base * k)
                else:
                    with _quiet(self._wild[q.agg_dim]):
                        total += float(vals.sum())
        return QueryResult(
            value=total,
            n_scanned=n_scanned,
            n_matched=n_matched,
            n_exact=n_exact,
            n_ranges=len(ex_s) + len(slices),
            scan_time=time.perf_counter() - t0,
        )

    def scan_gather(self, idx: np.ndarray, exact_mask: np.ndarray,
                    q: Query) -> QueryResult:
        """Scan the ascending physical positions ``idx`` through :meth:`scan`.
        ``exact_mask`` marks the positions known to match without checking
        (§7.1's exact ranges, per point). Each run of consecutive positions
        that share one exactness is one range; an empty ``idx`` scans
        nothing. No index calls this: it exists only because the benchmark
        tracer in ``perfbench/`` wraps it by name.
        """
        idx = np.asarray(idx, dtype=np.int64)
        exact_mask = np.asarray(exact_mask, dtype=bool)
        # a run ends before a gap or a change of exactness
        cut = (idx[1:] != idx[:-1] + 1) | (exact_mask[1:] != exact_mask[:-1])
        starts = np.concatenate((idx[:1], idx[1:][cut]))
        ends = np.concatenate((idx[:-1][cut], idx[-1:])) + 1
        exact = np.concatenate((exact_mask[:1], exact_mask[1:][cut]))
        return self.scan(starts, ends, exact, q)
