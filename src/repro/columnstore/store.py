"""In-memory column store substrate (§7.1).

Every index in this reproduction is a *layout* (a permutation of the rows
into a physical order plus page/cell metadata) over one ``ColumnStore``.
The store executes the scan step shared by all indexes and keeps the
counters the paper's Table 2 reports:

* scanned points (→ scan overhead SO = scanned / matched),
* scan wall time (ST; per-point TPS = ST / scanned),

and implements the paper's two scan optimizations:

* **exact ranges** skip per-point filter checks, and
* **cumulative aggregates**: a prefix-sum column answers SUM/COUNT over an
  exact range from its two endpoints (§7.1(2)) — "not a data cube as we
  can support arbitrary ranges". A range whose sum is too small for the
  prefix sums' rounding (a few small values far down a long column) is
  summed directly.

The paper's store block-delta-compresses 64-bit ints; ours keeps float64
numpy columns (compression does not change which points are scanned, so
SO — the implementation-agnostic metric — is unaffected).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.query import AGG_SUM, Query

#: exact-range SUMs from prefix sums keep at most this relative error
SUM_RTOL = 1e-10
#: rows per block of the prefix-sum error pass (bounds its temporaries)
_BLOCK = 1 << 16


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


def _positions(starts: np.ndarray, ends: np.ndarray):
    """The rows of the nonempty ranges ``[starts[k], ends[k])`` in order:
    a slice for one range, else one ``repeat`` of each range's shift."""
    if starts.size == 1:
        return slice(int(starts[0]), int(ends[0]))
    lens = ends - starts
    shift = starts - (np.cumsum(lens) - lens)
    return np.repeat(shift, lens) + np.arange(int(lens.sum()))


@dataclass
class ScanStats:
    value: float
    n_scanned: int
    n_matched: int
    n_exact: int
    scan_time: float


class ColumnStore:
    """Columnar storage of an (n, d) matrix in a fixed physical order."""

    def __init__(self, data: np.ndarray, with_cumsum: bool = True):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        self.n, self.d = data.shape
        # column-major storage: one contiguous array per attribute
        self.cols = [np.ascontiguousarray(data[:, j]) for j in range(self.d)]
        # prefix sums for O(1) SUM over exact ranges; cumcount is implicit
        self._cums = (
            [prefix_sums(c) for c in self.cols]
            if with_cumsum
            else None
        )

    def matrix(self) -> np.ndarray:
        """Dense (n, d) view of the stored order (tests / rebuilds)."""
        return np.column_stack(self.cols)

    def scan(self, starts: np.ndarray, ends: np.ndarray, exact: np.ndarray,
             q: Query) -> ScanStats:
        """Scan the physical ranges ``[starts[k], ends[k])``; ranges with
        ``exact[k]`` skip filter checks (§7.1), and empty or inverted ones
        scan nothing. Returns the aggregate and counters.

        Outside the direct-sum fallback the work is a fixed number of numpy
        calls however many ranges there are, so many small ranges (fine
        grids, refined cells) stay cheap. The timer covers only this
        function: indexes time their own projection/refinement and report
        it separately (Table 2's IT).
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
            elif self._cums is None:
                total += float(agg_col[_positions(ex_s, ex_e)].sum())
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
        return ScanStats(
            value=total,
            n_scanned=n_scanned,
            n_matched=n_matched,
            n_exact=n_exact,
            scan_time=time.perf_counter() - t0,
        )

    def scan_gather(self, idx: np.ndarray, exact_mask: np.ndarray,
                    q: Query) -> ScanStats:
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
        return ScanStats(
            value=total,
            n_scanned=n_scanned,
            n_matched=n_matched,
            n_exact=n_exact,
            scan_time=time.perf_counter() - t0,
        )
