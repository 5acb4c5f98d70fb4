"""δ-bounded piecewise linear model (PLM) over a sorted array (§5.2).

Flood keeps one PLM per grid cell over the sort-dimension values. The PLM
partitions the sorted values into slices, each modeled by a linear segment
that *lower-bounds* the true first-occurrence index D(v), with per-slice
average error <= δ. Lookup finds the segment for v (binary search over
slice boundary keys — the paper uses a cache-optimized B-tree over the
same boundaries), evaluates it, then corrects by exponential search.
"""
from __future__ import annotations

import numpy as np


class PLM:
    """Greedy δ-bounded piecewise linear CDF model of a sorted value array."""

    def __init__(self, values: np.ndarray, delta: float = 50.0):
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("PLM requires at least one value")
        self.values = values  # must already be sorted ascending
        self.n = values.size
        self.delta = float(delta)
        self._build()

    def _build(self) -> None:
        v = self.values
        # Work on unique values and their first-occurrence index D(v).
        uniq, first = np.unique(v, return_index=True)
        starts: list[int] = []       # index into uniq where each slice starts
        slopes: list[float] = []
        icepts: list[float] = []
        i = 0
        m = uniq.size
        while i < m:
            # Start a new slice at uniq[i]; grow it while the lower-bound
            # segment keeps average error <= delta. The segment anchors at
            # (uniq[i], D(uniq[i])) and uses the largest slope that stays a
            # lower bound for every point admitted so far (running min of
            # secant slopes). Because predictions lower-bound D(v), the mean
            # |error| equals mean(D - P), computable in O(1) from running
            # sums — the whole build is O(m) per slice scan.
            x0, y0 = uniq[i], float(first[i])
            j = i + 1
            slope = np.inf  # degenerate single-point slice: flat prediction
            s_x = 0.0  # sum of (x_k - x0) over admitted points after anchor
            s_y = 0.0  # sum of (y_k - y0)
            while j < m:
                dx = uniq[j] - x0
                # a secant over a gap too small to divide by overflows to
                # inf, which is steeper than any slope: min keeps the right one
                with np.errstate(over="ignore"):
                    secant = (first[j] - y0) / dx if dx > 0 else np.inf
                cand = min(slope, secant)
                cand_eff = 0.0 if not np.isfinite(cand) else cand
                n_pts = j - i + 1
                mean_err = (s_y + (first[j] - y0) - cand_eff * (s_x + dx)) / n_pts
                if mean_err > self.delta:
                    break
                slope = cand
                s_x += dx
                s_y += first[j] - y0
                j += 1
            starts.append(i)
            slopes.append(0.0 if not np.isfinite(slope) else slope)
            icepts.append(y0)
            i = max(j, i + 1)
        self.seg_keys = uniq[np.asarray(starts, dtype=np.int64)]
        self.seg_x0 = self.seg_keys.copy()
        self.seg_slope = np.asarray(slopes, dtype=np.float64)
        self.seg_y0 = np.asarray(icepts, dtype=np.float64)

    @property
    def n_segments(self) -> int:
        return self.seg_keys.size

    def size_bytes(self) -> int:
        """Model footprint (keys + slopes + intercepts), for Fig 8-style totals."""
        return int(self.seg_keys.nbytes + self.seg_slope.nbytes + self.seg_y0.nbytes)

    def predict(self, v: float) -> int:
        """Lower-bound estimate of the first index with value >= v."""
        if v <= self.values[0]:
            return 0
        if v > self.values[-1]:
            return self.n
        s = int(np.searchsorted(self.seg_keys, v, side="right")) - 1
        # a steep segment far past its last point may overflow to +inf,
        # which the clip below maps to the last position
        with np.errstate(over="ignore"):
            p = self.seg_y0[s] + self.seg_slope[s] * (v - self.seg_x0[s])
        return int(np.clip(p, 0, self.n - 1))

    def lookup_left(self, v: float) -> int:
        """Exact first index i with values[i] >= v (exponential search fixup)."""
        pos = self.predict(v)
        return _exp_search(self.values, v, pos, side="left")

    def lookup_right(self, v: float) -> int:
        """Exact first index i with values[i] > v."""
        pos = self.predict(v)
        return _exp_search(self.values, v, pos, side="right")


def _exp_search(a: np.ndarray, v: float, pos: int, side: str) -> int:
    """Exponential search around ``pos`` for the searchsorted(a, v, side)."""
    n = a.size
    pos = min(max(pos, 0), n)

    def ok_left(i: int) -> bool:  # a[i-1] < v <= a[i] boundary for 'left'
        before = a[i - 1] < v if i > 0 else True
        after = a[i] >= v if i < n else True
        return before and after

    def ok_right(i: int) -> bool:
        before = a[i - 1] <= v if i > 0 else True
        after = a[i] > v if i < n else True
        return before and after

    ok = ok_left if side == "left" else ok_right
    if ok(pos):
        return pos
    step = 1
    lo, hi = pos, pos
    if (side == "left" and (pos >= n or a[min(pos, n - 1)] >= v)) or (
        side == "right" and (pos >= n or a[min(pos, n - 1)] > v)
    ):
        # true position is to the left
        while lo > 0 and not ok(lo):
            lo = max(0, lo - step)
            step *= 2
        hi = pos
    else:
        while hi < n and not ok(hi):
            hi = min(n, hi + step)
            step *= 2
        lo = pos
    return int(lo + np.searchsorted(a[lo:hi], v, side=side))
