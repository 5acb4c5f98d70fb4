"""Two-layer Recursive Model Index (RMI) over a sorted 1-D array.

The learned B-tree of the clustered single-dimensional baseline (§7.2):
a root linear-spline model routes to leaf linear regressions that
predict a position, corrected by bounded local search. ``cdf(v)`` is the
empirical CDF of the keys; Flood's flattening (§5.1) needs only its
crossings of k/c, the column edges of ``repro.indexes.flood``.

Layer 0 is a single linear spline over the value range; layer 1 holds
``n_experts`` linear regression leaves, each fit on the slice of keys its
parent routes to it (Kraska et al. 2018 [23]).
"""
from __future__ import annotations

import math

import numpy as np

#: leaves fit keys scaled below 2**_SAFE_EXP, whose squared sums cannot overflow
_SAFE_EXP = 400


class RMI:
    """2-layer linear RMI mapping value -> predicted rank in a sorted array."""

    def __init__(self, keys: np.ndarray, n_experts: int = 64):
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise ValueError("RMI requires at least one key")
        self.keys = np.sort(keys)
        self.n = self.keys.size
        # the model covers the finite keys, ranks [_first, _end): sorting
        # puts -inf first and +inf, then NaN, last. Lookups of ±inf and NaN
        # search exactly.
        self._first = int(np.searchsorted(self.keys, -np.inf, side="right"))
        self._end = int(np.searchsorted(self.keys, np.inf, side="left"))
        finite = self.keys[self._first:self._end]
        self.n_experts = max(1, min(n_experts, finite.size))
        self.lo = float(finite[0]) if finite.size else 0.0
        self.hi = float(finite[-1]) if finite.size else 0.0
        span = self.hi - self.lo
        # Root: linear spline value -> expert id over [lo, hi]. A span that
        # overflows, or one so narrow that n_experts / span overflows, gets
        # one expert: the spline would multiply inf by 0.
        if not (0 < span < np.inf and self.n_experts / span < np.inf):
            self.n_experts = 1
        self._root_scale = self.n_experts / span if self.n_experts > 1 else 0.0
        self._fit_leaves()

    def _route(self, v: np.ndarray) -> np.ndarray:
        if self.n_experts == 1:
            return np.zeros(np.shape(v), dtype=np.int64)
        # clamping v first keeps the product near [0, n_experts]: a value far
        # outside a narrow span would overflow the cast to int64
        v = np.clip(v, self.lo, self.hi)
        e = ((v - self.lo) * self._root_scale).astype(np.int64)
        return np.minimum(e, self.n_experts - 1)

    def _fit_leaves(self) -> None:
        keys = self.keys[self._first:self._end]
        expert_of = self._route(keys)
        ranks = np.arange(self._first, self._end, dtype=np.float64)
        self._slope = np.zeros(self.n_experts)
        self._icept = np.zeros(self.n_experts)
        self._err = np.zeros(self.n_experts, dtype=np.int64)  # max abs error
        # Experts partition the sorted key array contiguously (monotonic route).
        bounds = np.searchsorted(expert_of, np.arange(self.n_experts + 1))
        for e in range(self.n_experts):
            s, t = bounds[e], bounds[e + 1]
            if s == t:
                # Empty expert: predict the boundary rank.
                self._icept[e] = float(s + self._first)
                continue
            x, y = keys[s:t], ranks[s:t]
            # keys near ±1e308 would overflow the regression's sums, so it
            # fits keys scaled by a power of two below 2**400 in magnitude.
            # The scaling is exact, so a leaf of smaller keys is unchanged.
            top = math.frexp(max(-x[0], x[-1]))[1]
            scale = math.ldexp(1.0, min(0, _SAFE_EXP - top))
            xs = x * scale
            xm, ym = xs.mean(), y.mean()
            var = ((xs - xm) ** 2).sum()
            slope = ((xs - xm) * (y - ym)).sum() / var if var > 0 else 0.0
            self._slope[e] = slope * scale
            self._icept[e] = ym - slope * xm
            pred = np.clip(self._slope[e] * x + self._icept[e], 0, self.n - 1)
            self._err[e] = int(np.ceil(np.abs(pred - y).max()))

    def predict(self, v: np.ndarray | float) -> np.ndarray:
        """Predicted (possibly fractional) rank of each value; clipped to [0, n-1]."""
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        e = self._route(v)
        # beyond the keys the prediction is the nearest key's. A value far
        # from its own leaf's keys can still overflow the product (1e300
        # routed to a steep leaf of tiny keys): it saturates to ±inf and
        # clips to the first or last rank, which the lookup's error window
        # check then corrects
        v = np.clip(v, self.lo, self.hi)
        with np.errstate(over="ignore"):
            return np.clip(self._slope[e] * v + self._icept[e], 0, self.n - 1)

    def max_error(self, v: np.ndarray | float) -> np.ndarray:
        """Per-value bound on |predicted rank − true rank| (for local search)."""
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        return self._err[self._route(v)]

    def cdf(self, v: np.ndarray | float) -> np.ndarray:
        """Empirical CDF: fraction of keys <= v (the exact rank; in numpy
        the vectorized search is faster than a model-guided one)."""
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        return np.searchsorted(self.keys, v, side="right") / self.n

    def lookup_range(self, lo: float, hi: float) -> tuple[int, int]:
        """[start, end) positions of keys within [lo, hi].

        Exercises the learned path: model prediction plus a local search
        bounded by the expert's max error window (the clustered baseline's
        RMI lookup, §7.2(2)).
        """
        out = []
        for v, side in ((lo, "left"), (hi, "right")):
            if not np.isfinite(v):
                out.append(int(np.searchsorted(self.keys, v, side=side)))
                continue
            pred = self.predict(v)[0]
            err = int(self.max_error(v)[0]) + 1
            w_lo = max(int(pred) - err, 0)
            w_hi = min(int(pred) + err + 1, self.n)
            pos = w_lo + int(np.searchsorted(self.keys[w_lo:w_hi], v, side=side))
            # Guard: if the true position fell outside the error window
            # (can happen at expert boundaries), fall back to a global search.
            if pos == w_lo or pos == w_hi:
                pos = int(np.searchsorted(self.keys, v, side=side))
            out.append(pos)
        return out[0], out[1]
