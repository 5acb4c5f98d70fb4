"""Z-order (Morton) encoding and BIGMIN skip-ahead for the UB-tree (§7.2(5)).

``interleave`` packs d per-dimension b-bit integer coordinates into a
single Z-value, most-significant bits first, cycling dimensions (dimension
0 contributes the most significant bit of each round, matching "ordered by
selectivity; the most selective dimension's LSB is the Z-order value's
LSB" from Appendix A).

``bigmin(z, zmin, zmax, d, bits)`` returns, for every Z-value of the
array ``z``, the smallest Z-value >= it inside the query rectangle whose
corners have Z-values ``zmin``/``zmax`` (Tropf & Herzog 1981) — the
UB-tree's "skip ahead to the next Z-value contained in the query
rectangle", taken at every page start of a query at once. Validated
against brute force in tests.
"""
from __future__ import annotations

import numpy as np


def interleave(coords: np.ndarray, bits: int) -> np.ndarray:
    """Morton-encode (n, d) uint coords with ``bits`` bits/dim into int64 Z-values."""
    coords = np.asarray(coords, dtype=np.uint64)
    n, d = coords.shape
    if bits * d > 63:
        raise ValueError(f"{bits} bits x {d} dims exceeds 63-bit Z-values")
    # bit b of dimension dim lands at b·d + (d − 1 − dim), dimension 0
    # highest in each round: every bit of a block of rows moves in one step
    b = np.arange(bits, dtype=np.uint64)[:, None]
    place = b * np.uint64(d) + np.arange(d - 1, -1, -1, dtype=np.uint64)
    z = np.empty(n, dtype=np.uint64)
    for i in range(0, n, 1 << 15):  # blocks bound the (rows, bits, d) temporaries
        bit = (coords[i:i + (1 << 15), None, :] >> b) & np.uint64(1)
        z[i:i + bit.shape[0]] = (bit << place).sum(axis=(1, 2), dtype=np.uint64)
    return z.astype(np.int64)


def quantize(data: np.ndarray, mins: np.ndarray, maxs: np.ndarray, bits: int) -> np.ndarray:
    """Scale float columns to [0, 2^bits) integer grid coordinates.

    ``mins`` and ``maxs`` must be finite; values outside them, ±inf
    included, clip to the first or last coordinate, and NaN takes the last
    (as in Flood, whose last column holds NaN)."""
    span = np.maximum(maxs - mins, 1e-300)
    q = ((data - mins) / span) * (2**bits - 1)
    # fmin maps NaN to the top coordinate before the cast
    return np.fmax(np.fmin(np.floor(q + 0.5), 2**bits - 1), 0).astype(np.uint64)


def bigmin(z: np.ndarray, zmin: int, zmax: int, d: int, bits: int) -> np.ndarray:
    """For each Z-value of ``z``, the smallest Z-value >= it inside the
    rectangle whose lower and upper corners have Z-values ``zmin`` and
    ``zmax``, or -1 where there is none (beyond ``zmax``).

    All Z-values come from :func:`interleave` with the same ``(d, bits)``;
    the result is int64. This is Tropf and Herzog's case analysis run on
    every element at once, each holding its own restricted corners and
    candidate. The bits above the first one where ``zmin`` and ``zmax``
    differ are the same for every Z-value between them, so the walk starts
    there, and it stops once every element is decided.
    """
    z = np.asarray(z).astype(np.uint64)
    lo_z, hi_z = np.uint64(zmin), np.uint64(zmax)
    # below the rectangle the answer is its lowest Z-value, above it none
    out = np.where(z < lo_z, np.int64(zmin), np.int64(-1))
    live = np.flatnonzero((z >= lo_z) & (z <= hi_z))
    z = z[live]
    out[live] = z  # left undecided, a Z-value is inside the rectangle
    lo, hi = np.full(z.size, lo_z), np.full(z.size, hi_z)
    cand = np.zeros(z.size, dtype=np.uint64)
    for shift in range(int(zmin ^ zmax).bit_length() - 1, -1, -1):
        if not live.size:
            break
        low = sum(1 << s for s in range(shift - d, -1, -d))  # its dimension's lower bits
        bit, rest = np.uint64(1 << shift), np.uint64(low)
        keep = np.uint64(~((1 << shift) | low) & 0xFFFF_FFFF_FFFF_FFFF)
        zb, lb, ub = (z & bit) != 0, (lo & bit) != 0, (hi & bit) != 0
        # bits of (z, lo, hi) 0,1,1: the answer is the lower corner;
        # 1,0,0: it is the candidate; 0,0,1: the corners' upper half starts
        # the next candidate, and the search stays in their lower half;
        # 1,0,1: the search moves to their upper half
        to_lo, to_cand = lb & ~zb, zb & ~ub
        below, above = ub & ~lb & ~zb, ub & ~lb & zb
        cand = np.where(below, (lo & keep) | bit, cand)
        hi = np.where(below, (hi & keep) | rest, hi)
        lo = np.where(above, (lo & keep) | bit, lo)
        done = to_lo | to_cand
        if done.any():
            out[live[to_lo]] = lo[to_lo]
            out[live[to_cand]] = cand[to_cand]
            live, z, lo, hi, cand = (a[~done] for a in (live, z, lo, hi, cand))
    return out
