"""Z-order (Morton) encoding and BIGMIN skip-ahead for the UB-tree (§7.2(5)).

``interleave`` packs d per-dimension b-bit integer coordinates into a
single Z-value, most-significant bits first, cycling dimensions (dimension
0 contributes the most significant bit of each round, matching "ordered by
selectivity; the most selective dimension's LSB is the Z-order value's
LSB" from Appendix A).

``bigmin(z, zmin, zmax)`` returns the smallest Z-value >= z that lies
inside the query rectangle whose corners have Z-values ``zmin``/``zmax``
(Tropf & Herzog 1981) — the UB-tree's "skip ahead to the next Z-value
contained in the query rectangle". Validated exhaustively against brute
force in tests.
"""
from __future__ import annotations

import numpy as np


def interleave(coords: np.ndarray, bits: int) -> np.ndarray:
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


def quantize(data: np.ndarray, mins: np.ndarray, maxs: np.ndarray, bits: int) -> np.ndarray:
    """Scale float columns to [0, 2^bits) integer grid coordinates.

    ``mins`` and ``maxs`` must be finite; values outside them, ±inf
    included, clip to the first or last coordinate."""
    span = np.maximum(maxs - mins, 1e-300)
    q = ((data - mins) / span) * (2**bits - 1)
    return np.clip(np.floor(q + 0.5), 0, 2**bits - 1).astype(np.uint64)


def bigmin(zcode: int, zmin: int, zmax: int, d: int, bits: int) -> int:
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


def zrange_of_query(q_lo: np.ndarray, q_hi: np.ndarray, bits: int) -> tuple[int, int]:
    """Z-values of the rectangle's lower-left and upper-right corners."""
    lo = interleave(q_lo.reshape(1, -1), bits)[0]
    hi = interleave(q_hi.reshape(1, -1), bits)[0]
    return int(lo), int(hi)


def in_rect(z: int, zmin: int, zmax: int, d: int, bits: int) -> bool:
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
