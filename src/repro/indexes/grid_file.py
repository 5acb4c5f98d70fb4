"""Grid File (§7.2(3), Appendix A; Nievergelt et al. 1984).

Space is divided into blocks by per-dimension *global* boundary lists;
multiple adjacent blocks form a bucket, and bucket points are stored
together **unsorted** — reading anything from a bucket scans the whole
bucket. The structure is built incrementally: each point goes to its
bucket; when a bucket exceeds the page size it splits, preferring an
existing block boundary passing through it (no new grid column), else
adding a new grid column at the bucket's midpoint along a round-robin
dimension.

Buckets are tracked as a binary split tree (each split produces exactly
two buckets, as in the paper's description); the per-dimension global
boundary lists drive the "existing boundary first" rule that makes a
Grid File different from a k-d tree. Unlike Flood, nothing here adapts
to the query workload.
"""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.indexes.base import BaseIndex

#: buckets stop splitting once there are this many
MAX_BUCKETS = 200_000


class _Bucket:
    __slots__ = ("lo", "hi", "points", "cycle")

    def __init__(self, lo, hi, cycle=0):
        self.lo, self.hi = lo, hi  # region, half-open
        self.points: list[int] = []
        self.cycle = cycle


class _Split:
    __slots__ = ("dim", "val", "left", "right")

    def __init__(self, dim, val, left, right):
        self.dim, self.val = dim, val
        self.left, self.right = left, right


class GridFile(BaseIndex):
    name = "grid_file"

    def __init__(self, page_size: int = 1024):
        super().__init__()
        self.page_size = page_size

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        d = self.d
        lo = data.min(axis=0)
        hi = data.max(axis=0) + 1e-9
        self.boundaries: list[list[float]] = [[] for _ in range(d)]
        root_bucket = _Bucket(lo, hi)
        self.tree: _Split | _Bucket = root_bucket
        self.n_buckets = 1
        for i in range(self.n):  # incremental, as specified
            p = data[i]
            node = self.tree
            parent, side = None, None
            while isinstance(node, _Split):
                parent = node
                if p[node.dim] < node.val:
                    node, side = node.left, "left"
                else:
                    node, side = node.right, "right"
            node.points.append(i)
            if (
                len(node.points) > self.page_size
                and node.cycle >= 0  # -1 marks a bucket proven unsplittable
                and self.n_buckets < MAX_BUCKETS
            ):
                split = self._split_bucket(node, data)
                if split is None:
                    node.cycle = -1
                elif parent is None:
                    self.tree = split
                else:
                    setattr(parent, side, split)
        # materialize: concatenate bucket point lists into contiguous ranges
        self.buckets: list[_Bucket] = []
        self._collect(self.tree)
        perm_parts, ranges = [], []
        pos = 0
        for b in self.buckets:
            perm_parts.append(np.asarray(b.points, dtype=np.int64))
            ranges.append((pos, pos + len(b.points)))
            pos += len(b.points)
        perm = np.concatenate(perm_parts) if perm_parts else np.arange(0)
        self.bucket_ranges = ranges
        self.store = ColumnStore(data[perm])

    def _collect(self, node) -> None:
        if isinstance(node, _Bucket):
            self.buckets.append(node)
        else:
            self._collect(node.left)
            self._collect(node.right)

    def _split_bucket(self, b: _Bucket, data: np.ndarray) -> _Split | None:
        d = self.d
        dim = val = None
        # (1) an existing block boundary strictly inside the bucket, dims
        # probed round-robin from the bucket's cycle position
        for probe in range(d):
            k = (b.cycle + probe) % d
            for bound in self.boundaries[k]:
                if b.lo[k] < bound < b.hi[k]:
                    dim, val = k, bound
                    break
            if dim is not None:
                break
        if dim is None:
            # (2) new grid column at the midpoint of the round-robin dim
            for probe in range(d):
                k = (b.cycle + probe) % d
                mid = (b.lo[k] + b.hi[k]) / 2
                if b.lo[k] < mid < b.hi[k]:
                    dim, val = k, mid
                    self.boundaries[k].append(mid)
                    break
            if dim is None:
                return None  # degenerate region: cannot split further
        pts = np.asarray(b.points, dtype=np.int64)
        mask = data[pts, dim] < val
        l_hi = b.hi.copy(); l_hi[dim] = val
        r_lo = b.lo.copy(); r_lo[dim] = val
        left = _Bucket(b.lo.copy(), l_hi, cycle=(dim + 1) % d)
        right = _Bucket(r_lo, b.hi.copy(), cycle=(dim + 1) % d)
        left.points = pts[mask].tolist()
        right.points = pts[~mask].tolist()
        self.n_buckets += 1
        return _Split(dim, val, left, right)

    def _ranges(self, q: Query):
        # buckets are half-open, but a bucket whose top is +inf holds the
        # +inf values: a lower bound of +inf cuts at the largest float instead
        qlo = np.minimum(q.ranges[:, 0], np.finfo(np.float64).max)
        qhi = q.ranges[:, 1]
        ranges = []
        n_buckets = 0
        for b, (s, e) in zip(self.buckets, self.bucket_ranges):
            if e <= s:
                continue
            if (b.lo > qhi).any() or (b.hi <= qlo).any():
                continue
            n_buckets += 1
            # bucket fully inside the rectangle → every point matches
            exact = bool((b.lo >= qlo).all() and (b.hi <= qhi).all())
            ranges.append((s, e, exact))
        return ranges, n_buckets

    def index_size_bytes(self) -> int:
        nb = len(getattr(self, "buckets", []))
        return int(nb * 16 * self.d + sum(len(x) * 8 for x in self.boundaries))
