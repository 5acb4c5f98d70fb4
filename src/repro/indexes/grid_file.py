"""Grid File (§7.2(3), Appendix A; Nievergelt et al. 1984).

Space is divided into blocks by per-dimension *global* boundary lists;
multiple adjacent blocks form a bucket, and bucket points are stored
together **unsorted** — reading anything from a bucket scans the whole
bucket. The structure is built incrementally: each point goes to its
bucket; when a bucket exceeds the page size it splits, preferring an
existing block boundary passing through it (no new grid column), else
adding a new grid column at the bucket's midpoint along a round-robin
dimension.

Buckets are tracked as a binary split tree while building (each split
produces exactly two buckets, as in the paper's description); the
per-dimension global boundary lists drive the "existing boundary first"
rule that makes a Grid File different from a k-d tree. The built index
keeps each nonempty bucket as a page with the closed box holding the
floats of its half-open region; a query scans the buckets whose box meets
the rectangle, and marks exact those inside it that hold no NaN in a
filtered dimension. Unlike Flood, nothing here adapts to the workload.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.indexes.base import PagedIndex, closed_top, halving_root, midpoint, page_hits

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


class GridFile(PagedIndex):
    name = "grid_file"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        d = self.d
        # NaN rows go right
        lo, hi, finite = halving_root(data)
        self.boundaries: list[list[float]] = [[] for _ in range(d)]
        tree: _Split | _Bucket = _Bucket(lo, hi)
        n_buckets = 1
        for i in range(self.n):  # incremental, as specified
            p = data[i]
            node = tree
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
                and n_buckets < MAX_BUCKETS
            ):
                split = self._split_bucket(node, data, finite)
                if split is None:
                    node.cycle = -1
                    continue
                n_buckets += 1
                if parent is None:
                    tree = split
                else:
                    setattr(parent, side, split)
        # materialize: the nonempty buckets, in tree order, become pages
        buckets: list[_Bucket] = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, _Split):
                stack += (node.right, node.left)
            elif node.points:
                buckets.append(node)
        rows = self._lay_out(data, [np.asarray(b.points, dtype=np.int64) for b in buckets])
        self.lo = np.array([b.lo for b in buckets])
        self.hi = closed_top(np.array([b.hi for b in buckets]))
        #: (pages, d): whether the bucket holds NaN in the dimension
        self.has_nan = np.logical_or.reduceat(np.isnan(rows), self.starts)

    def _split_bucket(self, b: _Bucket, data: np.ndarray,
                      finite: tuple[np.ndarray, np.ndarray]) -> _Split | None:
        """Split bucket ``b`` in two, or None when its region cannot be
        split; midpoints are clamped to the ``finite`` extent."""
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
            mids = midpoint(b.lo, b.hi, finite)
            for probe in range(d):
                k = (b.cycle + probe) % d
                mid = mids[k]
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
        return _Split(dim, val, left, right)

    def _ranges(self, q: Query):
        hit = page_hits(self.lo, self.hi, q)
        qlo, qhi = q.ranges[:, 0], q.ranges[:, 1]
        # a bucket inside the rectangle matches on every row, unless it
        # holds NaN, which matches no filter, in a filtered dimension
        exact = ((self.lo[hit] >= qlo).all(axis=1)
                 & (self.hi[hit] <= qhi).all(axis=1)
                 & ~self.has_nan[hit][:, list(q.filtered_dims)].any(axis=1))
        return self.starts[hit], self.ends[hit], exact, hit.size

    def _index_size_bytes(self) -> int:
        return (super()._index_size_bytes() + self.has_nan.nbytes
                + 8 * sum(len(x) for x in self.boundaries))
