"""Random forest regression, from scratch in numpy.

The paper trains "a random forest regression model to predict the weights
based on the statistics" (§4.1.1) using Python's scipy stack; neither
scipy nor scikit-learn is installed in this container, so this module
implements the estimator itself: variance-reduction CART trees grown on
bootstrap samples with per-split feature subsampling, averaged at predict
time.

Each node finds its split with one search over all of its sampled
features at once: the ``(k, n)`` block of those features is sorted row by
row (stable), prefix sums of y and y^2 along each row give the
within-child squared error of every threshold, and one ``argmin`` over
the ``(k, n - 1)`` matrix picks the first feature in draw order, then the
first position, among the least errors. That is the textbook
regression-tree criterion, with ties broken as a loop over the features
with a strict ``<`` would break them. A split lies between two different
values and leaves ``min_samples_leaf`` rows on each side. A node whose
target holds a NaN or an infinity has only NaN errors and stays a leaf.

The fitted forest is one set of ``(n_trees, max_nodes)`` node arrays,
each tree padded to the longest; ``left`` and ``right`` hold a child's
index into the flattened arrays. A leaf splits on feature 0 at ``+inf``
and both its children are itself, so ``max_depth`` steps of gathers move
every row of every tree to its leaf at once; a NaN feature goes right, and
at a leaf right is the leaf.
"""
from __future__ import annotations

import numpy as np


def _grow(XT: np.ndarray, y: np.ndarray, depth: int, nodes: list[list],
          rng: np.random.Generator, max_depth: int, min_leaf: int,
          max_features: float) -> int:
    """Grow one subtree depth first into ``nodes`` (rows of feature,
    threshold, left, right, value) from the node's samples ``XT`` (one
    row per feature) and targets ``y``; returns the index of its root."""
    node = len(nodes)
    n = y.size
    # y.mean(), summed and divided as it does, without its Python overhead
    nodes.append([0, np.inf, node, node, float(np.add.reduce(y)) / n])
    lo = max(1, min_leaf)  # the fewest rows a child may have
    if depth >= max_depth or n < 2 * lo or y.max() - y.min() == 0:
        return node
    n_feat = XT.shape[0]
    k = max(1, int(round(max_features * n_feat)))
    feats = rng.choice(n_feat, size=k, replace=False)
    # row c of xs and ys: feature feats[c] and y, in that feature's order
    sub = XT.take(feats, axis=0)
    order = sub.argsort(axis=1, kind="stable")
    xs = sub.take(order + np.arange(0, k * n, n)[:, None])
    ys = y.take(order)
    csum = np.add.accumulate(ys, axis=1)
    csq = np.add.accumulate(ys * ys, axis=1)
    # column i - lo splits after the i-th smallest value, lo <= i <= n - lo
    nl = np.arange(lo, n - lo + 1, dtype=np.float64)
    nr = n - nl
    sl, ql = csum[:, lo - 1:n - lo], csq[:, lo - 1:n - lo]
    sr, qr = csum[:, -1:] - sl, csq[:, -1:] - ql
    sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
    sse[xs[:, lo:n - lo + 1] == xs[:, lo - 1:n - lo]] = np.inf  # inside a tie
    j = int(np.argmin(sse))  # first feature in draw order, then position
    # a NaN error: the node's target holds a NaN or an infinity
    if not sse.flat[j] < np.inf:
        return node
    c, i = divmod(j, sse.shape[1])
    i += lo
    f, thr = int(feats[c]), float(0.5 * (xs[c, i - 1] + xs[c, i]))
    mask = XT[f] <= thr
    if not 0 < np.count_nonzero(mask) < n:  # a NaN or rounded-up threshold
        return node
    grow = (rng, max_depth, min_leaf, max_features)
    left = _grow(XT.compress(mask, axis=1), y[mask], depth + 1, nodes, *grow)
    mask = ~mask
    right = _grow(XT.compress(mask, axis=1), y[mask], depth + 1, nodes, *grow)
    nodes[node][:4] = [f, thr, left, right]
    return node


class RandomForestRegressor:
    """Bootstrap-aggregated CART regressor (drop-in minimal estimator).

    Parameters mirror the scikit-learn names so the cost model reads
    naturally: ``n_estimators`` trees, each grown to ``max_depth`` on a
    bootstrap resample, considering ``max_features`` of the features per
    split; predictions are the mean over trees.
    """

    def __init__(self, n_estimators: int = 30, max_depth: int = 12,
                 min_samples_leaf: int = 2, max_features: float = 0.7,
                 seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.value: np.ndarray | None = None  # (n_trees, max_nodes) leaf means

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise ValueError(f"bad shapes X={X.shape} y={y.shape}")
        rng = np.random.default_rng(self.seed)
        n = y.size
        XT = np.ascontiguousarray(X.T)
        trees = []
        # non-finite data gives NaN thresholds and errors, which rule out
        # their split
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(self.n_estimators):
                idx = rng.integers(0, n, n)
                nodes: list[list] = []
                _grow(XT.take(idx, axis=1), y[idx], 0, nodes, rng, self.max_depth,
                      self.min_samples_leaf, self.max_features)
                trees.append(nodes)
        # pad each tree to the longest with unreachable leaves
        shape = (len(trees), max(map(len, trees)))
        self.feature = np.zeros(shape, dtype=np.intp)
        self.threshold = np.full(shape, np.inf)
        self.left = np.arange(shape[0] * shape[1]).reshape(shape)
        self.right = self.left.copy()
        self.value = np.zeros(shape)
        for t, nodes in enumerate(trees):
            f, thr, left, right, value = map(np.array, zip(*nodes))
            k, root = len(nodes), t * shape[1]
            self.feature[t, :k] = f
            self.threshold[t, :k] = thr
            self.left[t, :k] = left + root
            self.right[t, :k] = right + root
            self.value[t, :k] = value
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.value is None:
            raise RuntimeError("predict() before fit()")
        n_trees, max_nodes = self.value.shape
        rows = np.arange(X.shape[0])
        node = np.repeat(np.arange(n_trees)[:, None] * max_nodes, rows.size, axis=1)
        for _ in range(self.max_depth):
            go_left = X[rows, np.take(self.feature, node)] <= np.take(self.threshold, node)
            node = np.where(go_left, np.take(self.left, node), np.take(self.right, node))
        # a running sum in tree order: a pairwise mean rounds differently
        return np.add.accumulate(np.take(self.value, node), axis=0)[-1] / n_trees
