"""Random forest regression, from scratch in numpy.

The paper trains "a random forest regression model to predict the weights
based on the statistics" (§4.1.1) using Python's scipy stack; neither
scipy nor scikit-learn is installed in this container, so this module
implements the estimator itself: variance-reduction CART trees grown on
bootstrap samples with per-split feature subsampling, averaged at predict
time.

Splits are found by an O(n log n) exhaustive scan per feature (sort once,
prefix sums of y and y^2 give the variance of every threshold in one
pass), which is the textbook regression-tree criterion.

The fitted forest is one set of ``(n_trees, max_nodes)`` node arrays,
each tree padded to the longest; ``left`` and ``right`` hold a child's
index into the flattened arrays. A leaf splits on feature 0 at ``+inf``
and both its children are itself, so ``max_depth`` steps of gathers move
every row of every tree to its leaf at once; a NaN feature goes right, and
at a leaf right is the leaf.
"""
from __future__ import annotations

import numpy as np


def _grow(X: np.ndarray, y: np.ndarray, depth: int, nodes: list[list],
          rng: np.random.Generator, max_depth: int, min_leaf: int,
          max_features: float) -> int:
    """Grow one subtree depth first into ``nodes`` (rows of feature,
    threshold, left, right, value); returns the index of its root."""
    node = len(nodes)
    nodes.append([0, np.inf, node, node, float(y.mean())])  # a leaf
    n = y.size
    if depth >= max_depth or n < 2 * min_leaf or np.ptp(y) == 0:
        return node
    n_feat = X.shape[1]
    k = max(1, int(round(max_features * n_feat)))
    feats = rng.choice(n_feat, size=k, replace=False)
    best = (np.inf, -1, 0.0)  # (weighted sse, feature, threshold)
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        # candidate split after position i (1..n-1) where value changes
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        idx = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        idx = idx[valid]
        idx = idx[(idx >= min_leaf) & (idx <= n - min_leaf)]
        if idx.size == 0:
            continue
        nl = idx.astype(np.float64)
        nr = n - nl
        sl, sr = csum[idx - 1], csum[-1] - csum[idx - 1]
        ql, qr = csq[idx - 1], csq[-1] - csq[idx - 1]
        sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
        j = int(np.argmin(sse))
        if sse[j] < best[0]:
            thr = 0.5 * (xs[idx[j] - 1] + xs[idx[j]])
            best = (float(sse[j]), int(f), float(thr))
    if best[1] < 0:
        return node
    f, thr = best[1], best[2]
    mask = X[:, f] <= thr
    if mask.all() or not mask.any():
        return node
    grow = (rng, max_depth, min_leaf, max_features)
    left = _grow(X[mask], y[mask], depth + 1, nodes, *grow)
    right = _grow(X[~mask], y[~mask], depth + 1, nodes, *grow)
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
        trees = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, n)
            nodes: list[list] = []
            _grow(X[idx], y[idx], 0, nodes, rng, self.max_depth,
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
